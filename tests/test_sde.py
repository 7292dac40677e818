"""Reflected Euler-Maruyama integrator, drift formulas, and the Skorokhod map."""

import hashlib
import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphdyn import (
    Hamiltonian,
    StepKernel,
    edge_graph,
    kernel_from_values,
    l2_distance,
    l2_norm,
    triangle_graph,
)
from graphdyn.flow import flow_step, run_flow
from graphdyn import sde
from graphdyn.metropolis import ChainConfig, run_chain
from graphdyn.sde import (
    SdeConfig,
    SdeState,
    _fill_symmetric_noise,
    drift_b,
    em_step,
    explicit_drift_formula,
    gaussian_tail,
    limit_drift,
    run_sde,
    skorokhod_1d,
)
from oracles import explicit_drift_mc, gaussian_tail_quadrature, skorokhod_brute

TRIANGLE_EDGE = Hamiltonian(((1.0, triangle_graph()), (-0.25, edge_graph())))
ZERO_H = Hamiltonian(((0.0, edge_graph()),))


def one_draw(rng, r):
    """One symmetric (r, r) noise draw from rng, as run_sde draws each replica's."""
    return _fill_symmetric_noise([rng], np.empty((1, r, r)))[0]


def random_kernel(rng, r):
    a = rng.random((r, r))
    return kernel_from_values((a + a.T) / 2.0)


class QuadraticWell:
    """Gradient pulls every entry toward one half at unit rate."""

    def frechet_derivative(self, a):
        return a - 0.5

    def evaluate(self, w):
        return 0.5 * float(((w.values - 0.5) ** 2).mean())


# ---------------------------------------------------------------- tail


def test_tail_at_zero_is_one_half():
    assert gaussian_tail(0.0) == 0.5


def test_tail_symmetry():
    for x in (0.1, 0.7, 1.5, 3.0):
        assert gaussian_tail(-x) == pytest.approx(1.0 - gaussian_tail(x), abs=1e-15)


def test_tail_at_one_matches_quadrature():
    assert gaussian_tail(1.0) == pytest.approx(0.15865525393145707, abs=1e-15)
    assert gaussian_tail(1.0) == pytest.approx(gaussian_tail_quadrature(1.0), rel=1e-10)


def test_tail_relative_accuracy_across_the_working_range():
    # small arguments against adaptive quadrature; large ones against the
    # Mills-ratio continued fraction, which converges fast there
    for x in (0.0, 0.25, 0.5, 1.0, 1.5):
        assert gaussian_tail(x) == pytest.approx(gaussian_tail_quadrature(x), rel=1e-12)

    def mills_cf(x, depth=120):
        acc = 0.0
        for k in range(depth, 0, -1):
            acc = k / (x + acc)
        phi = math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
        return phi / (x + acc)

    for x in (2.0, 3.0, 4.0, 6.0, 8.0):
        assert gaussian_tail(x) == pytest.approx(mills_cf(x), rel=1e-12)


# ---------------------------------------------------------------- drift


def test_zero_gradient_gives_zero_drift():
    w = StepKernel.constant(3, 0.4)
    assert np.all(drift_b(ZERO_H, w.values, 2.0) == 0.0)


def test_drift_approaches_minus_beta_gradient_at_large_block_count():
    w = StepKernel.constant(1000, 0.5)
    b = drift_b(TRIANGLE_EDGE, w.values, 1.0)
    lim = limit_drift(TRIANGLE_EDGE, w.values, 1.0)
    rel = np.abs(b - lim).max() / np.abs(lim).max()
    assert rel < 0.01


def test_drift_matches_the_explicit_gaussian_average_exactly():
    # drift_b folds the block count into its arguments: with the normalized
    # l2 norm |g|_2 = |g|_F / r, its exponent beta^2 r^-2 |g|_2^2 equals
    # (beta/r^2)^2 |g|_F^2 and its tail argument sqrt(2) beta |g|_2 / r
    # equals sqrt(2) (beta/r^2) |g|_F.  So drift_b is r^2 times the
    # closed-form Gaussian average evaluated at (v, t) = (g, beta/r^2),
    # identically in w.
    rng = np.random.default_rng(7)
    for _ in range(20):
        r = int(rng.integers(2, 7))
        w = random_kernel(rng, r)
        beta = float(rng.uniform(0.1, 3.0))
        g = TRIANGLE_EDGE.frechet_derivative(w.values)
        lhs = drift_b(TRIANGLE_EDGE, w.values, beta)
        rhs = r**2 * explicit_drift_formula(g, beta / r**2)
        assert np.abs(lhs - rhs).max() < 1e-14


def test_drift_matches_a_gaussian_sample_mean():
    # sampled form of the same identity: r^-2 drift_b(w) is the mean of
    # Z exp(-(beta/r^2) <g, Z>_F^+) over symmetric Gaussians Z
    r, beta = 4, 1.3
    w = random_kernel(np.random.default_rng(3), r)
    g = TRIANGLE_EDGE.frechet_derivative(w.values)
    mean, se = explicit_drift_mc(g, beta / r**2, 10**5, seed=5)
    target = drift_b(TRIANGLE_EDGE, w.values, beta) / r**2
    assert np.all(np.abs(mean - target) <= 3.0 * se)


def test_drift_stays_finite_at_a_large_prefactor_argument():
    # beta |g|_2 / r = 1.25e5: exp(x^2) overflows, but erfcx(x) ~ 1 / (x sqrt(pi)),
    # so the drift tends to -r g / (sqrt(pi) |g|_2)
    w = StepKernel.constant(4, 0.5)
    g = TRIANGLE_EDGE.frechet_derivative(w.values)
    b = drift_b(TRIANGLE_EDGE, w.values, 1e6)
    assert np.isfinite(b).all()
    np.testing.assert_allclose(b, -4 * g / (math.sqrt(math.pi) * l2_norm(g)), rtol=1e-9)


def test_drift_opposes_the_gradient_and_is_bounded():
    rng = np.random.default_rng(19)
    for _ in range(10):
        r = int(rng.integers(2, 8))
        w = random_kernel(rng, r)
        beta = float(rng.uniform(0.2, 2.0))
        g = TRIANGLE_EDGE.frechet_derivative(w.values)
        b = drift_b(TRIANGLE_EDGE, w.values, beta)
        assert np.all(b * g <= 0.0)
        bound = 2.0 * beta * np.abs(g).max() * math.exp(
            beta**2 * l2_norm(g) ** 2 / r**2
        )
        assert np.abs(b).max() <= bound + 1e-12


# ---------------------------------------------------------------- explicit average


def test_explicit_average_of_zero_matrix_is_zero():
    assert np.all(explicit_drift_formula(np.zeros((3, 3)), 0.5) == 0.0)


def test_explicit_average_leading_term_is_minus_t_v():
    v = np.array([[0.3, -0.5], [-0.5, 0.8]])
    t = 1e-4
    out = explicit_drift_formula(v, t)
    assert np.abs(out - (-t * v)).max() / np.abs(t * v).max() < 1e-3


def test_explicit_average_requires_positive_t():
    with pytest.raises(ValueError):
        explicit_drift_formula(np.eye(2), 0.0)
    with pytest.raises(ValueError):
        explicit_drift_formula(np.eye(2), -1.0)
    # nan passed the old t <= 0 guard and gave all nan; inf gave all nan with a
    # RuntimeWarning
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match=rf"^t must be positive and finite, got {t}$"):
            explicit_drift_formula(np.eye(2), t)


def test_explicit_average_matches_monte_carlo():
    v = np.array([[0.3, -0.5, 0.1], [-0.5, 0.8, 0.4], [0.1, 0.4, -0.2]])
    mean, se = explicit_drift_mc(v, 0.2, 10**6, seed=21)
    assert np.all(np.abs(mean - explicit_drift_formula(v, 0.2)) <= 4.0 * se)


# ---------------------------------------------------------------- Skorokhod map


def test_descending_path_is_pinned_at_the_floor():
    path = np.linspace(0.0, -2.0, 11)
    x, l_lo, l_hi = skorokhod_1d(path, 0.0, 1.0)
    assert np.all(x == 0.0)
    assert np.allclose(l_lo, -path)
    assert np.all(l_hi == 0.0)


def test_interior_path_passes_through_unchanged():
    rng = np.random.default_rng(2)
    path = 0.5 + 0.05 * np.cumsum(rng.standard_normal(50)) / 10.0
    path = np.clip(path, 0.2, 0.8)
    x, l_lo, l_hi = skorokhod_1d(path, 0.0, 1.0)
    assert np.allclose(x, path)
    assert np.all(l_lo == 0.0) and np.all(l_hi == 0.0)


@pytest.mark.parametrize("excursion", [1.0, -1.0, 1e17, -1e17, 1e300, -1e300])
def test_a_large_excursion_lands_on_the_face_with_its_overshoot_as_local_time(excursion):
    # y + up - down used to cancel to 0.0 here, below lo = 0.25
    lo, hi = 0.25, 0.75
    path = np.array([0.5, 0.5 + excursion])
    x, l_lo, l_hi = skorokhod_1d(path, lo, hi)
    y = 0.5 + path[1] - path[0]
    if excursion > 0:
        assert (x[1], l_lo[1], l_hi[1]) == (hi, 0.0, y - hi)
    else:
        assert (x[1], l_lo[1], l_hi[1]) == (lo, lo - y, 0.0)


def test_reflection_input_validation():
    with pytest.raises(ValueError):
        skorokhod_1d(np.zeros(3), 1.0, 0.0)
    with pytest.raises(ValueError):
        skorokhod_1d(np.array([2.0, 0.0]), 0.0, 1.0)
    # an empty path raised IndexError; a nan reflected to nan, outside [lo, hi];
    # an inf gave infinite local times
    with pytest.raises(ValueError, match=r"^path must have at least one point$"):
        skorokhod_1d([], 0.0, 1.0)
    with pytest.raises(ValueError, match=r"^path must be finite, got nan at index 1$"):
        skorokhod_1d([0.5, math.nan], 0.0, 1.0)
    with pytest.raises(ValueError, match=r"^path must be finite, got inf at index 1$"):
        skorokhod_1d([0.5, math.inf, 0.5], 0.0, 1.0)


def walk_from_half(rng, steps, scale):
    increments = np.concatenate([[0.0], scale * rng.standard_normal(steps - 1)])
    return 0.5 + np.cumsum(increments)


def test_reflection_matches_the_stepwise_recursion():
    rng = np.random.default_rng(14)
    for _ in range(20):
        path = walk_from_half(rng, 200, 0.3)
        x, l_lo, l_hi = skorokhod_1d(path, 0.0, 1.0)
        bx, bl, bh = skorokhod_brute(path, 0.0, 1.0)
        assert np.allclose(x, bx, atol=1e-12)
        assert np.allclose(l_lo, bl, atol=1e-12)
        assert np.allclose(l_hi, bh, atol=1e-12)
        assert np.all(x >= 0.0) and np.all(x <= 1.0)
        assert np.all(np.diff(l_lo) >= 0.0) and np.all(np.diff(l_hi) >= 0.0)


def test_reflection_local_times_only_grow_at_their_boundary():
    rng = np.random.default_rng(15)
    path = walk_from_half(rng, 300, 0.4)
    x, l_lo, l_hi = skorokhod_1d(path, 0.0, 1.0)
    grows_lo = np.diff(l_lo) > 0.0
    grows_hi = np.diff(l_hi) > 0.0
    assert np.all(x[1:][grows_lo] == 0.0)
    assert np.all(x[1:][grows_hi] == 1.0)


def test_reflection_is_four_lipschitz_in_sup_norm():
    rng = np.random.default_rng(16)
    for _ in range(100):
        steps = int(rng.integers(50, 200))
        p1 = walk_from_half(rng, steps, 0.2)
        p2 = p1 + np.concatenate([[0.0], np.cumsum(0.05 * rng.standard_normal(steps - 1))])
        x1, _, _ = skorokhod_1d(p1, 0.0, 1.0)
        x2, _, _ = skorokhod_1d(p2, 0.0, 1.0)
        gap = np.abs(p1 - p2).max()
        assert np.abs(x1 - x2).max() <= 4.0 * gap + 1e-12


@settings(max_examples=200, deadline=None)
@given(
    lo=st.floats(-5.0, 5.0),
    width=st.floats(0.01, 5.0),
    starts=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    moves=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-0.5, 0.5)), min_size=1,
                   max_size=40),
)
def test_reflection_is_four_lipschitz_for_any_pair_of_paths(lo, width, starts, moves):
    # any bounds, any starts inside them, and a second path that departs
    # from the first by an arbitrary perturbation at every step
    hi = lo + width
    p1 = lo + width * np.concatenate([[starts[0]], starts[0] + np.cumsum([m for m, _ in moves])])
    p2 = np.concatenate([[lo + width * starts[1]], p1[1:] + width * np.array([d for _, d in moves])])
    p1[0], p2[0] = min(max(p1[0], lo), hi), min(max(p2[0], lo), hi)
    x1, _, _ = skorokhod_1d(p1, lo, hi)
    x2, _, _ = skorokhod_1d(p2, lo, hi)
    assert np.abs(x1 - x2).max() <= 4.0 * np.abs(p1 - p2).max() + 1e-9


# ---------------------------------------------------------------- one step


def test_step_without_noise_or_gradient_changes_nothing():
    cfg = SdeConfig(r=3, beta=1.0, sigma=0.0, dt=0.01, h=ZERO_H)
    s0 = SdeState.initial(StepKernel.constant(3, 0.3))
    s1 = em_step(s0, cfg, cfg.drift_kernel(s0.x), None)
    assert np.array_equal(s1.x, s0.x)
    assert np.all(s1.l0 == 0.0) and np.all(s1.l1 == 0.0)
    assert s1.t == pytest.approx(0.01)


def test_noiseless_step_is_euler_on_the_closed_form_drift():
    # the deterministic integrator driven by the closed-form drift must
    # reproduce the same iterates; at beta = 1 the arithmetic agrees exactly
    class DriftField:
        def frechet_derivative(self, a):
            return -drift_b(TRIANGLE_EDGE, a, 1.0)

    w = random_kernel(np.random.default_rng(11), 4)
    cfg = SdeConfig(r=4, beta=1.0, sigma=0.0, dt=0.01, h=TRIANGLE_EDGE)
    s_em, s_fl = SdeState.initial(w), w.values
    for _ in range(25):
        s_em = em_step(s_em, cfg, cfg.drift_kernel(s_em.x), None)
        s_fl = flow_step(s_fl, DriftField(), 1.0, 0.01)
        assert np.array_equal(s_em.x, s_fl)


def test_step_commutes_with_block_permutations():
    w = random_kernel(np.random.default_rng(5), 4)
    cfg = SdeConfig(r=4, beta=0.8, sigma=0.6, dt=1e-3, h=TRIANGLE_EDGE)
    xi = one_draw(np.random.default_rng(9), 4)
    perm = np.array([2, 0, 3, 1])
    w_p = w.values[np.ix_(perm, perm)]
    out = em_step(SdeState.initial(w), cfg, cfg.drift_kernel(w.values), xi)
    out_p = em_step(
        SdeState.initial(StepKernel(w_p)),
        cfg,
        cfg.drift_kernel(w_p),
        xi[np.ix_(perm, perm)],
    )
    assert np.array_equal(out.x[np.ix_(perm, perm)], out_p.x)


def test_local_times_record_exactly_the_clipped_overshoot():
    cfg = SdeConfig(r=2, beta=0.5, sigma=2.0, dt=0.02, h=TRIANGLE_EDGE)
    state = SdeState.initial(StepKernel.constant(2, 0.05))
    hit = 0
    for k in range(200):
        xi = one_draw(np.random.default_rng(100 + k), 2)
        y = (
            state.x
            + cfg.drift_kernel(state.x) * cfg.dt
            + cfg.sigma * math.sqrt(cfg.dt) * xi
        )
        nxt = em_step(state, cfg, cfg.drift_kernel(state.x), xi)
        dl0 = nxt.l0 - state.l0
        dl1 = nxt.l1 - state.l1
        assert np.allclose(dl0, np.maximum(0.0, -y), atol=1e-15)
        assert np.allclose(dl1, np.maximum(0.0, y - 1.0), atol=1e-15)
        assert np.all(dl0[y >= 0.0] == 0.0)
        assert np.all(dl1[y <= 1.0] == 0.0)
        assert np.all(nxt.x >= 0.0) and np.all(nxt.x <= 1.0)
        hit += int((y < 0.0).any() or (y > 1.0).any())
        state = nxt
    assert hit > 20  # the regime genuinely exercises the boundary


def test_noiseless_well_contracts_toward_its_minimizer():
    cfg = SdeConfig(r=3, beta=1.0, sigma=0.0, dt=0.05, h=QuadraticWell())
    state = SdeState.initial(random_kernel(np.random.default_rng(8), 3))
    star = StepKernel.constant(3, 0.5)
    prev = l2_distance(StepKernel(state.x), star)
    for _ in range(60):
        state = em_step(state, cfg, cfg.drift_kernel(state.x), None)
        dist = l2_distance(StepKernel(state.x), star)
        assert dist <= prev + 1e-15
        prev = dist
    assert prev < 0.05


def test_coarse_step_size_warns():
    cfg = SdeConfig(r=2, beta=1.0, sigma=0.0, dt=1.0, h=QuadraticWell())
    with pytest.warns(UserWarning, match="at step 1 .*step size"):
        run_sde(cfg, StepKernel.constant(2, 0.9))


@pytest.mark.parametrize("cfg", [
    # every step is coarse: before, each of the 100 steps warned, and 46
    # distinct texts got past the warnings registry
    SdeConfig(r=4, beta=50.0, sigma=1.0, dt=0.05, h=TRIANGLE_EDGE, horizon_t=5.0,
              drift="limit"),
    # the drift vanishes at the start, and the noise carries the state into
    # the well's coarse region only at a later step
    SdeConfig(r=2, beta=10.0, sigma=1.0, dt=0.05, h=QuadraticWell(), seed=1, horizon_t=5.0,
              drift="limit"),
])
def test_a_coarse_run_warns_once_and_names_its_first_coarse_step(cfg):
    with pytest.warns(UserWarning) as caught:
        records = run_sde(cfg, StepKernel.constant(cfg.r, 0.5))
    assert len(records) == cfg.steps + 1 == 101
    # step k moves by the drift at the state recorded at step k - 1
    first = next(rec.step + 1 for rec in records
                 if np.abs(cfg.drift_kernel(rec.x.values)).max() * cfg.dt > 0.1)
    assert len(caught) == 1
    assert f"at step {first} exceeds" in str(caught[0].message)


def test_config_validation():
    with pytest.raises(ValueError):
        SdeConfig(r=2, beta=1.0, sigma=1.0, dt=0.0, h=ZERO_H)
    with pytest.raises(ValueError):
        SdeConfig(r=2, beta=1.0, sigma=-1.0, dt=0.1, h=ZERO_H)
    with pytest.raises(ValueError):
        SdeConfig(r=2, beta=1.0, sigma=1.0, dt=0.1, h=ZERO_H, drift="midpoint")
    base = dict(r=2, beta=1.0, sigma=1.0, dt=0.1, h=ZERO_H)
    for name in ("beta", "sigma", "dt", "horizon_t"):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                SdeConfig(**{**base, name: value})
    with pytest.raises(ValueError, match="r must be at least 1"):
        SdeConfig(**{**base, "r": 0})
    assert SdeConfig(**base, horizon_t=0.25).steps == 3


def test_run_rejects_empty_replica_sets_and_record_strides():
    cfg = SdeConfig(r=2, beta=1.0, sigma=1.0, dt=0.1, h=ZERO_H)
    init = StepKernel.constant(2, 0.5)
    with pytest.raises(ValueError, match="replicas must be at least 1"):
        run_sde(cfg, init, replicas=0)
    with pytest.raises(ValueError, match="record_every must be at least 1"):
        run_sde(cfg, init, record_every=0)
    with pytest.raises(ValueError, match="init block count differs from config r"):
        run_sde(cfg, StepKernel.constant(3, 0.5))


@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_run_refuses_a_start_outside_the_unit_box(sigma):
    # a signed kernel may hold -0.5; the run would record it as a density and
    # book the jump onto the face as local time
    cfg = SdeConfig(r=2, beta=1.0, sigma=sigma, dt=0.1, h=TRIANGLE_EDGE, horizon_t=0.2)
    for bad in (-0.5, 1.0 + 1e-9):
        signed = StepKernel(np.array([[bad, 0.2], [0.2, 0.5]]), (-1.0, 2.0))
        with pytest.raises(ValueError, match=r"escape declared range \[0.0, 1.0\]"):
            run_sde(cfg, signed)
    # StepKernel's 1e-12 slack still lets a start on the face through
    edge = StepKernel(np.array([[-1e-13, 0.2], [0.2, 0.5]]), (-1.0, 1.0))
    assert len(run_sde(cfg, edge)) == 3


def test_a_replica_stack_needs_its_drift_and_its_stacked_noise():
    cfg = SdeConfig(r=3, beta=1.0, sigma=1.0, dt=0.01, h=TRIANGLE_EDGE)
    stack = SdeState(np.full((4, 3, 3), 0.5), np.zeros((4, 3, 3)), np.zeros((4, 3, 3)))
    drift, noise = np.zeros((3, 3)), one_draw(np.random.default_rng(1), 3)
    # a missing noise, or one noise for the whole stack, which would move
    # every replica alike
    for shared in (None, noise, noise[None]):
        shape = getattr(shared, "shape", None)
        message = f"sigma = 1.0 needs a noise of the state's shape (4, 3, 3), got {shape}"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            em_step(stack, cfg, drift, shared)
    stacked = _fill_symmetric_noise([np.random.default_rng(k) for k in range(4)],
                                    np.empty((4, 3, 3)))
    moved = em_step(stack, cfg, drift, stacked).x
    assert all(not np.array_equal(moved[0], x) for x in moved[1:])


@pytest.mark.filterwarnings("ignore:dt", "ignore:overflow")
def test_an_infinite_overshoot_names_its_local_time_norm():
    # the limit drift -beta grad = -1e308 is finite, but one step of dt = 10
    # overshoots the floor by inf, which the record's L0 norm names
    h = Hamiltonian(((1.0, edge_graph()),))
    cfg = SdeConfig(r=2, beta=1e308, sigma=0.0, dt=10.0, h=h, horizon_t=10.0, drift="limit")
    with pytest.raises(FloatingPointError,
                       match=r"^step 1: local-time norm L0_fro = inf is not finite$"):
        run_sde(cfg, StepKernel.constant(2, 0.5))


def _per_replica_run(cfg, init, replicas):
    """The replicas as separate states, each moved by its own em_step call with
    a draw from its own stream, all sharing the drift at their mean: (mean, |L0|, |L1|)
    at every step."""
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(replicas)]
    states = [SdeState.initial(init) for _ in range(replicas)]
    out = []
    for k in range(cfg.steps + 1):
        if k:
            drift = cfg.drift_kernel(mean.values)
            states = [em_step(s, cfg, drift, one_draw(g, cfg.r) if cfg.sigma else None)
                      for s, g in zip(states, streams)]
        mean = StepKernel(sum(s.x for s in states) / replicas)
        out.append((mean, float(np.linalg.norm(sum(s.l0 for s in states) / replicas)),
                    float(np.linalg.norm(sum(s.l1 for s in states) / replicas))))
    return out


@pytest.mark.filterwarnings("ignore:dt")
@settings(max_examples=40, deadline=None)
@given(
    replicas=st.integers(1, 4),
    r=st.integers(1, 3),
    steps=st.integers(1, 4),
    sigma=st.sampled_from([0.0, 0.5, 3.0]),
    drift=st.sampled_from(["closed_form", "limit"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_replica_stack_equals_a_per_replica_loop_bit_for_bit(replicas, r, steps, sigma, drift,
                                                             seed):
    cfg = SdeConfig(r=r, beta=1.5, sigma=sigma, dt=0.05, h=TRIANGLE_EDGE, seed=seed,
                    horizon_t=steps * 0.05, drift=drift)
    assert cfg.steps == steps
    init = random_kernel(np.random.default_rng(seed), r)
    records = run_sde(cfg, init, replicas=replicas)
    reference = _per_replica_run(cfg, init, replicas)
    assert len(records) == len(reference) == steps + 1
    for rec, (mean, l0, l1) in zip(records, reference):
        assert np.array_equal(rec.x.values, mean.values)
        assert (rec.l0_norm, rec.l1_norm) == (l0, l1)
        assert rec.energy == TRIANGLE_EDGE.evaluate(mean)


def test_a_block_of_draws_takes_what_its_single_draws_take():
    block = _fill_symmetric_noise([np.random.default_rng(k) for k in range(3)],
                                  np.empty((3, 7, 5, 5)))
    singles = [np.stack([one_draw(g, 5) for _ in range(7)])
               for g in (np.random.default_rng(k) for k in range(3))]
    assert block.tobytes() == np.stack(singles).tobytes()
    assert np.array_equal(block, block.swapaxes(-1, -2))


@pytest.mark.filterwarnings("ignore:dt")
# at r = 1, 7 replicas: from 8 on, the mean of (R, 1, 1) stacks is summed
# pairwise, not in the per-replica loop's order
@pytest.mark.parametrize("replicas, r, past", [(1, 16, 12), (3, 9, 0), (3, 9, 6), (7, 1, 5)])
def test_noise_blocks_join_bit_for_bit_across_their_boundaries(replicas, r, past, monkeypatch):
    # two full blocks of noise, then past steps of a third: each replica's
    # stream gives the draws the per-replica loop takes one step at a time
    block = sde._NOISE_BLOCK // (replicas * r * r)
    steps = 2 * block + past
    dt = 2.0**-6  # steps * dt is exact, so the horizon takes exactly steps
    cfg = SdeConfig(r=r, beta=1.5, sigma=1.0, dt=dt, h=TRIANGLE_EDGE, seed=11,
                    horizon_t=steps * dt, drift="limit")
    assert cfg.steps == steps
    drawn = []

    def fill(streams, out):
        drawn.append(out.shape[1])
        return _fill_symmetric_noise(streams, out)

    monkeypatch.setattr(sde, "_fill_symmetric_noise", fill)
    init = random_kernel(np.random.default_rng(replicas * r), r)
    records = run_sde(cfg, init, replicas=replicas)
    # no draw past the last step
    assert drawn == [block, block] + ([past] if past else [])
    reference = _per_replica_run(cfg, init, replicas)
    assert len(records) == len(reference) == steps + 1
    for rec, (mean, l0, l1) in zip(records, reference):
        assert np.array_equal(rec.x.values, mean.values)
        assert (rec.l0_norm, rec.l1_norm) == (l0, l1)
    assert records[-1].l0_norm > 0.0 and records[-1].l1_norm > 0.0  # the faces were hit


def _sde_records_sha256(records):
    h = hashlib.sha256()
    for rec in records:
        h.update(struct.pack("<qd", rec.step, rec.t))
        h.update(np.ascontiguousarray(rec.x.values).tobytes())
        h.update(struct.pack("<ddd", rec.energy, rec.l0_norm, rec.l1_norm))
    return h.hexdigest()


# taken before the replicas moved as one stack; closed_form re-recorded when the
# drift prefactor became erfcx
@pytest.mark.parametrize("drift, digest", [
    ("limit", "8b67d61602ed37ef9a965abc7e99abb0ca57d1fe04b08e008d60170e359bcbd0"),
    ("closed_form", "d102d0b09e8d36b34cefe469d5650959c1b1c647667d5888e0f094468a9fc1c4"),
])
def test_sixteen_replica_run_reproduces_its_recorded_bits(drift, digest):
    cfg = SdeConfig(r=4, beta=1.0, sigma=0.5, dt=0.004, h=TRIANGLE_EDGE, seed=3,
                    horizon_t=0.2, drift=drift)
    records = run_sde(cfg, StepKernel.constant(4, 0.5), replicas=16)
    assert len(records) == 51
    assert _sde_records_sha256(records) == digest


@pytest.mark.filterwarnings("error")  # the guard names the overflow; numpy does not warn first
def test_overflowing_drift_prefactor_names_its_step_and_quantity():
    # first the gradient is finite, but its squared entries overflow the norm,
    # and erfcx(inf) = 0 would make the drift a silent zero; then erfcx(x) =
    # 2 exp(x^2) tail(sqrt(2) x) itself overflows, as it does for x below -26.6
    for triangle, beta, norm in ((1e308, 1.0, "inf"), (1.0, -1e6, "0.5")):
        h = Hamiltonian(((triangle, triangle_graph()), (-0.25, edge_graph())))
        cfg = SdeConfig(r=4, beta=beta, sigma=0.0, dt=1e-3, h=h, horizon_t=0.01)
        with pytest.raises(FloatingPointError, match=rf"^step 1: non-finite drift prefactor "
                                                     rf"erfcx\(beta \|g\|_2 / r\) at beta = "
                                                     rf"{beta}, \|g\|_2 = {norm}, r = 4$"):
            run_sde(cfg, StepKernel.constant(4, 0.5))


# ---------------------------------------------------------------- trajectories


def test_zero_horizon_returns_only_the_start():
    cfg = SdeConfig(r=2, beta=1.0, sigma=1.0, dt=0.01, h=TRIANGLE_EDGE, horizon_t=0.0)
    recs = run_sde(cfg, StepKernel.constant(2, 0.5))
    assert len(recs) == 1
    assert recs[0].step == 0
    assert np.array_equal(recs[0].x.values, np.full((2, 2), 0.5))


def test_runs_are_reproducible_from_the_seed():
    cfg = SdeConfig(r=2, beta=1.0, sigma=1.0, dt=0.01, h=TRIANGLE_EDGE, horizon_t=0.2, seed=4)
    a = run_sde(cfg, StepKernel.constant(2, 0.5))
    b = run_sde(cfg, StepKernel.constant(2, 0.5))
    assert len(a) == len(b) == 21
    for x, y in zip(a, b):
        assert np.array_equal(x.x.values, y.x.values)
        assert (x.l0_norm, x.l1_norm) == (y.l0_norm, y.l1_norm)


def test_replica_mean_run_reports_growing_local_times():
    cfg = SdeConfig(r=3, beta=0.5, sigma=1.5, dt=0.01, h=TRIANGLE_EDGE, horizon_t=0.5, seed=6)
    recs = run_sde(cfg, StepKernel.constant(3, 0.1), replicas=8, record_every=10)
    assert [rec.step for rec in recs] == [0, 10, 20, 30, 40, 50]
    l0 = [rec.l0_norm for rec in recs]
    assert all(b >= a for a, b in zip(l0, l0[1:]))
    assert l0[-1] > 0.0  # sigma = 1.5 near 0 must touch the floor
    assert all(np.all(rec.x.values >= 0.0) and np.all(rec.x.values <= 1.0) for rec in recs)


def test_ensemble_mean_shrinks_toward_the_flow_as_noise_fades():
    r, beta, dt, horizon = 4, 1.0, 0.005, 0.25
    init = StepKernel.constant(r, 0.5)
    flow_by_step = {
        rec.step: rec.w for rec in run_flow(TRIANGLE_EDGE, beta, init, dt, horizon, record_every=10)
    }
    sups = []
    for sigma in (0.5, 0.125):
        recs = run_sde(
            SdeConfig(r=r, beta=beta, sigma=sigma, dt=dt, h=TRIANGLE_EDGE, seed=12, horizon_t=horizon),
            init,
            replicas=16,
            record_every=10,
        )
        sups.append(max(l2_distance(rec.x, flow_by_step[rec.step]) for rec in recs))
    assert sups[0] > sups[1]


@pytest.mark.filterwarnings("ignore:gamma_n")
def test_count_chain_density_tracks_the_diffusion_within_a_band():
    # matched scales: one chain step advances diffusion time by gamma/r^4,
    # so the integrator uses exactly that dt; both record on the same step
    # grid.  Band: four times the RMS-aggregated standard error of the two
    # ensemble means.
    n, r, beta, sigma, gamma = 16, 4, 0.5, 1.0, 1.0 / 64.0
    dt = gamma / r**4
    steps, grid = 819, 117
    chain_paths = []
    for seed in range(8):
        cfg = ChainConfig(
            n=n, r=r, beta=beta, sigma=sigma, gamma_n=gamma,
            h=TRIANGLE_EDGE, seed=seed, iterations=steps,
        )
        recs = run_chain(cfg, record_every=grid)
        assert [rec.step for rec in recs] == [0, 117, 234, 351, 468, 585, 702, 819]
        chain_paths.append(np.array([rec.density.values for rec in recs]))
    sde_paths = []
    for seed in range(16):
        cfg = SdeConfig(
            r=r, beta=beta, sigma=sigma, dt=dt, h=TRIANGLE_EDGE,
            seed=seed, horizon_t=steps * dt,
        )
        recs = run_sde(cfg, StepKernel.constant(r, 0.5), record_every=grid)
        assert [rec.step for rec in recs] == [0, 117, 234, 351, 468, 585, 702, 819]
        sde_paths.append(np.array([rec.x.values for rec in recs]))
    cp, sp = np.array(chain_paths), np.array(sde_paths)
    for k in range(1, cp.shape[1]):
        diff = cp[:, k].mean(axis=0) - sp[:, k].mean(axis=0)
        dist = math.sqrt(float((diff**2).mean()))
        se_sq = cp[:, k].var(axis=0, ddof=1) / cp.shape[0] + sp[:, k].var(
            axis=0, ddof=1
        ) / sp.shape[0]
        band = 4.0 * math.sqrt(float(se_sq.mean()))
        assert dist <= band

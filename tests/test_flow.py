"""Deterministic gradient flow: masking, stepping, and rate measurement."""

import math

import numpy as np
import pytest

from graphdyn import (
    Hamiltonian,
    StepKernel,
    edge_graph,
    kernel_from_values,
    l2_distance,
    triangle_graph,
)
from graphdyn.flow import BOUNDARY_TOL, active_mask, flow_step, measure_rates, run_flow
from hypothesis import given, settings, strategies as st
from oracles import fd_gradient

TRIANGLE_EDGE = Hamiltonian(((1.0, triangle_graph()), (-0.25, edge_graph())))
ZERO_H = Hamiltonian(((0.0, edge_graph()),))


class FixedGradient:
    """An energy whose gradient is the given array wherever it is taken."""

    def __init__(self, g):
        self.g = g

    def frechet_derivative(self, a):
        return self.g


class QuadraticWell:
    """H(w) = (1/2) mean((w - 1/2)^2), minimized at the constant one half."""

    def frechet_derivative(self, a):
        return a - 0.5

    def evaluate(self, w):
        return 0.5 * float(((w.values - 0.5) ** 2).mean())


def symmetric(rng, r, lo=0.1, hi=0.9):
    a = rng.uniform(lo, hi, (r, r))
    return kernel_from_values((a + a.T) / 2.0)


# ---------------------------------------------------------------- mask


def test_interior_entries_are_always_active():
    w = StepKernel.constant(3, 0.4)
    g = np.full((3, 3), -2.0)
    assert np.all(active_mask(w.values, g))


def test_boundary_entries_move_only_under_inward_pull():
    # velocity is -beta * g: the floor entry needs g < 0 to re-enter, the
    # ceiling entry needs g > 0; outward pushes are frozen
    w = StepKernel(np.array([[0.0, 1.0], [1.0, 0.5]]))
    inward = np.array([[-0.3, 0.4], [0.4, 0.2]])
    assert np.all(active_mask(w.values, inward))
    outward = np.array([[0.3, -0.4], [-0.4, 0.2]])
    expected = np.array([[False, False], [False, True]])
    assert np.array_equal(active_mask(w.values, outward), expected)


def test_boundary_tolerance_treats_near_boundary_as_boundary():
    w = StepKernel(np.array([[1e-13, 0.5], [0.5, 1.0 - 1e-13]]))
    g = np.array([[0.5, 0.0], [0.0, -0.5]])
    mask = active_mask(w.values, g)
    assert not mask[0, 0] and not mask[1, 1]


# ---------------------------------------------------------------- stepping


def test_zero_gradient_is_a_fixed_point():
    w = StepKernel.constant(3, 0.37)
    out = flow_step(w.values, ZERO_H, 1.0, 0.1)
    assert np.array_equal(out, w.values)
    assert run_flow(ZERO_H, 1.0, w, 0.1, 0.1)[-1].t == pytest.approx(0.1)


def test_step_from_one_half_moves_by_half_beta_dt():
    # constant-kernel derivative of the triangle-edge energy at p is
    # 3 p^2 - 1/4, which is 1/2 at p = 1/2
    out = flow_step(StepKernel.constant(3, 0.5).values, TRIANGLE_EDGE, 0.8, 0.01)
    assert np.allclose(out, 0.5 - 0.8 * 0.01 * 0.5, atol=1e-15)


def test_step_requires_positive_dt():
    with pytest.raises(ValueError):
        flow_step(StepKernel.constant(2, 0.5).values, ZERO_H, 1.0, 0.0)


@pytest.mark.parametrize("beta, dt, horizon, r, record_every, message", [
    (1.0, 0.0, 1.0, 2, 1, "dt must be positive and finite"),
    (1.0, math.inf, 1.0, 2, 1, "dt must be positive and finite"),
    (1.0, math.nan, 1.0, 2, 1, "dt must be positive and finite"),
    (1.0, 0.1, math.inf, 2, 1, "horizon must be finite"),
    (math.nan, 0.1, 1.0, 2, 1, "beta must be finite"),
    (1.0, 0.1, 1.0, 0, 1, "r must be at least 1"),
    (1.0, 0.1, 1.0, 2, 0, "record_every must be at least 1"),
])
def test_run_rejects_degenerate_parameters(beta, dt, horizon, r, record_every, message):
    with pytest.raises(ValueError, match=message):
        run_flow(ZERO_H, beta, StepKernel.constant(r, 0.5), dt, horizon,
                 record_every=record_every)


def test_run_refuses_a_start_outside_the_unit_box():
    # a signed kernel may hold -0.5, which step 0 would record as a density
    for bad in (-0.5, 1.0 + 1e-9):
        signed = StepKernel(np.array([[bad, 0.2], [0.2, 0.5]]), (-1.0, 2.0))
        with pytest.raises(ValueError, match=r"escape declared range \[0.0, 1.0\]"):
            run_flow(TRIANGLE_EDGE, 1.0, signed, 0.1, 0.2)
    # StepKernel's 1e-12 slack still lets a start on the face through
    edge = StepKernel(np.array([[-1e-13, 0.2], [0.2, 0.5]]), (-1.0, 1.0))
    assert len(run_flow(TRIANGLE_EDGE, 1.0, edge, 0.1, 0.2)) == 3


def test_overflowing_step_is_refused_with_its_step_and_quantity():
    # before, beta * dt = inf turned the frozen corners into inf * 0 = nan
    # and the step died as an asymmetric kernel (a ValueError)
    init = StepKernel(np.array([[0.0, 0.5], [0.5, 1.0]]))
    with pytest.raises(OverflowError, match=r"^step 1: flow step beta \* dt = 1e\+308 \* 10 "
                                            r"is not finite$"):
        run_flow(TRIANGLE_EDGE, 1e308, init, 10, 20)
    with pytest.raises(OverflowError, match="is not finite"):
        flow_step(init.values, TRIANGLE_EDGE, math.nan, 0.1)


def test_step_is_euclidean_gradient_descent_on_the_matrix_energy():
    # as a function of the r x r matrix, the energy's Euclidean gradient is
    # the kernel gradient divided by r^2, so descent with step beta dt r^2
    # reproduces flow_step; verified against central differences
    rng = np.random.default_rng(23)
    for r in (2, 3):
        x0 = symmetric(rng, r, 0.2, 0.8).values
        gfd = fd_gradient(
            lambda x: TRIANGLE_EDGE.evaluate(StepKernel(np.clip((x + x.T) / 2, 0.0, 1.0))),
            x0,
        )
        beta, dt = 0.7, 0.01
        euclid = x0 - (beta * dt * r**2) * gfd
        stepped = flow_step(StepKernel(x0).values, TRIANGLE_EDGE, beta, dt)
        assert np.abs(euclid - stepped).max() < 1e-11


def test_frozen_entries_keep_the_preclamp_iterate_inside_the_box():
    # with boundary entries present, active_mask names exactly the entries the
    # projection holds: masking them out keeps the Euler step inside the box
    # whenever interior entries sit further than dt*beta*|g| from the
    # boundary, and the projected step equals that masked iterate
    w = StepKernel(np.array([[0.0, 0.5, 1.0], [0.5, 0.4, 0.6], [1.0, 0.6, 1.0]]))
    g = TRIANGLE_EDGE.frechet_derivative(w.values)
    beta, dt = 1.0, 0.05
    assert dt * beta * np.abs(g).max() < 0.4
    pre = w.values - (beta * dt) * (g * active_mask(w.values, g))
    assert np.all(pre >= 0.0) and np.all(pre <= 1.0)
    out = flow_step(w.values, TRIANGLE_EDGE, beta, dt)
    assert np.array_equal(out, pre)


def _symmetric_matrix(entries, r):
    a = np.zeros((r, r))
    a[np.triu_indices(r)] = entries
    return np.triu(a) + np.triu(a, 1).T


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_step_is_the_euler_step_projected_onto_the_box(data):
    # faces pushed both ways: a face entry pushed outward is held by the
    # projection, as active_mask froze it; off the BOUNDARY_TOL bands the
    # projected step equals the old masked step bit for bit
    r = data.draw(st.integers(1, 4), label="r")
    m = r * (r + 1) // 2
    entry = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    w = _symmetric_matrix(data.draw(st.lists(entry, min_size=m, max_size=m), label="w"), r)
    slope = st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-10.0, 10.0)
    g = _symmetric_matrix(data.draw(st.lists(slope, min_size=m, max_size=m), label="g"), r)
    beta = data.draw(st.floats(0.0, 4.0), label="beta")
    dt = data.draw(st.floats(1e-6, 1.0), label="dt")
    out = flow_step(w, FixedGradient(g), beta, dt)
    assert np.array_equal(out, np.clip(w - (beta * dt) * g, 0.0, 1.0))
    held = ((w == 0.0) & (g >= 0.0)) | ((w == 1.0) & (g <= 0.0))
    assert np.array_equal(out[held], w[held])
    off_bands = (w == 0.0) | (w == 1.0) | ((w > BOUNDARY_TOL) & (w < 1.0 - BOUNDARY_TOL))
    masked = np.clip(w - (beta * dt) * (g * active_mask(w, g)), 0.0, 1.0)
    assert np.array_equal(out[off_bands], masked[off_bands])


def test_an_entry_within_the_boundary_band_pushed_outward_lands_on_the_face():
    # active_mask froze these two entries where they were; the projection
    # moves each onto its face
    w = StepKernel(np.array([[5e-13, 0.5], [0.5, 1.0 - 5e-13]])).values
    g = np.array([[1.0, 0.0], [0.0, -1.0]])
    assert not active_mask(w, g)[0, 0] and not active_mask(w, g)[1, 1]
    out = flow_step(w, FixedGradient(g), 1.0, 0.1)
    assert (out[0, 0], out[1, 1]) == (0.0, 1.0)
    assert out[0, 1] == out[1, 0] == 0.5


def test_a_flow_wraps_one_kernel_per_record(monkeypatch):
    trusted = StepKernel._trusted
    built = []
    monkeypatch.setattr(StepKernel, "_trusted",
                        classmethod(lambda cls, values: built.append(1) or trusted(values)))
    recs = run_flow(TRIANGLE_EDGE, 1.0, StepKernel.constant(3, 0.5), 0.01, 1.0, record_every=7)
    assert len(built) == len(recs) == 16


def test_floor_entry_with_inward_pull_reenters():
    # at w = 0 the triangle-edge gradient is -1/4, so the entry climbs
    w = StepKernel.constant(2, 0.0)
    out = flow_step(w.values, TRIANGLE_EDGE, 1.0, 0.1)
    assert np.allclose(out, 0.025, atol=1e-15)


def test_doubling_beta_and_halving_dt_reparametrizes_time_exactly():
    # (2 beta)(dt/2) multiplies out to the same float as beta*dt for
    # binary-exact choices, so the iterates agree bitwise and the time
    # labels halve
    rng = np.random.default_rng(31)
    init = symmetric(rng, 3)
    a = run_flow(TRIANGLE_EDGE, 0.5, init, 0.25, 2.0)
    b = run_flow(TRIANGLE_EDGE, 1.0, init, 0.125, 1.0)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x.w.values, y.w.values)
        assert y.t == x.t / 2


# ---------------------------------------------------------------- trajectories


def test_zero_horizon_returns_only_the_start():
    recs = run_flow(TRIANGLE_EDGE, 1.0, StepKernel.constant(2, 0.5), 0.1, 0.0)
    assert len(recs) == 1 and recs[0].step == 0


def test_energy_descends_monotonically_below_the_step_threshold():
    # smoothness constant 9 for the triangle-edge energy caps stable dt at
    # 2/(beta * 9); run well below it with the descent check armed
    recs = run_flow(
        TRIANGLE_EDGE, 1.0, StepKernel.constant(4, 0.5), 0.05, 3.0, check_descent=True
    )
    energies = [rec.energy for rec in recs]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


def test_descent_check_catches_an_oversized_step():
    with pytest.raises(RuntimeError, match="reduce dt"):
        run_flow(QuadraticWell(), 1.0, StepKernel.constant(2, 0.9), 2.5, 10.0, check_descent=True)


def test_records_follow_the_requested_stride():
    recs = run_flow(TRIANGLE_EDGE, 1.0, StepKernel.constant(2, 0.5), 0.1, 1.0, record_every=4)
    assert [rec.step for rec in recs] == [0, 4, 8, 10]


def test_observers_see_every_record():
    seen = []
    run_flow(
        TRIANGLE_EDGE, 1.0, StepKernel.constant(2, 0.5), 0.1, 0.5,
        observers=(lambda rec: seen.append(rec.step),),
        record_every=2,
    )
    assert seen == [0, 2, 4, 5]


# ---------------------------------------------------------------- rates


def test_quadratic_well_rate_matches_the_exact_exponential():
    # the linear ODE contracts at exp(-beta * t) per unit eigenvalue; the
    # discrete iteration realizes log(1 - beta dt)/dt, within half a percent
    # of -beta at dt = 0.01
    rng = np.random.default_rng(37)
    traj = run_flow(QuadraticWell(), 1.0, symmetric(rng, 3), 0.01, 4.0, record_every=5)
    rep = measure_rates(traj, w_star=StepKernel.constant(3, 0.5), beta=1.0)
    assert rep.slope == pytest.approx(-1.0, rel=0.02)
    assert rep.r_squared > 0.9999
    assert rep.envelope_ok


def test_entropy_regularized_flow_beats_the_guaranteed_rate():
    # entropy weight 5 makes the energy strongly convex with parameter at
    # least 1/2, so the fitted exponential rate is at most -beta/2
    h = Hamiltonian(
        ((1.0, triangle_graph()), (-0.25, edge_graph())), entropy_weight=5.0
    )
    traj = run_flow(h, 0.25, StepKernel.constant(3, 0.5), 0.01, 2.0, record_every=5)
    rep = measure_rates(traj, beta=0.25)
    assert rep.slope <= -0.25 * 0.5
    assert rep.envelope_ok


def test_energy_gap_obeys_the_sublinear_envelope():
    traj = run_flow(TRIANGLE_EDGE, 1.0, StepKernel.constant(4, 0.5), 0.02, 3.0, record_every=5)
    rep = measure_rates(traj, beta=1.0)
    assert rep.envelope_ok
    assert rep.envelope_margin >= 0.0


def test_rate_fit_window_is_the_trajectory_tail():
    rng = np.random.default_rng(41)
    traj = run_flow(QuadraticWell(), 1.0, symmetric(rng, 2), 0.01, 4.0, record_every=10)
    rep = measure_rates(traj, w_star=StepKernel.constant(2, 0.5), beta=1.0)
    assert rep.fit_t0 >= traj[-1].t / 2 - 0.011
    assert rep.fit_t1 == pytest.approx(traj[-1].t)


def test_rates_need_a_record():
    # before, an empty trajectory raised an IndexError
    with pytest.raises(ValueError, match="measure_rates needs a trajectory of at least one record"):
        measure_rates([])

"""Package acceptance gate: one end-to-end check per release criterion.

Every test prints a single line with the measured quantity next to the
threshold it is held to, so the whole gate can be audited from the pytest
output.  Thresholds are contractual and fixed in advance; seeds are frozen
draws, not searched-for runs.
"""

import math

import numpy as np
import pytest

from graphdyn import (
    Hamiltonian,
    StepKernel,
    edge_graph,
    hom_density,
    kernel_from_values,
    triangle_graph,
)
from graphdyn.cli import main
from graphdyn.flow import measure_rates, run_flow
from graphdyn.metropolis import ChainConfig, empirical_drift, empirical_qv
from graphdyn.mvg import (
    DiscreteMeasure,
    MvgKernel,
    build_net,
    delta2_mvg_upper,
    delta_black,
    gen_cut_norm,
    mvg_diff,
    sample_weighted_graph,
    wass_cut,
)
from graphdyn.sde import (
    SdeConfig,
    drift_b,
    explicit_drift_formula,
    run_sde,
    skorokhod_1d,
)
from graphdyn.stepkernel import cut_metric_upper, cut_norm, l2_norm
from oracles import explicit_drift_mc, fd_gradient

TRI_EDGE = Hamiltonian(((1.0, triangle_graph()), (-0.25, edge_graph())))
ZERO_H = Hamiltonian(((0.0, edge_graph()),))


class LinearTilt:
    """Energy mean(c * w); its gradient kernel is the constant c."""

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)

    def evaluate(self, w):
        return float((self.c * w.values).mean())

    def frechet_derivative(self, a):
        return self.c


class QuadraticWell:
    """H(w) = (1/2) mean((w - 1/2)^2), minimized at the constant one half."""

    def frechet_derivative(self, a):
        return a - 0.5

    def evaluate(self, w):
        return 0.5 * float(((w.values - 0.5) ** 2).mean())


def random_measure(rng, max_atoms=3):
    k = int(rng.integers(1, max_atoms + 1))
    atoms = np.sort(rng.uniform(-1, 1, k))
    return DiscreteMeasure(atoms, rng.dirichlet(np.ones(k)))


def random_mvg(rng, r):
    upper = {(i, j): random_measure(rng) for i in range(r) for j in range(i, r)}
    return MvgKernel.from_upper(r, upper)


def test_01_closed_form_drift_matches_monte_carlo():
    rng = np.random.default_rng(1)
    worst = 0.0
    for i in range(5):
        v = rng.uniform(-1, 1, (3, 3))
        v = (v + v.T) / 2
        for j, t in enumerate((0.1, 0.2, 0.5)):
            mean, se = explicit_drift_mc(v, t, 10**6, seed=101 + 3 * i + j)
            z = float((np.abs(mean - explicit_drift_formula(v, t)) / se).max())
            worst = max(worst, z)
    print(f"acceptance 01: worst |gap|/SE = {worst:.2f} over 15 cases (threshold 4)")
    assert worst <= 4.0


def test_02_boundary_reflection_is_four_lipschitz():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        base = np.concatenate([[0.0], rng.standard_normal(199) * 0.15])
        bump = np.concatenate([[0.0], rng.standard_normal(199) * 0.04])
        p1 = 0.4 + np.cumsum(base)
        p2 = 0.4 + np.cumsum(base + bump)
        x1, _, _ = skorokhod_1d(p1, 0.0, 1.0)
        x2, _, _ = skorokhod_1d(p2, 0.0, 1.0)
        denom = float(np.abs(p1 - p2).max())
        if denom > 1e-12:
            worst = max(worst, float(np.abs(x1 - x2).max()) / denom)
    print(f"acceptance 02: worst sup-norm ratio = {worst:.3f} over 1000 pairs (threshold 4)")
    assert worst <= 4.0 + 1e-12


def test_03_cut_norm_heuristic_matches_the_exhaustive_optimum():
    rng = np.random.default_rng(3)
    equal = 0
    for _ in range(50):
        r = int(rng.integers(2, 11))
        a = rng.uniform(-1, 1, (r, r))
        a = (a + a.T) / 2
        exact = cut_norm(a, method="exhaustive")
        heur = cut_norm(a, method="heuristic", restarts=64)
        assert heur <= exact + 1e-12  # the ascent can never overshoot
        equal += int(abs(heur - exact) <= 1e-12)
    print(f"acceptance 03: heuristic equals exhaustive on {equal}/50 kernels (threshold 48)")
    assert equal >= 48


def test_04_bernoulli_dirac_bracket_contains_the_analytic_half():
    net = build_net(0.25, segments=8)
    coin = MvgKernel.bernoulli_embedding(StepKernel.constant(1, 0.5))
    point = MvgKernel.dirac_embedding(StepKernel.constant(1, 0.5))
    lower, eps = gen_cut_norm(mvg_diff(coin, point), None, net)
    print(
        f"acceptance 04: bracket [{lower:.6f}, {lower + eps:.6f}] with a "
        f"{len(net)}-function net (analytic value 0.5)"
    )
    assert eps == 0.25
    assert 0.25 <= lower <= 0.5
    assert lower + eps >= 0.5
    # the exact optimizer lies on the net grid, so the bound is tight
    assert lower == pytest.approx(0.5, abs=1e-12)


def test_05_metric_relations_hold_on_random_pairs():
    rng = np.random.default_rng(5)
    net = build_net(2.0)
    assert len(net) == 81
    for _ in range(50):
        r = int(rng.integers(2, 7))
        a, b = random_mvg(rng, r), random_mvg(rng, r)
        lower, eps = delta_black(a, b, net)
        d2u = delta2_mvg_upper(a, b)
        w_lower, _ = wass_cut(a, b, net)
        proj = cut_metric_upper(a.project(), b.project())
        assert lower <= d2u + 1e-9            # alignment metric below the L2 one
        assert proj <= lower + eps + 1e-9     # projection is 1-Lipschitz
        assert abs(lower - w_lower) <= 2 * eps + 1e-9
    print("acceptance 05: all three metric relations held on 50 random pairs (eps 0.5)")


def test_06_gradient_identity_with_block_scaling():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        r = int(rng.integers(2, 6))
        vals = rng.uniform(0.1, 0.9, (r, r))
        w = StepKernel((vals + vals.T) / 2)
        g = TRI_EDGE.frechet_derivative(w.values)

        def f(x):
            return TRI_EDGE.evaluate(StepKernel((x + x.T) / 2, (-10.0, 10.0)))

        grad = fd_gradient(f, w.values)
        worst = max(worst, float(np.abs(r**2 * grad - g).max()))
    print(f"acceptance 06: worst |r^2 FD - gradient| = {worst:.2e} over 20 kernels (threshold 1e-6)")
    assert worst < 1e-6


def test_07_chain_drift_matches_the_closed_form():
    rng = np.random.default_rng(2024)
    c = rng.uniform(-0.6, 0.6, (4, 4))
    stub = LinearTilt((c + c.T) / 2)
    ref = drift_b(stub, np.full((4, 4), 0.5), 0.5)

    cfg = ChainConfig(n=32, r=4, beta=0.5, sigma=0.0, gamma_n=1 / 32, h=stub, seed=11)
    mean, se = empirical_drift(cfg, np.full((4, 4), 0.5), 20_000)
    z_stub = float((np.abs(mean - ref) / se).max())

    cfg0 = ChainConfig(n=32, r=4, beta=0.5, sigma=0.0, gamma_n=1 / 32, h=ZERO_H, seed=12)
    mean0, se0 = empirical_drift(cfg0, np.full((4, 4), 0.5), 20_000)
    z_ctrl = float((np.abs(mean0) / se0).max())

    print(f"acceptance 07: max |z| = {z_stub:.2f} (stub), {z_ctrl:.2f} (flat control); threshold 3")
    assert z_stub <= 3.0
    assert z_ctrl <= 3.0


def test_08_chain_quadratic_variation_matches_the_noise_level():
    vals = []
    for seed in range(16):
        cfg = ChainConfig(n=32, r=2, beta=0.0, sigma=1.0, gamma_n=1 / 2048,
                          h=ZERO_H, seed=seed)
        vals.append(empirical_qv(cfg, 0.05)[0, 1])
    mean = float(np.mean(vals))
    print(f"acceptance 08: realized QV = {mean:.5f} over 16 runs vs 0.05 (tolerance 10%)")
    assert mean == pytest.approx(0.05, rel=0.10)


def test_09_flow_rates_match_the_guarantees():
    rng = np.random.default_rng(37)
    vals = rng.uniform(0.1, 0.9, (3, 3))
    init = kernel_from_values((vals + vals.T) / 2)
    traj = run_flow(QuadraticWell(), 1.0, init, 0.01, 4.0, record_every=5)
    quad = measure_rates(traj, w_star=StepKernel.constant(3, 0.5), beta=1.0)

    h_ent = Hamiltonian(((1.0, triangle_graph()), (-0.25, edge_graph())),
                        entropy_weight=5.0)
    traj = run_flow(h_ent, 0.25, StepKernel.constant(3, 0.5), 0.01, 2.0, record_every=5)
    ent = measure_rates(traj, beta=0.25)

    print(
        f"acceptance 09: quadratic rate {quad.slope:.4f} (target -1 within 2%), "
        f"entropy rate {ent.slope:.2f} (threshold -0.125)"
    )
    assert quad.slope == pytest.approx(-1.0, rel=0.02)
    assert quad.r_squared > 0.9999 and quad.envelope_ok
    assert ent.slope <= -0.25 * 0.5
    assert ent.envelope_ok


@pytest.mark.filterwarnings("ignore:gamma_n")
def test_10_reference_chain_run_reaches_the_bipartite_structure(tmp_path, capsys):
    assert main(["metropolis", "--preset", "mantel", "--out", str(tmp_path)]) == 0
    names = sorted(p.name for p in tmp_path.glob("*.pgm"))
    assert names == [f"q_{s}.pgm" for s in (0, 100000, 20000, 350, 370000, 930)]

    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    header = lines[0].split(",")
    last = lines[-1].split(",")
    assert last[0] == "370000"
    vals = np.zeros((16, 16))
    col = 5
    for i in range(16):
        for j in range(i, 16):
            vals[i, j] = vals[j, i] = float(last[col])
            col += 1
    assert header[5] == "q_0_0" and col == len(header)
    q = StepKernel(vals)

    edge = hom_density(edge_graph(), q)
    tri = hom_density(triangle_graph(), q)
    bip = np.zeros((16, 16))
    bip[:8, 8:] = 1.0
    bip[8:, :8] = 1.0
    dist = cut_metric_upper(q, StepKernel(bip))
    with capsys.disabled():
        print(
            f"\nacceptance 10: edge {edge:.3f} (within 0.1 of 0.5), "
            f"triangle {tri:.3f} (threshold 0.02), "
            f"bipartite distance {dist:.3f} (threshold 0.15)"
        )
    assert abs(edge - 0.5) < 0.1
    assert dist <= 0.15

    # Known failure, kept as the executable record of the gap: the chain
    # drifts toward the two-block structure (cut distance ~0.12, edge ~0.45
    # at the endpoint above), but with an acceptance exponent beta_nr * dH
    # of order 1e-2 per proposal the blocks never sharpen to near-0/1
    # values, so the triangle density bottoms out near 0.09 instead of
    # falling below the threshold.
    assert tri < 0.02


def test_11_small_noise_runs_approach_the_flow():
    half = StepKernel.constant(4, 0.5)
    flow = run_flow(TRI_EDGE, 1.0, half, 0.004, 1.0, record_every=1)
    sups = []
    for sigma in (0.5, 0.25, 0.125):
        cfg = SdeConfig(r=4, beta=1.0, sigma=sigma, dt=0.004, h=TRI_EDGE,
                        seed=77, horizon_t=1.0, drift="limit")
        recs = run_sde(cfg, half, replicas=64, record_every=1)
        assert len(recs) == len(flow)
        sups.append(max(l2_norm(rec.x.values - fr.w.values)
                        for rec, fr in zip(recs, flow)))
    print(
        "acceptance 11: sup-time l2 distances "
        + ", ".join(f"{s:.5f}" for s in sups)
        + " at sigma 0.5, 0.25, 0.125 (must decrease strictly)"
    )
    assert sups[0] > sups[1] > sups[2]


def test_12_sampling_variance_shrinks_quadratically():
    w = MvgKernel.from_upper(1, {(0, 0): DiscreteMeasure.bernoulli(0.5)})
    edge = edge_graph()
    seqs = np.random.SeedSequence(7).spawn(400)
    var = {}
    for n, chunk in ((50, seqs[:200]), (100, seqs[200:])):
        ts = [
            hom_density(edge, sample_weighted_graph(w, n, np.random.default_rng(s)))
            for s in chunk
        ]
        var[n] = float(np.var(ts, ddof=1))
    ratio = var[50] / var[100]
    print(f"acceptance 12: edge-density variance ratio n=50/n=100 = {ratio:.2f} (threshold 3)")
    assert ratio >= 3.0

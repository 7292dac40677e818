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
from graphdyn.flow import FlowState, active_mask, flow_step, measure_rates, run_flow
from oracles import fd_gradient

TRIANGLE_EDGE = Hamiltonian(((1.0, triangle_graph()), (-0.25, edge_graph())))
ZERO_H = Hamiltonian(((0.0, edge_graph()),))


class QuadraticWell:
    """H(w) = (1/2) mean((w - 1/2)^2), minimized at the constant one half."""

    def frechet_derivative(self, w):
        return kernel_from_values(w.values - 0.5)

    def evaluate(self, w):
        return 0.5 * float(((w.values - 0.5) ** 2).mean())


def symmetric(rng, r, lo=0.1, hi=0.9):
    a = rng.uniform(lo, hi, (r, r))
    return kernel_from_values((a + a.T) / 2.0)


# ---------------------------------------------------------------- mask


def test_interior_entries_are_always_active():
    w = StepKernel.constant(3, 0.4)
    g = kernel_from_values(np.full((3, 3), -2.0))
    assert np.all(active_mask(w, g))


def test_boundary_entries_move_only_under_inward_pull():
    # velocity is -beta * g: the floor entry needs g < 0 to re-enter, the
    # ceiling entry needs g > 0; outward pushes are frozen
    w = StepKernel(np.array([[0.0, 1.0], [1.0, 0.5]]))
    inward = kernel_from_values(np.array([[-0.3, 0.4], [0.4, 0.2]]))
    assert np.all(active_mask(w, inward))
    outward = kernel_from_values(np.array([[0.3, -0.4], [-0.4, 0.2]]))
    expected = np.array([[False, False], [False, True]])
    assert np.array_equal(active_mask(w, outward), expected)


def test_boundary_tolerance_treats_near_boundary_as_boundary():
    w = StepKernel(np.array([[1e-13, 0.5], [0.5, 1.0 - 1e-13]]))
    g = kernel_from_values(np.array([[0.5, 0.0], [0.0, -0.5]]))
    mask = active_mask(w, g)
    assert not mask[0, 0] and not mask[1, 1]


# ---------------------------------------------------------------- stepping


def test_zero_gradient_is_a_fixed_point():
    state = FlowState(StepKernel.constant(3, 0.37))
    out = flow_step(state, ZERO_H, 1.0, 0.1)
    assert np.array_equal(out.w.values, state.w.values)
    assert out.t == pytest.approx(0.1)


def test_step_from_one_half_moves_by_half_beta_dt():
    # constant-kernel derivative of the triangle-edge energy at p is
    # 3 p^2 - 1/4, which is 1/2 at p = 1/2
    out = flow_step(FlowState(StepKernel.constant(3, 0.5)), TRIANGLE_EDGE, 0.8, 0.01)
    assert np.allclose(out.w.values, 0.5 - 0.8 * 0.01 * 0.5, atol=1e-15)


def test_step_requires_positive_dt():
    with pytest.raises(ValueError):
        flow_step(FlowState(StepKernel.constant(2, 0.5)), ZERO_H, 1.0, 0.0)


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


def test_overflowing_step_is_refused_with_its_step_and_quantity():
    # before, beta * dt = inf turned the frozen corners into inf * 0 = nan
    # and the step died as an asymmetric kernel (a ValueError)
    init = StepKernel(np.array([[0.0, 0.5], [0.5, 1.0]]))
    with pytest.raises(OverflowError, match=r"^step 1: flow step beta \* dt = 1e\+308 \* 10 "
                                            r"is not finite$"):
        run_flow(TRIANGLE_EDGE, 1e308, init, 10, 20)
    with pytest.raises(OverflowError, match="is not finite"):
        flow_step(FlowState(init), TRIANGLE_EDGE, math.nan, 0.1)


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
        stepped = flow_step(FlowState(StepKernel(x0)), TRIANGLE_EDGE, beta, dt).w.values
        assert np.abs(euclid - stepped).max() < 1e-11


def test_frozen_entries_keep_the_preclamp_iterate_inside_the_box():
    # with boundary entries present, the mask alone must prevent first-order
    # exit whenever interior entries sit further than dt*beta*|g| from the
    # boundary; the clamp is then a no-op
    w = StepKernel(np.array([[0.0, 0.5, 1.0], [0.5, 0.4, 0.6], [1.0, 0.6, 1.0]]))
    g = TRIANGLE_EDGE.frechet_derivative(w)
    beta, dt = 1.0, 0.05
    assert dt * beta * np.abs(g.values).max() < 0.4
    pre = w.values - (beta * dt) * (g.values * active_mask(w, g))
    assert np.all(pre >= 0.0) and np.all(pre <= 1.0)
    out = flow_step(FlowState(w), TRIANGLE_EDGE, beta, dt)
    assert np.array_equal(out.w.values, pre)


def test_floor_entry_with_inward_pull_reenters():
    # at w = 0 the triangle-edge gradient is -1/4, so the entry climbs
    w = StepKernel.constant(2, 0.0)
    out = flow_step(FlowState(w), TRIANGLE_EDGE, 1.0, 0.1)
    assert np.allclose(out.w.values, 0.025, atol=1e-15)


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

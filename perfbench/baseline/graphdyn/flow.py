"""Deterministic gradient flow on kernels with boundary handling.

The noiseless curve: each entry follows minus beta times the energy gradient,
frozen on boundary entries whose velocity points out of [0, 1].  A small rate
report fits the exponential approach to the minimizer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stepkernel import StepKernel, l2_distance

BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class FlowState:
    w: StepKernel
    t: float = 0.0


def active_mask(w: StepKernel, g: StepKernel) -> np.ndarray:
    """Entries allowed to move: interior ones, and boundary ones pulled inward.

    The velocity of an entry is -beta * g, so an entry at the floor moves
    only when g < 0 and an entry at the ceiling only when g > 0; everything
    else on the boundary is frozen, which is what keeps the curve in [0, 1]
    without relying on the clamp.
    """
    wv, gv = w.values, g.values
    at_zero = wv <= BOUNDARY_TOL
    at_one = wv >= 1.0 - BOUNDARY_TOL
    interior = ~at_zero & ~at_one
    return interior | (at_zero & (gv < 0)) | (at_one & (gv > 0))


def flow_step(state: FlowState, h, beta: float, dt: float) -> FlowState:
    """Forward Euler on the masked gradient, clamped to [0, 1] as a guard."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    g = h.frechet_derivative(state.w)
    mask = active_mask(state.w, g)
    new = state.w.values - (beta * dt) * (g.values * mask)
    return FlowState(StepKernel(np.clip(new, 0.0, 1.0)), state.t + dt)


@dataclass(frozen=True)
class FlowRecord:
    step: int
    t: float
    w: StepKernel
    energy: float


def run_flow(
    h,
    beta: float,
    init: StepKernel,
    dt: float,
    horizon: float,
    observers=(),
    record_every: int = 1,
    check_descent: bool = False,
) -> list[FlowRecord]:
    """Iterate flow_step to the horizon, recording every record_every-th state.

    With check_descent the run aborts on any energy increase, which for the
    density Hamiltonians indicates dt above the 2/(beta L) threshold.
    """
    steps = math.ceil(horizon / dt - 1e-12)
    state = FlowState(init, 0.0)
    records = [FlowRecord(0, 0.0, init, h.evaluate(init))]
    for obs in observers:
        obs(records[0])
    last_energy = records[0].energy
    for k in range(1, steps + 1):
        state = flow_step(state, h, beta, dt)
        energy = h.evaluate(state.w)
        if not np.isfinite(state.w.values).all():
            raise FloatingPointError(f"non-finite state at step {k}")
        if check_descent and energy > last_energy + 1e-12:
            raise RuntimeError(
                f"energy increased at step {k}: {last_energy} -> {energy}; "
                "reduce dt below 2/(beta L)"
            )
        last_energy = energy
        if k % record_every == 0 or k == steps:
            rec = FlowRecord(k, state.t, state.w, energy)
            records.append(rec)
            for obs in observers:
                obs(rec)
    return records


@dataclass(frozen=True)
class RateReport:
    fit_t0: float
    fit_t1: float
    slope: float
    intercept: float
    r_squared: float
    envelope_ok: bool
    envelope_margin: float


def measure_rates(
    trajectory: list[FlowRecord],
    w_star: StepKernel | None = None,
    beta: float = 1.0,
    dist_floor: float = 1e-13,
) -> RateReport:
    """Fit log distance-to-minimizer against time over the trajectory tail.

    w_star defaults to the terminal iterate (an estimate; exact-rate checks
    should pass the true minimizer).  Also reports whether the energy gap
    obeys the sublinear envelope dist(0)^2 / (2 beta t) at every sampled time.
    """
    if w_star is None:
        w_star = trajectory[-1].w
    times = np.array([rec.t for rec in trajectory])
    dists = np.array([l2_distance(rec.w, w_star) for rec in trajectory])
    h_star = min(rec.energy for rec in trajectory)
    # envelope: checked from the energy side at every positive sampled time
    margin = math.inf
    ok = True
    d0_sq = dists[0] ** 2
    for rec in trajectory[1:]:
        if rec.t <= 0:
            continue
        bound = d0_sq / (2.0 * beta * rec.t)
        gap = rec.energy - h_star
        margin = min(margin, bound - gap)
        if gap > bound + 1e-12:
            ok = False
    # slope fit over the final half, excluding numerically dead distances
    half = times >= times[-1] / 2.0
    usable = half & (dists > dist_floor)
    if usable.sum() < 2:
        usable = dists > dist_floor
    if usable.sum() < 2:
        # flat trajectory: nothing to fit
        return RateReport(float(times[0]), float(times[-1]), 0.0, 0.0, 1.0, ok, float(margin))
    t_fit = times[usable]
    y_fit = np.log(dists[usable])
    slope, intercept = np.polyfit(t_fit, y_fit, 1)
    resid = y_fit - (slope * t_fit + intercept)
    total = y_fit - y_fit.mean()
    r2 = 1.0 - float(resid @ resid) / float(total @ total) if total.any() else 1.0
    return RateReport(
        float(t_fit[0]), float(t_fit[-1]), float(slope), float(intercept),
        float(r2), ok, float(margin),
    )

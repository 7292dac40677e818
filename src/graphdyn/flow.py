"""Deterministic gradient flow on kernels with boundary handling.

The noiseless curve: each entry follows minus beta times the energy gradient,
frozen on boundary entries whose velocity points out of [0, 1].  A small rate
report fits the exponential approach to the minimizer.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._drive import drive, horizon_steps
from .stepkernel import StepKernel, l2_distance

BOUNDARY_TOL = 1e-12
# measure_rates fits log distances to the minimizer only above this floor
DIST_FLOOR = 1e-13


@dataclass(frozen=True)
class FlowState:
    w: StepKernel
    t: float = 0.0


def active_mask(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Entries allowed to move: interior ones, and boundary ones pulled inward.

    The velocity of an entry is -beta * g, so an entry at the floor moves
    only when g < 0 and an entry at the ceiling only when g > 0; everything
    else on the boundary is frozen, which is what keeps the curve in [0, 1]
    without relying on the clamp.
    """
    at_zero = w <= BOUNDARY_TOL
    at_one = w >= 1.0 - BOUNDARY_TOL
    interior = ~at_zero & ~at_one
    return interior | (at_zero & (g < 0)) | (at_one & (g > 0))


def flow_step(state: FlowState, h, beta: float, dt: float) -> FlowState:
    """Forward Euler on the masked gradient, clamped to [0, 1] as a guard.

    An overflowing beta * dt is refused: it would turn every frozen entry
    into inf * 0 = nan.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    rate = beta * dt
    if not math.isfinite(rate):
        raise OverflowError(f"flow step beta * dt = {beta} * {dt} is not finite")
    w = state.w.values
    g = h.frechet_derivative(w)
    new = w - rate * (g * active_mask(w, g))
    # symmetric by construction: w, g and with them the mask are symmetric
    return FlowState(StepKernel._trusted(np.clip(new, 0.0, 1.0)), state.t + dt)


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
    """Iterate flow_step to the horizon, recording on drive's schedule.

    With check_descent the run aborts on any energy increase, which for the
    density Hamiltonians indicates dt above the 2/(beta L) threshold.  A
    numeric guard tripped inside a step names the step.
    """
    steps = horizon_steps(dt, horizon)
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    if init.r < 1:
        raise ValueError(f"r must be at least 1, got {init.r}")

    def states():
        state = FlowState(init, 0.0)
        energy = h.evaluate(init) if check_descent else None  # tracked only to check descent
        for j in itertools.count(1):
            yield state, energy
            state = flow_step(state, h, beta, dt)
            if check_descent:
                last_energy, energy = energy, h.evaluate(state.w)
                if energy > last_energy + 1e-12:
                    raise RuntimeError(f"energy increased at step {j}: {last_energy} -> "
                                       f"{energy}; reduce dt below 2/(beta L)")

    def record(k: int, run) -> FlowRecord:
        state, energy = run
        return FlowRecord(k, state.t, state.w, energy if check_descent else h.evaluate(state.w))

    return drive(steps, states(), record, observers, record_every)


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
    usable = half & (dists > DIST_FLOOR)
    if usable.sum() < 2:
        usable = dists > DIST_FLOOR
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

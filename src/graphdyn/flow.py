"""Deterministic gradient flow on kernels with boundary handling.

The noiseless curve: each entry follows minus beta times the energy gradient,
projected onto [0, 1], which holds a face entry whose velocity points out of
the box.  A small rate report fits the exponential approach to the minimizer.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._drive import drive, horizon_steps
from .stepkernel import StepKernel, _clip, l2_distance

BOUNDARY_TOL = 1e-12
# measure_rates fits log distances to the minimizer only above this floor
DIST_FLOOR = 1e-13


def active_mask(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Entries allowed to move: interior ones, and boundary ones pulled inward.

    The velocity of an entry is -beta * g, so an entry at the floor moves
    only when g < 0 and an entry at the ceiling only when g > 0; everything
    else on the boundary is frozen.  flow_step's projection holds exactly the
    frozen entries on the faces; an entry within BOUNDARY_TOL of a face that is
    pushed outward moves onto the face.
    """
    at_zero = w <= BOUNDARY_TOL
    at_one = w >= 1.0 - BOUNDARY_TOL
    interior = ~at_zero & ~at_one
    return interior | (at_zero & (g < 0)) | (at_one & (g > 0))


def flow_step(w: np.ndarray, h, beta: float, dt: float) -> np.ndarray:
    """One projected Euler step of the (r, r) values w: the Euler step of
    -beta times the gradient, clipped onto [0, 1], as em_step's noiseless step.

    A beta * dt that is not finite is refused: it would turn every entry of
    zero gradient into inf * 0 = nan.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    rate = beta * dt
    if not math.isfinite(rate):
        raise OverflowError(f"flow step beta * dt = {beta} * {dt} is not finite")
    # symmetric by construction: w and its gradient are symmetric
    y = w - rate * h.frechet_derivative(w)
    return _clip(y, 0.0, 1.0, out=y)


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
    init = StepKernel(init.values)  # a start outside [0, 1] is refused

    def states():
        w, t = init.values, 0.0
        energy = h.evaluate(init) if check_descent else None  # tracked only to check descent
        for j in itertools.count(1):
            yield w, t, energy
            w, t = flow_step(w, h, beta, dt), t + dt
            if check_descent:
                last_energy, energy = energy, h.evaluate(StepKernel._trusted(w))
                if energy > last_energy + 1e-12:
                    raise RuntimeError(f"energy increased at step {j}: {last_energy} -> "
                                       f"{energy}; reduce dt below 2/(beta L)")

    def record(k: int, run) -> FlowRecord:
        w, t, energy = run
        kernel = StepKernel._trusted(w)
        return FlowRecord(k, t, kernel, energy if check_descent else h.evaluate(kernel))

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
    if not trajectory:
        raise ValueError("measure_rates needs a trajectory of at least one record")
    if w_star is None:
        w_star = trajectory[-1].w
    times = np.array([rec.t for rec in trajectory])
    energies = np.array([rec.energy for rec in trajectory])
    dists = np.array([l2_distance(rec.w, w_star) for rec in trajectory])
    # envelope: checked from the energy side at every positive sampled time
    later = times[1:] > 0
    t, gap = times[1:][later], energies[1:][later] - energies.min()
    # at beta = 0 the bound is +inf, and 0 / 0 would warn and give nan
    bound = dists[0] ** 2 / (2.0 * beta * t) if beta else np.full(t.shape, math.inf)
    margin = np.min(bound - gap, initial=math.inf)
    ok = not np.any(gap > bound + 1e-12)
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

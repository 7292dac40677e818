"""The record loop shared by the chain, the diffusion and the flow."""
from __future__ import annotations

import math


def horizon_steps(dt: float, horizon: float) -> int:
    """Steps of size dt to reach the horizon; a horizon at or below 0 takes none."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite, got {horizon}")
    return max(0, math.ceil(horizon / dt - 1e-12))


def at_step(j: int, exc: Exception) -> Exception:
    """exc again, of its type, with "step j: " before its message."""
    return type(exc)(f"step {j}: {exc}")


def stepper(step):
    """advance(k) for drive from step(j), which moves a run from step j - 1 to j:
    it calls step(j) for each j up to k not yet taken.  An OverflowError or
    FloatingPointError raised inside step(j) is raised again through at_step."""
    done = 0

    def advance(k: int) -> None:
        nonlocal done
        for j in range(done + 1, k + 1):
            try:
                step(j)
            except (OverflowError, FloatingPointError) as exc:
                raise at_step(j, exc) from exc
        done = k

    return advance


def record_steps(steps: int, record_every: int = 1, milestones=()) -> list[int]:
    """Step 0, every record_every-th step, each milestone in [0, steps] and the
    last step, once each and sorted."""
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every}")
    marks = {0, steps, *range(0, steps + 1, record_every)}
    marks.update(m for m in milestones if 0 <= m <= steps)
    return sorted(marks)


def drive(steps: int, advance, record, observers=(), record_every: int = 1, milestones=()):
    """Record each of record_steps' steps in order; return the records.

    advance(k) moves the run to step k and record(k) builds the record of the
    state there.  A record whose energy is not finite raises FloatingPointError;
    every other one is kept and passed to each observer.
    """
    records = []
    for k in record_steps(steps, record_every, milestones):
        if k:
            advance(k)
        rec = record(k)
        if not math.isfinite(rec.energy):
            raise FloatingPointError(f"non-finite energy at step {k}")
        records.append(rec)
        for obs in observers:
            obs(rec)
    return records

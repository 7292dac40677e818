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


def drive(steps: int, states, record, observers=(), record_every: int = 1, milestones=()):
    """Record step 0, every record_every-th step, each milestone in [0, steps]
    and the last step, once each and in order; return the records.

    states is an iterator of the run's states at steps 0, 1, .., steps.  drive
    pulls them in turn, none past the last record step, and calls
    record(k, state) at each record step k, before it pulls again.  An
    OverflowError or FloatingPointError raised while step j is being made is
    raised again, of its type, as "step j: ...".  A record whose energy is not
    finite raises FloatingPointError; every other one is kept and passed to
    each observer.
    """
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every}")
    marks = {0, steps, *range(0, steps + 1, record_every)}
    marks.update(m for m in milestones if 0 <= m <= steps)
    records, j = [], -1
    for k in sorted(marks):
        while j < k:
            try:
                state = next(states)
            except (OverflowError, FloatingPointError) as exc:
                raise type(exc)(f"step {j + 1}: {exc}") from exc
            j += 1
        rec = record(k, state)
        if not math.isfinite(rec.energy):
            raise FloatingPointError(f"non-finite energy at step {k}")
        records.append(rec)
        for obs in observers:
            obs(rec)
    return records

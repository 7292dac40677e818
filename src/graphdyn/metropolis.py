"""Random-graph Metropolis dynamics tracked as an edge-density matrix.

Vertices split into r communities of n members.  The state is the symmetric
r x r matrix of edge counts (capacity n^2 between communities, C(n, 2)
inside one); the density process is Markov on its own, so the explicit graph
is only ever materialized for export.  One Metropolis iteration walks every
count through s_n fair reflected steps, accepts or reverts by the energy
difference, then walks l_nr further unconditional relaxation steps.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import _draws
from ._drive import drive
from .hamiltonian import Hamiltonian
from .stepkernel import StepKernel

# a walk segment draws rows x r(r+1)/2 signs in one piece; past this it is refused
SIGN_DRAW_LIMIT = 1 << 27
# one block of chain iterations draws about this many raw words at once (1 MiB)
BLOCK_WORDS = 1 << 17
# the longest run of chain iterations _iterations evaluates as one stack
SPECULATION_DEPTH = 64
# empirical_drift starts only where every density lies in [INTERIOR_EPS, 1 - INTERIOR_EPS]
INTERIOR_EPS = 0.05
# empirical_drift moves up to this many trials through the walk at once
DRIFT_BLOCK = 1024
# esbm_sample materializes at most this many edges (64 MiB of int64 pairs)
EDGE_TOTAL_LIMIT = 1 << 22
# the largest community size whose n^2 pair capacity fits in int64
N_LIMIT = math.isqrt(np.iinfo(np.int64).max)


@dataclass
class ChainConfig:
    n: int
    r: int
    beta: float
    sigma: float
    gamma_n: float
    h: Hamiltonian
    seed: int = 0
    iterations: int = 0

    def __post_init__(self) -> None:
        if self.n < 2 or self.r < 1:
            raise ValueError("need n >= 2 members and r >= 1 communities")
        if self.n > N_LIMIT:
            raise ValueError(f"n = {self.n} is past {N_LIMIT}: pair capacities overflow int64")
        if self.iterations < 0:
            raise ValueError(f"iterations must be nonnegative, got {self.iterations}")
        for name in ("beta", "sigma", "gamma_n"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.gamma_n <= 0:
            raise ValueError("gamma_n must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        try:
            rows = max(self.s_n, self.l_nr)
        except OverflowError:
            raise ValueError("gamma_n or sigma is too large: the step count overflows") from None
        # sampler configs never walk and carry gamma_n only as a placeholder;
        # every other walk is checked again when its signs are drawn
        if self.iterations > 0:
            _check_draws(rows, self.r * (self.r + 1) // 2)

    @property
    def beta_nr(self) -> float:
        """Inverse temperature of the count chain: beta / (r^2 gamma_n)."""
        return self.beta / (self.r**2 * self.gamma_n)

    @property
    def s_n(self) -> int:
        """Base steps per proposal: ceil(gamma_n^2 n^4), at least 1 (the slack
        only keeps an exact integer from rounding up)."""
        return max(1, math.ceil(self.gamma_n**2 * self.n**4 - 1e-9))

    @property
    def l_nr(self) -> int:
        """Relaxation steps per iteration: ceil(r^-4 sigma^2 gamma_n n^4), at least
        1 where sigma > 0."""
        if self.sigma == 0:
            return 0
        return max(1, math.ceil(self.sigma**2 * self.gamma_n * self.n**4 / self.r**4 - 1e-9))

    def capacities(self) -> np.ndarray:
        """Pair capacity per cell: n^2 off-diagonal, C(n, 2) on the diagonal."""
        caps = np.full((self.r, self.r), self.n**2, dtype=np.int64)
        np.fill_diagonal(caps, self.n * (self.n - 1) // 2)
        return caps

    def validation_warnings(self) -> list[str]:
        """Soft asymptotic-regime checks; failures warn but never block."""
        out = []
        if self.gamma_n * math.log(self.n) ** 2 > 1.0:
            out.append(
                f"gamma_n (log n)^2 = {self.gamma_n * math.log(self.n) ** 2:.3g} > 1: "
                "proposal steps are too coarse for the scaling regime"
            )
        if self.gamma_n * self.n**2 / math.log(self.n) < 10.0:
            out.append(
                f"gamma_n n^2 / log n = {self.gamma_n * self.n**2 / math.log(self.n):.3g} < 10: "
                "chain is far from the diffusive regime"
            )
        return out

    def diffusion_time(self, step: int) -> float:
        return step * self.gamma_n / self.r**4

    def steps_for_horizon(self, t: float) -> int:
        return math.floor(t * self.r**4 / self.gamma_n + 1e-9)


@dataclass
class ChainState:
    """Mutable chain state: symmetric counts, step counter, and its RNG."""

    counts: np.ndarray
    step_index: int
    rng: np.random.Generator

    @classmethod
    def from_density(cls, cfg: ChainConfig, q, rng: np.random.Generator | None = None) -> "ChainState":
        counts = quantize_density(cfg, q)
        return cls(counts, 0, rng or np.random.default_rng(cfg.seed))

    @classmethod
    def uniform(cls, cfg: ChainConfig, rng: np.random.Generator | None = None) -> "ChainState":
        """Every count drawn uniformly from 0..capacity (the base measure)."""
        rng = rng or np.random.default_rng(cfg.seed)
        walk = _CountWalk(cfg)
        return cls(rng.integers(0, walk.caps + 1)[walk.full], 0, rng)


def quantize_density(cfg: ChainConfig, q) -> np.ndarray:
    """Counts nearest to q times capacity, symmetric, clipped to capacity."""
    vals = q.values if isinstance(q, StepKernel) else np.asarray(q, dtype=float)
    if vals.shape != (cfg.r, cfg.r):
        raise ValueError(f"density must be {cfg.r} x {cfg.r}")
    if not np.isfinite(vals).all():
        raise ValueError("density must be finite")
    caps = cfg.capacities()
    # clipped before scaling: a product past int64 would cast to 0, not to capacity
    counts = np.rint(np.clip(vals, 0.0, 1.0) * caps).astype(np.int64)
    counts = np.minimum(np.maximum(counts, 0), caps)
    if not np.array_equal(counts, counts.T):
        raise ValueError("density must be symmetric")
    return counts


def _diagonal_pairs(k: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs a < b of n members at flat indices k of their C(n, 2) pairs in
    row order, row a starting at a (2n - a - 1) / 2.  The float root may land
    one row off and is corrected in int64, where no product passes n^2."""
    start = lambda a: a * (2 * n - a - 1) // 2
    a = n - 2 - ((np.sqrt(8.0 * (n * (n - 1) // 2 - 1 - k) + 1) - 1) // 2).astype(np.int64)
    a += start(a + 1) <= k
    a -= start(a) > k
    return a, k + a + 1 - start(a)


def esbm_sample(cfg: ChainConfig, q, rng: np.random.Generator):
    """Materialize one block-model graph at the quantized density.

    Returns (edges, realized) where edges is an array of global vertex pairs
    (communities occupy contiguous index ranges of size n) and realized is
    the exact density kernel hit by drawing each cell's count of distinct
    pairs uniformly without replacement.
    """
    walk = _CountWalk(cfg)
    vec = quantize_density(cfg, q)[walk.iu]
    total = sum(vec.tolist())  # Python ints cannot wrap
    if total > EDGE_TOTAL_LIMIT:
        raise ValueError(
            f"the quantized density has {total} edges, past the limit of "
            f"{EDGE_TOTAL_LIMIT}; lower n or the density"
        )
    n = cfg.n
    chunks = []
    for i, j, m, cap in zip(*walk.iu, vec.tolist(), walk.caps.tolist()):
        if m == 0:
            continue
        picks = rng.choice(cap, size=m, replace=False)
        if i == j:
            a, b = _diagonal_pairs(picks, n)
        else:
            a, b = picks // n, picks % n
        chunks.append(np.column_stack([i * n + a, j * n + b]))
    edges = np.concatenate(chunks) if chunks else np.zeros((0, 2), dtype=np.int64)
    return edges, StepKernel(walk.density(vec))


class _CountWalk:
    """Flattened upper-triangle view of the counts with its reflection rule.

    The one walk of the package: _iterations composes its blocks' segments
    through it, and empirical_drift moves its trials through it.  Its iu and
    full are the chain's one map between symmetric r x r matrices and
    upper-triangle vectors: a matrix's vector is matrix[iu], a vector's
    matrix is vec[full].
    """

    def __init__(self, cfg: ChainConfig) -> None:
        self.iu = np.triu_indices(cfg.r)
        self.caps = cfg.capacities()[self.iu]
        self.m = len(self.caps)
        self.full = np.empty((cfg.r, cfg.r), dtype=np.intp)
        self.full[self.iu] = self.full.T[self.iu] = np.arange(self.m)

    def steps(self, vec: np.ndarray, signs: np.ndarray) -> None:
        """Walk every coordinate through the sign rows in place, reflecting lazily.

        vec is (m,) with (rows, m) signs, or (k, m) with (rows, k, m) signs;
        signs are -1, 0 or +1 of any signed integer dtype.  A drawn move that
        would exit [0, capacity] is a stay, which is exactly clamping the
        one-step update; the rows compose to one clamp (see compose).
        """
        _clamp(vec, self.compose(signs), ..., out=vec)

    def density(self, vecs: np.ndarray) -> np.ndarray:
        """The densities of upper-triangle counts vecs, (..., m), as C-contiguous
        (..., r, r) values: counts over capacities, written symmetric."""
        return (vecs / self.caps).take(self.full, axis=-1)

    def compose(self, signs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sign rows (rows, ...) composed into x -> min(max(x + a, lo), hi) on
        [0, capacity], with a, lo and hi int64 of the shape of one row.

        Reflected steps compose to that clamp with a the sum of the signs and lo,
        hi the walk's ends from 0 and from capacity.  One pass over the rows keeps
        the partial sum S (S_0 = 0) and its running minimum and maximum, in int16
        (int32 past 32767 rows, where S may not fit), or in the signs' dtype where
        that is wider, so no row is cast.  Where max S - min S is at most the
        capacity the walk touches at most one face, so from 0 it ends at
        S_N - min S and from capacity at capacity + S_N - max S.  Only the
        coordinates whose range exceeds their capacity walk row by row from both
        faces.  run_chain passes (rows, k, m) signs, one segment per iteration.
        """
        width = np.int16 if len(signs) <= np.iinfo(np.int16).max else np.int32
        total = np.zeros(signs.shape[1:], dtype=np.promote_types(signs.dtype, width))
        low, high = total.copy(), total.copy()
        for row in signs:
            np.add(total, row, out=total)
            np.minimum(low, total, out=low)
            np.maximum(high, total, out=high)
        a = total.astype(np.int64)
        lo, hi = a - low, a + self.caps - high
        wide = high - low > self.caps
        if wide.any():
            cols = np.nonzero(wide)
            caps = np.broadcast_to(self.caps, wide.shape)[cols]
            ends = np.stack([np.zeros_like(caps), caps])
            for row in signs[(slice(None),) + cols]:
                np.add(ends, row, out=ends)
                np.maximum(ends, 0, out=ends)
                np.minimum(ends, caps, out=ends)
            lo[cols], hi[cols] = ends
        return a, lo, hi


def _check_draws(rows: int, m: int) -> None:
    if rows * m > SIGN_DRAW_LIMIT:
        raise ValueError(
            f"a walk segment would draw {rows} x {m} signs, past the limit of "
            f"{SIGN_DRAW_LIMIT}; lower n, gamma_n or sigma"
        )


@dataclass(frozen=True)
class StepDiagnostics:
    delta_h: float
    acc_prob: float
    accepted: bool
    energy: float  # energy of the state the iteration ends on, after relaxation


def _acceptance(beta_nr: float, delta: float) -> float:
    """exp(-beta_nr delta^+), the probability of accepting an energy change delta."""
    try:
        return math.exp(-beta_nr * max(0.0, delta))
    except OverflowError as exc:
        raise OverflowError(f"acceptance exp(-beta_nr dH^+) overflows at beta_nr = {beta_nr}, "
                            f"dH = {delta}: {exc}") from exc


def metropolis_step(state: ChainState, cfg: ChainConfig):
    """One relaxed Metropolis iteration, in place: run_chain's iteration taken once.

    Proposes s_n reflected steps on every count, accepts with probability
    exp(-beta_nr [H(proposal) - H(current)]^+), reverts on reject, then
    applies l_nr unconditional relaxation steps.  Returns the state, the
    acceptance flag, and diagnostics.  A step that raises leaves the counts
    and step_index as they were; one that raises after its draws leaves the
    generator past all of them.
    """
    walk = _CountWalk(cfg)
    _, (vec, energy, acc_prob, accepted, delta) = _iterations(
        cfg, walk, state.rng, state.counts[walk.iu], 1)
    state.counts[...] = vec[walk.full]
    state.step_index += 1
    return state, accepted, StepDiagnostics(delta, acc_prob, accepted, energy)


def _iterations(cfg: ChainConfig, walk: _CountWalk, rng: np.random.Generator,
                vec: np.ndarray, iterations: int):
    """The chain's states from the upper-triangle counts vec:
    (upper-triangle counts, energy, acc_prob, accepted, delta_h) at step 0 and
    after each of `iterations` iterations, delta_h being the proposal's energy
    change (0.0 at step 0).  A yielded counts vector holds until the next state
    is pulled.  The one Metropolis iteration of the package: run_chain and
    metropolis_step both step through it.

    Each iteration draws s_n m proposal signs, one acceptance uniform, then
    l_nr m relaxation signs, whether or not the proposal is accepted;
    tests/oracles.py keeps the iteration that draws them one Generator call
    per segment as the bit-for-bit reference.  The iterations go in blocks of
    about BLOCK_WORDS raw words, drawn by _draws.chain_draws and released
    before the next block's draws.  Each walk segment is applied as its
    composed clamp, and each density is built from the upper-triangle vector,
    which gives the values of counts / capacities.

    Inside a block, iterations go in runs of up to `depth`, rolled forward as if
    every proposal were accepted; a run's densities up to its last proposal are
    evaluated as one stack.  The acceptances are checked in order, and the run
    ends at its first rejection or at its last proposal: that iteration relaxes
    from the counts it keeps, with the energy of a stack of one, and the next
    run starts after it.  The depth starts at 1, halves after a rejection and
    doubles after a run without one, up to SPECULATION_DEPTH, or 1 where cfg.h
    is not a Hamiltonian and has no evaluate_stack: a run of 1 evaluates its
    proposal and its relaxed state one kernel at a time.
    """
    h, m = cfg.h, walk.m
    s, rl = cfg.s_n * m, cfg.l_nr * m
    per = 2 if cfg.l_nr else 1  # densities per iteration: the proposal, then the relaxed state
    cap = SPECULATION_DEPTH if isinstance(h, Hamiltonian) else 1
    block = max(1, BLOCK_WORDS // ((s + rl + 1) // 2 + 1))
    rolled = np.empty((per * min(block, cap, iterations), m), dtype=np.int64)
    depth = 1
    energy = _energies(h, walk, vec[None])[0]
    yield vec, energy, 1.0, True, 0.0
    for start in range(0, iterations, block):
        iters = min(block, iterations - start)
        _check_draws(max(cfg.s_n, cfg.l_nr), m)
        signs, unif = _draws.chain_draws(rng, iters, s, rl)
        segs = [walk.compose(signs[:, :s].reshape(iters, cfg.s_n, m).transpose(1, 0, 2))]
        if cfg.l_nr:
            segs.append(walk.compose(signs[:, s:].reshape(iters, cfg.l_nr, m).transpose(1, 0, 2)))
        uniforms = unif.tolist()
        j = 0
        while j < iters:
            d = min(depth, cap, iters - j)
            run = rolled[: per * d - per + 1]
            prev = vec
            for k in range(len(run)):
                prev = _clamp(prev, segs[k % per], j + k // per, out=run[k])
            energies = _energies(h, walk, run)
            for k in range(d):
                delta = energies[per * k] - energy
                acc_prob = _acceptance(cfg.beta_nr, delta)
                accepted = uniforms[j + k] < acc_prob
                if not accepted or k == d - 1:
                    break
                energy = energies[per * k + per - 1]
                yield run[per * k + per - 1], energy, acc_prob, True, delta
            # the counts kept: the accepted proposal, else the state before it (vec at -1)
            kept = per * k if accepted else per * k - 1
            if kept >= 0:
                vec, energy = run[kept].copy(), energies[kept]
            if cfg.l_nr:
                vec = _clamp(vec, segs[1], j + k)
                energy = _energies(h, walk, vec[None])[0]
            j += k + 1
            depth = min(2 * depth, SPECULATION_DEPTH) if accepted else max(1, depth // 2)
            yield vec, energy, acc_prob, accepted, delta
        del signs, unif, segs, uniforms


def _clamp(vec: np.ndarray, seg, j, out: np.ndarray | None = None) -> np.ndarray:
    """Iteration j's composed walk segment seg = (a, lo, hi) applied to vec;
    j = ... applies the whole of a segment composed from one run of signs."""
    a, lo, hi = seg
    out = np.add(vec, a[j], out=out)
    np.maximum(out, lo[j], out=out)
    return np.minimum(out, hi[j], out=out)


def _energies(h, walk: _CountWalk, vecs: np.ndarray) -> list[float]:
    """h.evaluate of the density of each count vector in a (k, m) stack: one
    evaluate_stack call where h is a Hamiltonian, else one evaluate each."""
    stack = walk.density(vecs)
    if isinstance(h, Hamiltonian):
        return h.evaluate_stack(stack).tolist()
    return [h.evaluate(StepKernel._trusted(d)) for d in stack]


@dataclass(frozen=True)
class ChainRecord:
    step: int
    t: float
    density: StepKernel
    energy: float
    acc_prob: float
    accepted: bool


def run_chain(
    cfg: ChainConfig,
    init: StepKernel | str | None = None,
    observers=(),
    record_every: int = 1,
    milestones=(),
) -> list[ChainRecord]:
    """Drive the chain for cfg.iterations steps from the given start.

    init is a density kernel, the string "uniform", or None for the constant
    one-half start.  Records (and notifies observers) on drive's schedule.
    Soft validation warnings for the gamma_n regime are emitted once up front.

    drive pulls the chain's states from _iterations, which draws and steps a
    block only when drive pulls its first state: an error raised inside a
    block surfaces once every record before the failing iteration is taken.
    """
    for msg in cfg.validation_warnings():
        warnings.warn(msg, stacklevel=2)
    rng = np.random.default_rng(cfg.seed)
    if init is None:
        init = StepKernel.constant(cfg.r, 0.5)
    if isinstance(init, str):
        if init != "uniform":
            raise ValueError(f"unknown init {init!r}")
        state = ChainState.uniform(cfg, rng)
    else:
        state = ChainState.from_density(cfg, init, rng)
    walk = _CountWalk(cfg)

    def record(k: int, it) -> ChainRecord:
        vec, *diagnostics, _delta = it
        return ChainRecord(k, cfg.diffusion_time(k), StepKernel._trusted(walk.density(vec)),
                           *diagnostics)

    return drive(cfg.iterations, _iterations(cfg, walk, state.rng, state.counts[walk.iu],
                                             cfg.iterations),
                 record, observers, record_every, milestones)


def empirical_drift(cfg: ChainConfig, q0, trials: int):
    """Mean one-iteration displacement at q0, normalized by gamma_n r^-4.

    Runs independent single Metropolis iterations from the same quantized
    start, each on its own RNG stream split from cfg.seed, and returns the
    (r x r) normalized drift estimate with its per-coordinate standard
    errors.  The start must be interior: every density in
    [INTERIOR_EPS, 1 - INTERIOR_EPS].

    Trials run in blocks of up to DRIFT_BLOCK on the chain's own walk: a block
    spawns its trials' seed sequences when it starts, and each trial's draws,
    s_n m proposal signs, one uniform, then l_nr m relaxation signs, are
    decoded from its raw words (_draws.trial_draws) into one int8 (block,
    signs per iteration) buffer; _CountWalk.steps moves the whole block at once.
    A walk segment past SIGN_DRAW_LIMIT signs is refused before any trial is
    spawned.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    q0_vals = q0.values if isinstance(q0, StepKernel) else np.asarray(q0, dtype=float)
    if q0_vals.min() < INTERIOR_EPS or q0_vals.max() > 1.0 - INTERIOR_EPS:
        raise ValueError(f"start must lie in [{INTERIOR_EPS}, {1 - INTERIOR_EPS}]")
    counts0 = quantize_density(cfg, q0_vals)
    walk = _CountWalk(cfg)
    _check_draws(max(cfg.s_n, cfg.l_nr), walk.m)
    caps = walk.caps.astype(float)
    vec0 = counts0[walk.iu]
    energy0 = _energies(cfg.h, walk, vec0[None])[0]
    scale = cfg.r**4 / cfg.gamma_n
    root = np.random.SeedSequence(cfg.seed)
    sum_x = np.zeros(walk.m)
    sum_x2 = np.zeros(walk.m)
    done = 0
    s, rl = cfg.s_n * walk.m, cfg.l_nr * walk.m
    # each walk segment's part of the sign buffer holds at most SIGN_DRAW_LIMIT entries
    block = min(DRIFT_BLOCK, SIGN_DRAW_LIMIT // (max(cfg.s_n, cfg.l_nr) * walk.m))
    signs = np.empty((block, s + rl), dtype=np.int8)
    unif = np.empty(block)
    while done < trials:
        k = min(block, trials - done)
        # spawn continues root's child count, so block by block gives spawn(trials)
        _draws.trial_draws(root.spawn(k), s, rl, signs[:k], unif[:k], BLOCK_WORDS)
        vecs = np.broadcast_to(vec0, (k, walk.m)).copy()
        walk.steps(vecs, signs[:k, :s].reshape(k, cfg.s_n, walk.m).transpose(1, 0, 2))
        acc = np.array([u < _acceptance(cfg.beta_nr, e - energy0)
                        for u, e in zip(unif[:k].tolist(), _energies(cfg.h, walk, vecs))])
        vecs[~acc] = vec0
        if cfg.l_nr:
            walk.steps(vecs, signs[:k, s:].reshape(k, cfg.l_nr, walk.m).transpose(1, 0, 2))
        x = (vecs - vec0) / caps * scale
        sum_x += x.sum(axis=0)
        sum_x2 += (x * x).sum(axis=0)
        done += k
    mean = sum_x / trials
    var = np.maximum(sum_x2 / trials - mean**2, 0.0)
    se = np.sqrt(var / trials)
    return mean[walk.full], se[walk.full]


def empirical_qv(cfg: ChainConfig, horizon_t: float, init: StepKernel | None = None):
    """Realized quadratic variation of the density over a diffusion horizon.

    Runs one chain for floor(horizon_t r^4 / gamma_n) iterations and returns
    the per-coordinate sum of squared centered increments, an (r x r) matrix
    comparable to horizon_t sigma^2 on off-diagonal coordinates.
    """
    if cfg.sigma <= 0:
        raise ValueError("quadratic variation needs sigma > 0")
    if not (math.isfinite(horizon_t) and horizon_t >= 0):
        raise ValueError(f"horizon_t must be finite and nonnegative, got {horizon_t}")
    run = replace(cfg, iterations=cfg.steps_for_horizon(horizon_t))
    walk = _CountWalk(cfg)
    incs = np.diff([rec.density.values[walk.iu] for rec in run_chain(run, init)], axis=0)
    centered = incs - incs.mean(axis=0, keepdims=True) if len(incs) else incs
    qv = (centered**2).sum(axis=0)
    return qv[walk.full]

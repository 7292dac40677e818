"""Random-graph Metropolis dynamics tracked as an edge-density matrix.

Vertices split into r communities of n members.  The state is the symmetric
r x r matrix of edge counts (capacity n^2 between communities, C(n, 2)
inside one); the density process is Markov on its own, so the explicit graph
is only ever materialized for export.  One Metropolis iteration walks every
count through s_n fair reflected steps, accepts or reverts by the energy
difference, then walks l_nr further unconditional relaxation steps.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._drive import at_step, drive, record_steps
from .hamiltonian import Hamiltonian
from .stepkernel import StepKernel

# a walk segment draws rows x r(r+1)/2 signs in one piece; past this it is refused
SIGN_DRAW_LIMIT = 1 << 27
# one block of chain iterations draws about this many raw words at once (1 MiB)
BLOCK_WORDS = 1 << 17
# the longest run of chain iterations _step_block evaluates as one stack
SPECULATION_DEPTH = 64
# a half-word at or above this draws the sign +1
_SIGN_BIT = np.uint32(1 << 31)
# empirical_drift starts only where every density lies in [INTERIOR_EPS, 1 - INTERIOR_EPS]
INTERIOR_EPS = 0.05
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
        """Base steps per proposal: ceil(gamma_n^2 n^4)."""
        return math.ceil(self.gamma_n**2 * self.n**4 - 1e-9)

    @property
    def l_nr(self) -> int:
        """Relaxation steps per iteration: ceil(r^-4 sigma^2 gamma_n n^4)."""
        if self.sigma == 0:
            return 0
        return math.ceil(self.sigma**2 * self.gamma_n * self.n**4 / self.r**4 - 1e-9)

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
        caps = cfg.capacities()
        iu = np.triu_indices(cfg.r)
        counts = np.zeros((cfg.r, cfg.r), dtype=np.int64)
        counts[iu] = rng.integers(0, caps[iu] + 1)
        counts = np.triu(counts) + np.triu(counts, 1).T
        return cls(counts, 0, rng)


def quantize_density(cfg: ChainConfig, q) -> np.ndarray:
    """Counts nearest to q times capacity, symmetric, clipped to capacity."""
    vals = q.values if isinstance(q, StepKernel) else np.asarray(q, dtype=float)
    if vals.shape != (cfg.r, cfg.r):
        raise ValueError(f"density must be {cfg.r} x {cfg.r}")
    if not np.isfinite(vals).all():
        raise ValueError("density must be finite")
    caps = cfg.capacities()
    counts = np.rint(vals * caps).astype(np.int64)
    counts = np.minimum(np.maximum(counts, 0), caps)
    if not np.array_equal(counts, counts.T):
        raise ValueError("density must be symmetric")
    return counts


def esbm_sample(cfg: ChainConfig, q, rng: np.random.Generator):
    """Materialize one block-model graph at the quantized density.

    Returns (edges, realized) where edges is an array of global vertex pairs
    (communities occupy contiguous index ranges of size n) and realized is
    the exact density kernel hit by drawing each cell's count of distinct
    pairs uniformly without replacement.
    """
    counts = quantize_density(cfg, q)
    total = sum(int(c) for c in counts[np.triu_indices(cfg.r)])  # Python ints cannot wrap
    if total > EDGE_TOTAL_LIMIT:
        raise ValueError(
            f"the quantized density has {total} edges, past the limit of "
            f"{EDGE_TOTAL_LIMIT}; lower n or the density"
        )
    caps = cfg.capacities()
    n, r = cfg.n, cfg.r
    chunks = []
    for i in range(r):
        for j in range(i, r):
            m = int(counts[i, j])
            if m == 0:
                continue
            picks = rng.choice(int(caps[i, j]), size=m, replace=False)
            if i == j:
                # decode C(n,2) flat index to a within-community pair a < b
                a = (
                    n - 2
                    - np.floor(np.sqrt(-8 * picks + 4 * n * (n - 1) - 7) / 2.0 - 0.5)
                ).astype(np.int64)
                b = picks + a + 1 - a * (2 * n - a - 1) // 2
            else:
                a, b = picks // n, picks % n
            chunks.append(np.column_stack([i * n + a, j * n + b]))
    edges = np.concatenate(chunks) if chunks else np.zeros((0, 2), dtype=np.int64)
    realized = StepKernel(counts / caps)
    return edges, realized


class _CountWalk:
    """Flattened upper-triangle view of the counts with its reflection rule.

    The one walk of the package: run_chain composes its blocks' segments
    through it, and empirical_drift and metropolis_step move counts through it.
    """

    def __init__(self, cfg: ChainConfig) -> None:
        self.iu = np.triu_indices(cfg.r)
        self.cap_matrix = cfg.capacities()
        self.caps = self.cap_matrix[self.iu]
        self.m = len(self.caps)
        # cell (i, j) of the r x r matrix reads upper-triangle coordinate full[i, j]
        self.full = np.empty((cfg.r, cfg.r), dtype=np.intp)
        _write_symmetric(self.full, self.iu, np.arange(self.m))

    def steps(self, vec: np.ndarray, signs: np.ndarray) -> None:
        """Walk every coordinate through the sign rows in place, reflecting lazily.

        vec is (m,) with (rows, m) signs, or (k, m) with (rows, k, m) signs;
        signs may be any integer dtype.  A drawn move that would exit
        [0, capacity] is a stay, which is exactly clamping the one-step
        update.  Rows go one at a time, so boundary behavior is exact; the
        clamp is two in-place ufuncs, which give a clip's integers without
        its per-call Python overhead.
        """
        caps = self.caps
        for row in signs:
            np.add(vec, row, out=vec)
            np.maximum(vec, 0, out=vec)
            np.minimum(vec, caps, out=vec)

    def density(self, counts: np.ndarray) -> StepKernel:
        """Density kernel of symmetric in-range counts, without re-validation."""
        return StepKernel._trusted(counts / self.cap_matrix)

    def vec_density(self, vec: np.ndarray) -> StepKernel:
        """density() of the counts whose upper triangle is vec: the same values, bit
        for bit, without writing the symmetric matrix first."""
        return StepKernel._trusted((vec / self.caps)[self.full])

    def compose(self, signs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The walk of each of k segments as one clamp: (a, lo, hi), each (k, m).

        signs is (k, rows, m).  Reflected steps compose to
        x -> min(max(x + a, lo), hi) on [0, capacity], with a the sum of the
        signs and lo, hi the walk started from 0 and from capacity, so one
        (2, k, m) walk gives every segment's map at once.
        """
        ends = np.empty((2,) + signs[:, 0].shape, dtype=np.int64)
        ends[0] = 0
        ends[1] = self.caps
        self.steps(ends, signs.transpose(1, 0, 2))
        return signs.sum(axis=1, dtype=np.int64), ends[0], ends[1]


def _check_draws(rows: int, m: int) -> None:
    if rows * m > SIGN_DRAW_LIMIT:
        raise ValueError(
            f"a walk segment would draw {rows} x {m} signs, past the limit of "
            f"{SIGN_DRAW_LIMIT}; lower n, gamma_n or sigma"
        )


def _draw_signs(rng: np.random.Generator, k: int, m: int) -> np.ndarray:
    """k rows of fair +-1 for m coordinates, drawn in one call.

    Single-call generation per walk segment is part of the determinism
    contract: proposal signs, then one acceptance uniform, then relaxation
    signs, in that order.
    """
    _check_draws(k, m)
    return rng.integers(0, 2, size=(k, m), dtype=np.int64) * 2 - 1


class _DrawPlan:
    """Where the draws of `iters` chain iterations sit in the raw words of a PCG64.

    An iteration draws s signs, one uniform, then rl signs (none when rl is 0).
    Generator.integers(0, 2, dtype=int64) takes each sign as bit 31 of a 32-bit
    half-word, low half first (Lemire's bounded method never rejects on range
    2), and keeps the unused high half of an odd-length draw as a carry that the
    next sign draw reads first, even across a uniform; Generator.random takes a
    whole word w as (w >> 11) * 2^-53.  So the words a run of iterations draws
    one call at a time are random_raw(words) taken at once, and this plan knows
    which half of which word each draw reads, given whether a carry is waiting.
    """

    def __init__(self, iters: int, s: int, rl: int, carry: int) -> None:
        self.s, self.rl, self.shape, self.carry = s, rl, (iters, s + rl), carry
        i = np.arange(iters)
        # iteration i's uniform follows ceil((signs so far - carry) / 2) sign words
        self.unif = (i * (s + rl) + s - carry + 1) // 2 + i
        self.words = (iters * (s + rl) - carry + 1) // 2 + iters
        # a sign half left unread is the carry at the end; the generator also keeps
        # the high half of the last sign word it drew, read or not
        self.end_carry = carry + 2 * (self.words - iters) - iters * (s + rl)
        sign_words = np.ones(self.words, dtype=bool)
        sign_words[self.unif] = False
        last = np.flatnonzero(sign_words)[-1:]
        self.last_high = 2 * int(last[0]) + 1 if len(last) else None

    def decode(self, raw: np.ndarray, carry: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """int8 +-1 signs (..., iters, s + rl) and uniforms (..., iters) from raw
        words (..., words); carry is the waiting half-word, if any."""
        # one flag per half-word, after a spare slot and the waiting carry, so that
        # the two halves of a word are one uint16 and a uniform's word drops out whole
        bits = np.empty(raw.shape[:-1] + (2 * self.words + 2,), dtype=bool)
        bits[..., 1] = carry >= _SIGN_BIT
        np.greater_equal(raw.view(np.uint32), _SIGN_BIT, out=bits[..., 2:])
        stream = np.delete(bits.view(np.uint16), self.unif + 1, axis=-1).view(bool)
        first = 2 - self.carry
        signs = stream[..., first : first + self.shape[0] * self.shape[1]]
        signs = signs.reshape(raw.shape[:-1] + self.shape).view(np.int8) * 2 - 1
        return signs, (raw[..., self.unif] >> np.uint64(11)) * 2.0**-53


# a run of equal blocks needs two plans, one for each carry
_draw_plan = functools.lru_cache(maxsize=4)(_DrawPlan)


def _block_draws(bitgen, plan: _DrawPlan, state: dict) -> tuple[np.ndarray, np.ndarray]:
    """Decode plan's draws from bitgen, whose state before the draw was `state`,
    and leave its carry where drawing them one call at a time leaves it."""
    start = state["uinteger"] if state["has_uint32"] else 0
    raw = bitgen.random_raw(plan.words)
    after = bitgen.state
    after["has_uint32"] = plan.end_carry
    if plan.last_high is not None:
        after["uinteger"] = int(raw.view(np.uint32)[plan.last_high])
    bitgen.state = after
    return plan.decode(raw, start)


def _generator_draws(rng: np.random.Generator, iters: int, s: int,
                     rl: int) -> tuple[np.ndarray, np.ndarray]:
    """Signs (iters, s + rl) and uniforms (iters,) of `iters` chain iterations, as
    metropolis_step draws them and leaving rng where it does: decoded from one
    random_raw call where _decoder_agrees, else drawn call by call."""
    if not _decoder_agrees():
        return _call_draws(rng, iters, s, rl)
    start = rng.bit_generator.state
    return _block_draws(rng.bit_generator, _draw_plan(iters, s, rl, start["has_uint32"]), start)


def _call_draws(rng: np.random.Generator, iters: int, s: int,
                rl: int) -> tuple[np.ndarray, np.ndarray]:
    """_generator_draws' draws made as metropolis_step makes them, one call each."""
    signs, unif = np.empty((iters, s + rl), dtype=np.int8), np.empty(iters)
    for i in range(iters):
        signs[i, :s] = _draw_signs(rng, 1, s)[0]
        unif[i] = rng.random()
        signs[i, s:] = _draw_signs(rng, 1, rl)[0]  # rl = 0 draws nothing
    return signs, unif


@functools.cache
def _decoder_agrees() -> bool:
    """Whether _DrawPlan reads raw words the way this numpy's Generator draws.

    Checked once per process, on an odd-length sign draw, then a uniform, then
    a sign draw that starts on the carry, from a start that has a carry waiting.
    """
    seq, blk = np.random.default_rng(0), np.random.default_rng(0)
    for g in (seq, blk):
        g.integers(0, 2, size=3, dtype=np.int64)
    state = blk.bit_generator.state
    try:
        got = _block_draws(blk.bit_generator, _DrawPlan(2, 5, 6, state["has_uint32"]), state)
    except KeyError:  # a state without the waiting half-word
        return False
    same = all(map(np.array_equal, got, _call_draws(seq, 2, 5, 6)))
    return same and blk.bit_generator.state == seq.bit_generator.state


@dataclass(frozen=True)
class StepDiagnostics:
    delta_h: float
    acc_prob: float
    accepted: bool
    energy: float  # energy of the state after accept/reject, before relaxation


def _acceptance(beta_nr: float, delta: float) -> float:
    """exp(-beta_nr delta^+), the probability of accepting an energy change delta."""
    try:
        return math.exp(-beta_nr * max(0.0, delta))
    except OverflowError as exc:
        raise OverflowError(f"acceptance exp(-beta_nr dH^+) overflows at beta_nr = {beta_nr}, "
                            f"dH = {delta}: {exc}") from exc


def metropolis_step(state: ChainState, cfg: ChainConfig, walk: _CountWalk | None = None,
                    energy: float | None = None):
    """One relaxed Metropolis iteration, in place.

    Proposes s_n reflected steps on every count, accepts with probability
    exp(-beta_nr [H(proposal) - H(current)]^+), reverts on reject, then
    applies l_nr unconditional relaxation steps.  Returns the state, the
    acceptance flag, and diagnostics.
    """
    if walk is None:
        walk = _CountWalk(cfg)
    iu = walk.iu
    vec = state.counts[iu]
    if energy is None:
        energy = cfg.h.evaluate(walk.density(state.counts))
    before = vec.copy()
    walk.steps(vec, _draw_signs(state.rng, cfg.s_n, walk.m))
    _write_symmetric(state.counts, iu, vec)
    prop_energy = cfg.h.evaluate(walk.density(state.counts))
    delta = prop_energy - energy
    acc_prob = _acceptance(cfg.beta_nr, delta)
    accepted = state.rng.random() < acc_prob
    if accepted:
        energy = prop_energy
    else:
        vec = before
        _write_symmetric(state.counts, iu, vec)
    if cfg.l_nr:
        walk.steps(vec, _draw_signs(state.rng, cfg.l_nr, walk.m))
        _write_symmetric(state.counts, iu, vec)
        energy = cfg.h.evaluate(walk.density(state.counts))
    state.step_index += 1
    return state, accepted, StepDiagnostics(delta, acc_prob, accepted, energy)


def _step_block(state: ChainState, cfg: ChainConfig, walk: _CountWalk, signs: np.ndarray,
                unif: np.ndarray, energy: float, depth: int, marks,
                snaps: dict) -> tuple[float, int]:
    """len(unif) iterations of metropolis_step, in place, from their draws: the
    same states, energies and acceptances, bit for bit.  Each walk segment is
    applied as its composed clamp, and each density is built from the
    upper-triangle vector, which gives the values of counts / capacities.  At
    each step in marks (record steps, a set), the upper-triangle counts and the
    energy, acceptance probability and flag of the iteration that reached it
    are written to snaps[step].

    Iterations go in runs of up to `depth`, rolled forward as if every proposal
    were accepted; a run's densities up to its last proposal are evaluated as
    one stack.  The acceptances are checked in order, and the run ends at its
    first rejection or at its last proposal: that iteration relaxes from the
    counts it keeps, with one evaluate, and the next run starts after it.  The
    depth halves after a rejection and doubles after a run without one, up to
    SPECULATION_DEPTH, or 1 where cfg.h has no closed forms for stacks: a run
    of 1 evaluates what metropolis_step does.  Returns the energy of the last
    iteration and the depth to start the next block at.
    """
    h, iters, s, start = cfg.h, len(unif), cfg.s_n * walk.m, state.step_index
    segs = [walk.compose(signs[:, :s].reshape(iters, cfg.s_n, walk.m))]
    if cfg.l_nr:
        segs.append(walk.compose(signs[:, s:].reshape(iters, cfg.l_nr, walk.m)))
    per = len(segs)  # densities per iteration: the proposal, then the relaxed state
    cap = SPECULATION_DEPTH if isinstance(h, Hamiltonian) and h.batched(cfg.r) else 1
    rolled = np.empty((per * min(iters, cap), walk.m), dtype=np.int64)
    uniforms = unif.tolist()
    vec = state.counts[walk.iu]
    j = 0
    while j < iters:
        d = min(depth, cap, iters - j)
        run = rolled[: per * d - per + 1]
        prev = vec
        for k in range(len(run)):
            prev = _clamp(prev, segs[k % per], j + k // per, out=run[k])
        energies = _energies(h, walk, run)
        for k in range(d):
            try:
                acc_prob = _acceptance(cfg.beta_nr, energies[per * k] - energy)
            except OverflowError as exc:
                raise at_step(start + j + k + 1, exc) from exc
            accepted = uniforms[j + k] < acc_prob
            if not accepted or k == d - 1:
                break
            energy = energies[per * k + per - 1]
            if start + j + k + 1 in marks:
                snaps[start + j + k + 1] = (run[per * k + per - 1].copy(), energy, acc_prob, True)
        # the counts kept: the accepted proposal, else the state before it (vec at -1)
        kept = per * k if accepted else per * k - 1
        if kept >= 0:
            vec, energy = run[kept].copy(), energies[kept]
        if cfg.l_nr:
            vec = _clamp(vec, segs[1], j + k)
            energy = h.evaluate(walk.vec_density(vec))
        j += k + 1
        depth = min(2 * depth, SPECULATION_DEPTH) if accepted else max(1, depth // 2)
        if start + j in marks:
            snaps[start + j] = (vec, energy, acc_prob, accepted)
    _write_symmetric(state.counts, walk.iu, vec)
    state.step_index += iters
    return energy, depth


def _clamp(vec: np.ndarray, seg, j: int, out: np.ndarray | None = None) -> np.ndarray:
    """Iteration j's composed walk segment seg = (a, lo, hi) applied to vec."""
    a, lo, hi = seg
    out = np.add(vec, a[j], out=out)
    np.maximum(out, lo[j], out=out)
    return np.minimum(out, hi[j], out=out)


def _energies(h, walk: _CountWalk, vecs: np.ndarray) -> list[float]:
    """h.evaluate of the density of each count vector in a (k, m) stack: one
    evaluate_stack call for k > 1 where h is a Hamiltonian, else one evaluate each."""
    stack = (vecs / walk.caps)[:, walk.full]
    if isinstance(h, Hamiltonian) and len(stack) > 1:
        return h.evaluate_stack(stack).tolist()
    return [h.evaluate(StepKernel._trusted(d)) for d in stack]


def _write_symmetric(counts: np.ndarray, iu, vec: np.ndarray) -> None:
    counts[iu] = vec
    counts.T[iu] = vec


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

    The chain moves in blocks of about BLOCK_WORDS raw words, each stepped
    by _step_block from _generator_draws.  Blocks run through record steps:
    each keeps a snapshot of the state at every record step inside it, and
    each record is built from its snapshot.  An error inside a block is
    raised once every record before it is taken.
    """
    marks = set(record_steps(cfg.iterations, record_every, milestones))
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
    energy, depth, failure = cfg.h.evaluate(walk.density(state.counts)), 1, None
    # record step -> (upper-triangle counts, energy, acc_prob, accepted), held
    # from the block that passes the step until its record is taken
    snaps = {0: (state.counts[walk.iu], energy, 1.0, True)}
    s, rl = cfg.s_n * walk.m, cfg.l_nr * walk.m
    block = max(1, BLOCK_WORDS // ((s + rl + 1) // 2 + 1))

    def step_block() -> None:
        nonlocal energy, depth
        _check_draws(max(cfg.s_n, cfg.l_nr), walk.m)
        signs, unif = _generator_draws(state.rng, min(block, cfg.iterations - state.step_index),
                                       s, rl)
        energy, depth = _step_block(state, cfg, walk, signs, unif, energy, depth, marks, snaps)

    def advance(k: int) -> None:
        nonlocal failure
        while k not in snaps:
            if failure is not None:
                raise failure
            # whatever a block raises waits for the records taken before it
            try:
                step_block()
            except Exception as exc:
                failure = exc

    def record(k: int) -> ChainRecord:
        vec, *diagnostics = snaps.pop(k)
        return ChainRecord(k, cfg.diffusion_time(k), walk.vec_density(vec), *diagnostics)

    return drive(cfg.iterations, advance, record, observers, record_every, milestones)


def _trial_draws(seeds, plan: _DrawPlan, signs: np.ndarray, unif: np.ndarray) -> None:
    """Fill signs (k, s + rl) and unif (k,) with one iteration's draws for each of
    k trials, each drawn from a fresh PCG64 on its own seed sequence."""
    if not _decoder_agrees():
        for i, seed in enumerate(seeds):
            (signs[i],), (unif[i],) = _call_draws(np.random.default_rng(seed), 1, plan.s, plan.rl)
        return
    chunk = max(1, BLOCK_WORDS // plan.words)
    for c in range(0, len(seeds), chunk):
        raw = np.stack([np.random.PCG64(seed).random_raw(plan.words)
                        for seed in seeds[c : c + chunk]])
        got, got_unif = plan.decode(raw)
        signs[c : c + chunk] = got[:, 0]
        unif[c : c + chunk] = got_unif[:, 0]


def empirical_drift(
    cfg: ChainConfig,
    q0,
    trials: int,
    block: int = 1024,
):
    """Mean one-iteration displacement at q0, normalized by gamma_n r^-4.

    Runs independent single Metropolis iterations from the same quantized
    start, each on its own RNG stream split from cfg.seed, and returns the
    (r x r) normalized drift estimate with its per-coordinate standard
    errors.  The start must be interior: every density in
    [INTERIOR_EPS, 1 - INTERIOR_EPS].

    Trials run in blocks on the chain's own walk: each trial's draws are
    decoded from its raw words as metropolis_step would draw them, into one
    int8 (block, signs per iteration) buffer, and _CountWalk.steps moves the
    whole block at once.
    """
    q0_vals = q0.values if isinstance(q0, StepKernel) else np.asarray(q0, dtype=float)
    if q0_vals.min() < INTERIOR_EPS or q0_vals.max() > 1.0 - INTERIOR_EPS:
        raise ValueError(f"start must lie in [{INTERIOR_EPS}, {1 - INTERIOR_EPS}]")
    counts0 = quantize_density(cfg, q0_vals)
    walk = _CountWalk(cfg)
    caps = walk.caps.astype(float)
    vec0 = counts0[walk.iu]
    energy0 = cfg.h.evaluate(walk.density(counts0))
    scale = cfg.r**4 / cfg.gamma_n
    streams = np.random.SeedSequence(cfg.seed).spawn(trials)
    sum_x = np.zeros(walk.m)
    sum_x2 = np.zeros(walk.m)
    done = 0
    s, rl = cfg.s_n * walk.m, cfg.l_nr * walk.m
    # each walk segment's part of the sign buffer holds at most SIGN_DRAW_LIMIT entries
    block = max(1, min(block, SIGN_DRAW_LIMIT // (max(cfg.s_n, cfg.l_nr, 1) * walk.m)))
    signs = np.empty((block, s + rl), dtype=np.int8)
    unif = np.empty(block)
    plan = _draw_plan(1, s, rl, 0)
    while done < trials:
        k = min(block, trials - done)
        _trial_draws(streams[done : done + k], plan, signs[:k], unif[:k])
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
    out_mean = np.zeros((cfg.r, cfg.r))
    out_se = np.zeros((cfg.r, cfg.r))
    _write_symmetric(out_mean, walk.iu, mean)
    _write_symmetric(out_se, walk.iu, se)
    return out_mean, out_se


def empirical_qv(cfg: ChainConfig, horizon_t: float, init: StepKernel | None = None):
    """Realized quadratic variation of the density over a diffusion horizon.

    Runs one chain for floor(horizon_t r^4 / gamma_n) iterations and returns
    the per-coordinate sum of squared centered increments, an (r x r) matrix
    comparable to horizon_t sigma^2 on off-diagonal coordinates.
    """
    if cfg.sigma <= 0:
        raise ValueError("quadratic variation needs sigma > 0")
    run = replace(cfg, iterations=cfg.steps_for_horizon(horizon_t))
    iu = np.triu_indices(cfg.r)
    incs = np.diff([rec.density.values[iu] for rec in run_chain(run, init)], axis=0)
    centered = incs - incs.mean(axis=0, keepdims=True) if len(incs) else incs
    qv = (centered**2).sum(axis=0)
    out = np.zeros((cfg.r, cfg.r))
    _write_symmetric(out, iu, qv)
    return out

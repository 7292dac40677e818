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
from dataclasses import dataclass

import numpy as np

from .hamiltonian import Hamiltonian
from .stepkernel import StepKernel


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
        if self.gamma_n <= 0:
            raise ValueError("gamma_n must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")

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


def _upper_indices(r: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(r)


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
        iu = _upper_indices(cfg.r)
        counts = np.zeros((cfg.r, cfg.r), dtype=np.int64)
        counts[iu] = rng.integers(0, caps[iu] + 1)
        counts = np.triu(counts) + np.triu(counts, 1).T
        return cls(counts, 0, rng)

    def density(self, cfg: ChainConfig) -> StepKernel:
        return StepKernel(self.counts / cfg.capacities())


def quantize_density(cfg: ChainConfig, q) -> np.ndarray:
    """Counts nearest to q times capacity, symmetric, clipped to capacity."""
    vals = q.values if isinstance(q, StepKernel) else np.asarray(q, dtype=float)
    if vals.shape != (cfg.r, cfg.r):
        raise ValueError(f"density must be {cfg.r} x {cfg.r}")
    caps = cfg.capacities()
    counts = np.rint(vals * caps).astype(np.int64)
    counts = np.clip(counts, 0, caps)
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
    """Flattened upper-triangle view of the counts with its reflection rule."""

    def __init__(self, cfg: ChainConfig) -> None:
        self.iu = _upper_indices(cfg.r)
        self.caps = cfg.capacities()[self.iu]
        self.m = len(self.caps)

    def steps(self, vec: np.ndarray, signs: np.ndarray) -> None:
        """Walk every coordinate through the sign rows, reflecting lazily.

        A drawn move that would exit [0, capacity] is a stay, which is
        exactly clamping the one-step update.  Iteration is direct, one row
        at a time, so boundary behavior is exact.
        """
        for row in signs:
            np.add(vec, row, out=vec)
            np.clip(vec, 0, self.caps, out=vec)


def _draw_signs(rng: np.random.Generator, k: int, m: int) -> np.ndarray:
    """k rows of fair +-1 for m coordinates, drawn in one call.

    Single-call generation per walk segment is part of the determinism
    contract: proposal signs, then one acceptance uniform, then relaxation
    signs, in that order.
    """
    return rng.integers(0, 2, size=(k, m), dtype=np.int64) * 2 - 1


@dataclass(frozen=True)
class StepDiagnostics:
    delta_h: float
    acc_prob: float
    accepted: bool
    energy: float  # energy of the state after accept/reject, before relaxation


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
        energy = cfg.h.evaluate(state.density(cfg))
    before = vec.copy()
    signs = _draw_signs(state.rng, cfg.s_n, walk.m)
    walk.steps(vec, signs)
    _write_symmetric(state.counts, iu, vec)
    prop_energy = cfg.h.evaluate(state.density(cfg))
    delta = prop_energy - energy
    acc_prob = math.exp(-cfg.beta_nr * max(0.0, delta))
    accepted = state.rng.random() < acc_prob
    if accepted:
        energy = prop_energy
    else:
        vec = before
        _write_symmetric(state.counts, iu, vec)
    if cfg.l_nr:
        relax = _draw_signs(state.rng, cfg.l_nr, walk.m)
        walk.steps(vec, relax)
        _write_symmetric(state.counts, iu, vec)
        energy = cfg.h.evaluate(state.density(cfg))
    state.step_index += 1
    return state, accepted, StepDiagnostics(delta, acc_prob, accepted, energy)


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
    one-half start.  Records (and notifies observers) every record_every-th
    step, every milestone step, and the endpoints.  Soft validation warnings
    for the gamma_n regime are emitted once up front.
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
    milestones = set(milestones)
    records: list[ChainRecord] = []
    energy = cfg.h.evaluate(state.density(cfg))

    def record(step: int, acc_prob: float, accepted: bool, energy: float) -> None:
        density = state.density(cfg)
        if not np.isfinite(energy):
            raise FloatingPointError(f"non-finite energy at step {step}")
        rec = ChainRecord(step, cfg.diffusion_time(step), density, energy, acc_prob, accepted)
        records.append(rec)
        for obs in observers:
            obs(rec)

    record(0, 1.0, True, energy)
    for k in range(1, cfg.iterations + 1):
        state, accepted, diag = metropolis_step(state, cfg, walk, energy)
        energy = diag.energy
        if k % record_every == 0 or k == cfg.iterations or k in milestones:
            record(k, diag.acc_prob, accepted, energy)
    return records


def empirical_drift(
    cfg: ChainConfig,
    q0,
    trials: int,
    interior_eps: float = 0.05,
    block: int = 1024,
):
    """Mean one-iteration displacement at q0, normalized by gamma_n r^-4.

    Runs independent single Metropolis iterations from the same quantized
    start, each on its own RNG stream split from cfg.seed, and returns the
    (r x r) normalized drift estimate with its per-coordinate standard
    errors.  The start must be interior: every density in
    [interior_eps, 1 - interior_eps].
    """
    q0_vals = q0.values if isinstance(q0, StepKernel) else np.asarray(q0, dtype=float)
    if q0_vals.min() < interior_eps or q0_vals.max() > 1.0 - interior_eps:
        raise ValueError(f"start must lie in [{interior_eps}, {1 - interior_eps}]")
    counts0 = quantize_density(cfg, q0_vals)
    walk = _CountWalk(cfg)
    caps = walk.caps.astype(float)
    vec0 = counts0[walk.iu]
    energy0 = cfg.h.evaluate(StepKernel(counts0 / cfg.capacities()))
    scale = cfg.r**4 / cfg.gamma_n
    streams = np.random.SeedSequence(cfg.seed).spawn(trials)
    sum_x = np.zeros(walk.m)
    sum_x2 = np.zeros(walk.m)
    done = 0
    full = np.zeros((cfg.r, cfg.r))
    while done < trials:
        k = min(block, trials - done)
        rngs = [np.random.default_rng(s) for s in streams[done : done + k]]
        # per-trial draws follow the single-step order: signs, uniform, relax
        signs = np.stack([_draw_signs(g, cfg.s_n, walk.m) for g in rngs])
        unif = np.array([g.random() for g in rngs])
        vecs = np.broadcast_to(vec0, (k, walk.m)).copy()
        for row in range(cfg.s_n):
            np.add(vecs, signs[:, row, :], out=vecs)
            np.clip(vecs, 0, walk.caps, out=vecs)
        acc = np.empty(k, dtype=bool)
        for i in range(k):
            full[walk.iu] = vecs[i]
            full.T[walk.iu] = vecs[i]
            delta = cfg.h.evaluate(StepKernel(full / cfg.capacities())) - energy0
            acc[i] = unif[i] < math.exp(-cfg.beta_nr * max(0.0, delta))
        vecs[~acc] = vec0
        if cfg.l_nr:
            relax = np.stack([_draw_signs(g, cfg.l_nr, walk.m) for g in rngs])
            for row in range(cfg.l_nr):
                np.add(vecs, relax[:, row, :], out=vecs)
                np.clip(vecs, 0, walk.caps, out=vecs)
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
    steps = cfg.steps_for_horizon(horizon_t)
    rng = np.random.default_rng(cfg.seed)
    state = ChainState.from_density(cfg, init if init is not None else StepKernel.constant(cfg.r, 0.5), rng)
    walk = _CountWalk(cfg)
    caps = walk.caps.astype(float)
    energy = cfg.h.evaluate(state.density(cfg))
    prev = state.counts[walk.iu] / caps
    incs = np.empty((steps, walk.m))
    for k in range(steps):
        state, _, diag = metropolis_step(state, cfg, walk, energy)
        energy = diag.energy
        cur = state.counts[walk.iu] / caps
        incs[k] = cur - prev
        prev = cur
    centered = incs - incs.mean(axis=0, keepdims=True) if steps else incs
    qv = (centered**2).sum(axis=0)
    out = np.zeros((cfg.r, cfg.r))
    _write_symmetric(out, walk.iu, qv)
    return out

"""Measure-valued step kernels and their cut-type distances.

Cells carry finitely supported probability measures on [-1, 1] instead of
numbers.  Distances test cells against a finite family of piecewise-linear
functions with slopes in {-1, 0, 1} on K equal segments (a cover of the
1-Lipschitz, sup-bounded test class), which turns each test function into an
ordinary step kernel via the pairing gamma(psi, W)(i, j) = integral of psi
against the cell measure.  The family has 3^K members, but the pairing is
linear in the slopes and the cut norm is convex and even, so its supremum is
the largest cut norm over the 2^(K-1) +-1 slope words of the K segment ramps;
the metrics evaluate only those.  `wass_cut` is an alias of `delta_black`.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .stepkernel import (
    StepKernel,
    SimpleGraph,
    _block_count,
    _cut_alignment,
    _cut_norm_exhaustive,
    _rms_alignment,
    _weighted_density,
    kernel_from_values,
)

NET_MAX_SEGMENTS = 12
# annealing steps of the measure-valued alignment metrics past r = 8
ANNEAL_EVALS = 2000


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure on [-1, 1], atoms ascending."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.atoms, dtype=float).ravel()
        w = np.array(self.weights, dtype=float).ravel()
        if a.shape != w.shape or a.size == 0:
            raise ValueError("atoms and weights must be matching nonempty vectors")
        if not (np.isfinite(a).all() and np.isfinite(w).all()):
            raise ValueError("atoms and weights must be finite")
        if a.min() < -1.0 - 1e-12 or a.max() > 1.0 + 1e-12:
            raise ValueError("atoms must lie in [-1, 1]")
        if w.min() < -1e-12:
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        order = np.argsort(a, kind="stable")
        a, w = a[order], w[order]
        # merge duplicate atoms and drop zero-weight ones: canonical form
        keep_a, keep_w = [], []
        for ak, wk in zip(a, w):
            if keep_a and ak == keep_a[-1]:
                keep_w[-1] += wk
            elif wk > 0.0:
                keep_a.append(ak)
                keep_w.append(wk)
        a = np.array(keep_a)
        w = np.array(keep_w)
        w = w / w.sum()
        a.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "atoms", a)
        object.__setattr__(self, "weights", w)

    @classmethod
    def dirac(cls, a: float) -> "DiscreteMeasure":
        return cls(np.array([a]), np.array([1.0]))

    @classmethod
    def bernoulli(cls, p: float) -> "DiscreteMeasure":
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        return cls(np.array([0.0, 1.0]), np.array([1.0 - p, p]))

    @classmethod
    def three_point(cls, minus: float, plus: float) -> "DiscreteMeasure":
        """Measure on {-1, 0, +1} with the given tail masses."""
        if minus < 0 or plus < 0 or minus + plus > 1.0 + 1e-12:
            raise ValueError("tail masses must be nonnegative and sum to at most 1")
        return cls(np.array([-1.0, 0.0, 1.0]), np.array([minus, 1.0 - minus - plus, plus]))

    def mean(self) -> float:
        return float(self.atoms @ self.weights)

    def integrate(self, f) -> float:
        return float(f(self.atoms) @ self.weights)


@dataclass(frozen=True)
class MvgKernel:
    """r x r symmetric array of cell measures (upper triangle is canonical)."""

    cells: tuple

    def __post_init__(self) -> None:
        cells = self.cells
        r = len(cells)
        for i in range(r):
            if len(cells[i]) != r:
                raise ValueError("cells must form a square grid")
            for j in range(r):
                if cells[i][j] is not cells[j][i]:
                    raise ValueError("cells must be symmetric (shared objects)")
        object.__setattr__(self, "cells", tuple(tuple(row) for row in cells))

    @property
    def r(self) -> int:
        return len(self.cells)

    @classmethod
    def from_upper(cls, r: int, upper) -> "MvgKernel":
        """Build from a dict {(i, j): measure} covering i <= j."""
        grid = [[None] * r for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                mu = upper[(i, j)]
                grid[i][j] = mu
                grid[j][i] = mu
        return cls(tuple(tuple(row) for row in grid))

    @classmethod
    def constant(cls, r: int, mu: DiscreteMeasure) -> "MvgKernel":
        return cls.from_upper(r, {(i, j): mu for i in range(r) for j in range(i, r)})

    @classmethod
    def dirac_embedding(cls, w: StepKernel) -> "MvgKernel":
        """Point masses at the kernel values: the measure-valued copy of w."""
        return cls.from_upper(
            w.r,
            {
                (i, j): DiscreteMeasure.dirac(w.values[i, j])
                for i in range(w.r)
                for j in range(i, w.r)
            },
        )

    @classmethod
    def bernoulli_embedding(cls, w: StepKernel) -> "MvgKernel":
        """Bernoulli cells with success probabilities given by w (range [0,1])."""
        return cls.from_upper(
            w.r,
            {
                (i, j): DiscreteMeasure.bernoulli(w.values[i, j])
                for i in range(w.r)
                for j in range(i, w.r)
            },
        )

    def permute(self, perm: np.ndarray) -> "MvgKernel":
        perm = np.asarray(perm)
        grid = [[self.cells[perm[i]][perm[j]] for j in range(self.r)] for i in range(self.r)]
        return MvgKernel(tuple(tuple(row) for row in grid))

    def project(self) -> StepKernel:
        """Replace every cell by its mean value."""
        return kernel_from_values(_pair(self, lambda a: a)[0])

    def max_atoms(self) -> int:
        return max(len(self.cells[i][j].atoms) for i in range(self.r) for j in range(i, self.r))


@dataclass(frozen=True, eq=False)
class MvgDiff:
    """Difference of two measure-valued kernels: the concatenated cell arrays
    of both (see _cell_arrays), the second kernel's weights negated.

    Pairing with a test function is linear, so gamma of the difference equals
    the difference of gammas; that is the only algebra this object needs.
    """

    r: int
    atoms: np.ndarray
    weights: np.ndarray
    idx: np.ndarray

    project = MvgKernel.project


def mvg_diff(w1: MvgKernel, w2: MvgKernel) -> MvgDiff:
    if w1.r != w2.r:
        raise ValueError("kernels must share a block count")
    (a1, p1, i1), (a2, p2, i2) = _cell_arrays(w1), _cell_arrays(w2)
    # each cell's atoms keep their order, the first kernel's then the second's
    return MvgDiff(w1.r, np.concatenate([a1, a2]), np.concatenate([p1, -p2]),
                   np.concatenate([i1, i2]))


@dataclass(frozen=True)
class PLFunction:
    """Continuous piecewise-linear function on [-1, 1] stored at breakpoints."""

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        b = np.array(self.breakpoints, dtype=float).ravel()
        v = np.array(self.values, dtype=float).ravel()
        if b.size < 2 or b.shape != v.shape:
            raise ValueError("need matching breakpoints and values, at least two")
        if b[0] != -1.0 or b[-1] != 1.0 or np.any(np.diff(b) <= 0):
            raise ValueError("breakpoints must increase from -1 to 1")
        b.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "breakpoints", b)
        object.__setattr__(self, "values", v)

    def __call__(self, x) -> np.ndarray:
        return np.interp(x, self.breakpoints, self.values)

    @property
    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())

    @property
    def lipschitz(self) -> float:
        return float(np.abs(np.diff(self.values) / np.diff(self.breakpoints)).max())

    @classmethod
    def identity(cls) -> "PLFunction":
        return cls(np.array([-1.0, 1.0]), np.array([-1.0, 1.0]))

    @classmethod
    def constant(cls, c: float) -> "PLFunction":
        return cls(np.array([-1.0, 1.0]), np.array([c, c]))


@dataclass(frozen=True)
class TestNet:
    """PL test functions with slopes in {-1, 0, 1} on `segments` equal pieces.

    Every psi with |psi| <= 1 and Lip(psi) <= 1 is within cover_radius of some
    member in the sup norm on [-1, 1].  The metrics never enumerate the
    3^segments members; node_values gives them as one array.
    """

    requested_radius: float
    cover_radius: float
    segments: int

    def __len__(self) -> int:
        return 3**self.segments

    def node_values(self) -> tuple[np.ndarray, np.ndarray]:
        """The shared breakpoints (segments + 1,) and every member's values at
        them, one row per member (3^segments, segments + 1), in the order of
        itertools.product over the slopes (-1, 0, 1)."""
        k = self.segments
        # base-3 digits of the row index, last digit fastest, are the slopes + 1
        steps = np.indices((3,) * k, dtype=np.int8).reshape(k, -1).T - 1.0
        steps *= 2.0 / k
        vals = np.zeros((len(steps), k + 1))
        np.cumsum(steps, axis=1, out=vals[:, 1:])
        # pin the node at the origin to 0; |values| <= |zeta| <= 1 follows
        vals -= vals[:, k // 2 : k // 2 + 1].copy()
        breaks = np.linspace(-1.0, 1.0, k + 1)
        breaks[0], breaks[-1] = -1.0, 1.0
        return breaks, vals


def build_net(epsilon: float, segments: int | None = None) -> TestNet:
    """PL test functions with slopes in {-1, 0, 1} on equal segments.

    Every candidate is pinned to the value 0 at the origin, the normalisation
    under which a Dirac mass at 0 pairs to zero; on signed differences the
    pinning is free because constants cancel there, and shifting any
    1-Lipschitz function by its value at 0 keeps it inside the unit sup ball.
    The segment count is forced even so the origin is a grid node, and it
    defaults to 2 * ceil(4 / epsilon); more than NET_MAX_SEGMENTS is refused.

    Cover radius is one segment width `w`: tracking a target function
    greedily from the origin keeps every node within w/2, and between nodes
    a chord comparison adds at most another w/2.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    if segments is None:
        segments = 2 * math.ceil(4.0 / epsilon)
    if segments < 2 or segments % 2 != 0:
        raise ValueError(f"segments must be even and at least 2 so 0 is a node, got {segments}")
    if segments > NET_MAX_SEGMENTS:
        raise ValueError(
            f"net needs {segments} segments (> {NET_MAX_SEGMENTS}); "
            "raise epsilon or lower `segments`"
        )
    cover = 2.0 / segments
    if cover > epsilon + 1e-12:
        raise ValueError(
            f"segments={segments} only covers to {cover}, "
            f"which misses epsilon={epsilon}"
        )
    return TestNet(float(epsilon), float(cover), segments)


def gamma_kernel(psi, w: MvgKernel | MvgDiff) -> StepKernel:
    """Pair a test function with every cell measure: an ordinary step kernel."""
    return kernel_from_values(_pair(w, psi)[0])


def _pair(w: MvgKernel | MvgDiff, f) -> np.ndarray:
    """Integral of each row of f(atoms) against every cell: a (k, r, r) stack,
    exactly symmetric because mirrored cells hold the same atoms in the same
    order."""
    atoms, weights, idx = _cell_arrays(w)
    vals = np.asarray(f(atoms), dtype=float).reshape(-1, atoms.size)
    out = np.zeros((len(vals), w.r, w.r))
    np.add.at(out.reshape(len(vals), -1).T, idx, (vals * weights).T)
    return out


def _cell_arrays(w: MvgKernel | MvgDiff):
    """Concatenated atoms/weights with a cell index map, for batched pairing;
    a difference already holds them."""
    if isinstance(w, MvgDiff):
        return w.atoms, w.weights, w.idx
    atoms, weights, idx = [], [], []
    for i in range(w.r):
        for j in range(w.r):
            mu = w.cells[i][j]
            atoms.append(mu.atoms)
            weights.append(mu.weights)
            idx.append(np.full(len(mu.atoms), i * w.r + j))
    return np.concatenate(atoms), np.concatenate(weights), np.concatenate(idx)


def _word_stack(net: TestNet, w: MvgKernel) -> np.ndarray:
    """gamma(psi, w) for every +-1 slope word psi with first slope +1.

    psi = sum_k slope_k phi_k, where phi_k is the unit-slope ramp of segment
    k pinned to 0 at the origin, so gamma(psi, w) = sum_k slope_k C_k with
    C_k = gamma(phi_k, w).  Returns (2^(K-1), r, r).
    """
    k = net.segments
    breaks = np.linspace(-1.0, 1.0, k + 1)
    lo, hi = breaks[:-1, None], breaks[1:, None]
    pairings = _pair(w, lambda a: np.clip(a, lo, hi) - np.clip(0.0, lo, hi)).reshape(k, -1)
    bits = (np.arange(1 << (k - 1))[:, None] >> np.arange(k - 1)) & 1
    words = np.concatenate([np.ones((len(bits), 1)), 1.0 - 2.0 * bits], axis=1)
    return (words @ pairings).reshape(-1, w.r, w.r)


def gen_cut_norm(
    w1: MvgKernel | MvgDiff,
    w2: MvgKernel | None,
    net: TestNet,
) -> tuple[float, float]:
    """Largest cut norm of gamma(psi, W1 - W2) over the net, with its slack.

    The pairing is linear in the slopes and the cut norm is convex and even,
    so the largest value over all 3^K slope words is reached at a +-1 word
    with first slope +1; only those 2^(K-1) words are evaluated.
    The first argument may be a ready-made difference (then pass w2=None).
    Returns (lower, eps): the supremum over the full 1-Lipschitz unit ball
    lies in [lower, lower + eps], where eps is the net cover radius.
    """
    if w2 is not None and w1.r != w2.r:
        raise ValueError("kernels must share a block count")
    g = _word_stack(net, w1)
    if w2 is not None:
        g = g - _word_stack(net, w2)
    return float(_cut_norm_exhaustive(g).max()), net.cover_radius


def delta_black(
    w1: MvgKernel,
    w2: MvgKernel,
    net: TestNet,
    seed: int = 0,
) -> tuple[float, float]:
    """Alignment distance: min over relabelings of gen_cut_norm.

    Returns (lower, eps) with the same bracket semantics as gen_cut_norm;
    the relabeling minimum is exhaustive for r <= 8, annealed beyond.  Past
    r = 24 each relabeling's cut norm is replaced by an upper bound, so only
    lower + eps remains a bound.
    """
    if w1.r != w2.r:
        raise ValueError("kernels must share a block count")
    best = _cut_alignment(_word_stack(net, w1), _word_stack(net, w2), seed, ANNEAL_EVALS)
    return best, net.cover_radius


# Box-aggregated transport distance: the worst box (s, t) of the aggregated
# signed cell measures, tested in dual form against the net, then minimized
# over relabelings.  The sup over boxes and the sup over test functions
# commute, so this is delta_black exactly.
wass_cut = delta_black


def wasserstein1(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact W1 between finite measures on the line (area between CDFs)."""
    grid = np.union1d(mu.atoms, nu.atoms)
    if len(grid) == 1:
        return 0.0
    cdf_mu = _step_cdf(mu, grid)
    cdf_nu = _step_cdf(nu, grid)
    return float(np.sum(np.abs(cdf_mu - cdf_nu)[:-1] * np.diff(grid)))


def _step_cdf(mu: DiscreteMeasure, grid: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(mu.atoms, grid, side="right")
    cum = np.concatenate([[0.0], np.cumsum(mu.weights)])
    return cum[idx]


def wasserstein2(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact W2 on the line via the quantile coupling."""
    cum_mu = np.cumsum(mu.weights)
    cum_nu = np.cumsum(nu.weights)
    levels = np.union1d(cum_mu, cum_nu)
    levels = levels[levels > 1e-15]
    prev = 0.0
    total = 0.0
    for lv in levels:
        width = lv - prev
        if width <= 1e-15:
            continue
        mid = prev + width / 2
        q_mu = mu.atoms[min(np.searchsorted(cum_mu, mid), len(mu.atoms) - 1)]
        q_nu = nu.atoms[min(np.searchsorted(cum_nu, mid), len(nu.atoms) - 1)]
        total += width * (q_mu - q_nu) ** 2
        prev = lv
    return math.sqrt(total)


def d2_distance(w1: MvgKernel, w2: MvgKernel) -> float:
    """Root mean square of cell-wise W2 over the whole grid."""
    if w1.r != w2.r:
        raise ValueError("kernels must share a block count")
    total = 0.0
    for i in range(w1.r):
        for j in range(w1.r):
            total += wasserstein2(w1.cells[i][j], w2.cells[i][j]) ** 2
    return math.sqrt(total / w1.r**2)


def delta2_mvg_upper(w1: MvgKernel, w2: MvgKernel, seed: int = 0) -> float:
    """Relabeling-minimized d2; exhaustive for r <= 8, annealed beyond.

    The cell-pair table D[i, j, k, l] = W2(w1[i][j], w2[k][l])^2 is built
    once, so each relabeling p costs one gather of D[i, j, p_i, p_j].
    """
    if w1.r != w2.r:
        raise ValueError("kernels must share a block count")
    r = w1.r
    cells2 = [nu for row in w2.cells for nu in row]
    table = np.array(
        [[wasserstein2(mu, nu) ** 2 for nu in cells2] for row in w1.cells for mu in row]
    ).reshape(r, r, r, r)
    i, j = np.indices((r, r))
    return _rms_alignment(lambda perms: table[i, j, perms[:, :, None], perms[:, None, :]], r,
                          seed, ANNEAL_EVALS)


def decorated_density(graph: SimpleGraph, decorations, w: MvgKernel) -> float:
    """Density where each edge integrates its own test function on its cell.

    Cells act independently, so each edge contributes gamma(f_e, W) and the
    density is the multi-matrix assignment average.
    """
    if len(decorations) != graph.edge_count:
        raise ValueError("need one decoration per edge")
    mats = [gamma_kernel(f, w).values for f in decorations]
    return _weighted_density(graph, mats)


def _locate_blocks(r: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Blocks of n independent uniform positions under the equal r-partition."""
    return np.minimum((rng.random(n) * r).astype(int), r - 1)


def sample_mvg(w: MvgKernel, n: int, rng: np.random.Generator) -> MvgKernel:
    """The n-cell subsample: uniforms locate blocks, cells are copied."""
    block = _locate_blocks(w.r, n, rng)
    return MvgKernel.from_upper(
        n,
        {(i, j): w.cells[block[i]][block[j]] for i in range(n) for j in range(i, n)},
    )


def sample_weighted_graph(w: MvgKernel, n: int, rng: np.random.Generator) -> StepKernel:
    """n x n symmetric array of independent cell draws (one atom per pair).

    Vertex positions are independent uniforms; entry (i, j) is a draw from the
    cell at the located block pair, mirrored.  Diagonal entries draw from the
    diagonal cells.  Each pair takes one uniform, in row-major upper-triangle
    order, and inverts its cell's CDF built as `Generator.choice` builds it:
    the values and the stream of one `rng.choice(len(p), p=p)` per pair.
    """
    block = _locate_blocks(w.r, n, rng)
    rows, cols = np.triu_indices(n)
    u = rng.random(rows.size)
    cell = block[rows] * w.r + block[cols]
    order = np.argsort(cell, kind="stable")
    ids, starts = np.unique(cell[order], return_index=True)
    drawn = np.empty(rows.size)
    for c, at in zip(ids, np.split(order, starts[1:])):
        mu = w.cells[c // w.r][c % w.r]
        cdf = mu.weights.cumsum()
        cdf /= cdf[-1]
        drawn[at] = mu.atoms[cdf.searchsorted(u[at], side="right")]
    vals = np.zeros((n, n))
    vals[rows, cols] = vals[cols, rows] = drawn
    return kernel_from_values(vals)


def save_mvg_text(w: MvgKernel, path) -> None:
    """Header 'r k_max', then one line per upper cell: 'i j a1 w1 a2 w2 ...'."""
    with open(path, "w") as fh:
        fh.write(f"{w.r} {w.max_atoms()}\n")
        for i in range(w.r):
            for j in range(i, w.r):
                mu = w.cells[i][j]
                pairs = " ".join(
                    f"{float(a)!r} {float(p)!r}" for a, p in zip(mu.atoms, mu.weights)
                )
                fh.write(f"{i} {j} {pairs}\n")


def load_mvg_text(path) -> MvgKernel:
    with open(path) as fh:
        head = fh.readline().split()
        if len(head) != 2:
            raise ValueError(f"{path}: bad header, expected 'r k_max'")
        r = _block_count(path, head[0])
        try:
            k_max = int(head[1])
        except ValueError:
            raise ValueError(f"{path}: atom bound {head[1]!r} is not an integer") from None
        upper = {}
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            try:
                i, j = int(parts[0]), int(parts[1])
                nums = [float(x) for x in parts[2:]]
            except (IndexError, ValueError):
                raise ValueError(f"{path}: bad cell line {line.strip()!r}") from None
            if not 0 <= i <= j < r:
                raise ValueError(f"{path}: cell ({i}, {j}) is outside 0 <= i <= j < {r}")
            if (i, j) in upper:
                raise ValueError(f"{path}: cell ({i}, {j}) appears twice")
            if len(nums[0::2]) > k_max:
                raise ValueError(f"{path}: cell ({i}, {j}) has {len(nums[0::2])} atoms, "
                                 f"past the header's k_max of {k_max}")
            try:
                upper[(i, j)] = DiscreteMeasure(np.array(nums[0::2]), np.array(nums[1::2]))
            except ValueError as exc:
                raise ValueError(f"{path}: cell ({i}, {j}): {exc}") from None
    if len(upper) != r * (r + 1) // 2:
        cells = ((i, j) for i in range(r) for j in range(i, r))
        missing = list(itertools.islice((c for c in cells if c not in upper), 4))
        raise ValueError(f"{path}: missing cells {missing}")
    return MvgKernel.from_upper(r, upper)


def save_net_text(net: TestNet, path) -> None:
    """One function per line as 'breakpoint:value' pairs."""
    breaks, vals = net.node_values()
    heads = [f"{b!r}:" for b in breaks.tolist()]
    with open(path, "w") as fh:
        fh.write(f"# cover_radius {net.cover_radius!r} segments {net.segments}\n")
        # a few thousand rows of Python floats at a time, not all 3^segments
        for start in range(0, len(vals), 4096):
            for row in vals[start : start + 4096].tolist():
                fh.write(" ".join(h + repr(v) for h, v in zip(heads, row)) + "\n")

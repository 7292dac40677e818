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

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .stepkernel import (
    StepKernel,
    SimpleGraph,
    _assignment_sum,
    _block_count,
    _cut_alignment,
    _cut_norm_exhaustive,
    _named_term,
    _rms_alignment,
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
        w = np.array(keep_w)
        object.__setattr__(self, "atoms", _read_only(np.array(keep_a)))
        object.__setattr__(self, "weights", _read_only(w / w.sum()))

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
        return cls(tuple(tuple(upper[min(i, j), max(i, j)] for j in range(r)) for i in range(r)))

    @classmethod
    def constant(cls, r: int, mu: DiscreteMeasure) -> "MvgKernel":
        return cls.from_upper(r, {(i, j): mu for i in range(r) for j in range(i, r)})

    @classmethod
    def dirac_embedding(cls, w: StepKernel) -> "MvgKernel":
        """Point masses at the kernel values: the measure-valued copy of w."""
        return cls._of_values(w, DiscreteMeasure.dirac)

    @classmethod
    def bernoulli_embedding(cls, w: StepKernel) -> "MvgKernel":
        """Bernoulli cells with success probabilities given by w (range [0,1])."""
        return cls._of_values(w, DiscreteMeasure.bernoulli)

    @classmethod
    def _of_values(cls, w: StepKernel, measure) -> "MvgKernel":
        """The kernel whose cell (i, j) is measure(w.values[i, j])."""
        return cls.from_upper(w.r, {(i, j): measure(w.values[i, j])
                                    for i in range(w.r) for j in range(i, w.r)})

    def permute(self, perm: np.ndarray) -> "MvgKernel":
        """The kernel whose cell (i, j) is this one's cell (perm[i], perm[j]);
        perm may repeat blocks and have any length."""
        return MvgKernel(tuple(tuple(self.cells[a][b] for b in perm) for a in perm))

    def project(self) -> StepKernel:
        """Replace every cell by its mean value."""
        return kernel_from_values(_pair(self, lambda a: a)[0])

    def max_atoms(self) -> int:
        return max(len(self.cells[i][j].atoms) for i in range(self.r) for j in range(i, self.r))

    # The array form that pairing and transport read, made once on first read:
    # every cell's atoms and weights, the cells in row-major order, and each
    # entry's cell index i * r + j.
    @functools.cached_property
    def atoms(self) -> np.ndarray:
        return _read_only(np.concatenate([mu.atoms for row in self.cells for mu in row]))

    @functools.cached_property
    def weights(self) -> np.ndarray:
        return _read_only(np.concatenate([mu.weights for row in self.cells for mu in row]))

    @functools.cached_property
    def idx(self) -> np.ndarray:
        sizes = [len(mu.atoms) for row in self.cells for mu in row]
        return _read_only(np.repeat(np.arange(self.r**2), sizes))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class MvgDiff:
    """Difference of two measure-valued kernels: the array forms of both
    (MvgKernel.atoms, .weights, .idx) concatenated, the second's weights negated.

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
    # each cell's atoms keep their order, the first kernel's then the second's
    return MvgDiff(w1.r, np.concatenate([w1.atoms, w2.atoms]),
                   np.concatenate([w1.weights, -w2.weights]), np.concatenate([w1.idx, w2.idx]))


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
        object.__setattr__(self, "breakpoints", _read_only(b))
        object.__setattr__(self, "values", _read_only(v))

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

    segments: int

    def __post_init__(self) -> None:
        try:
            segments = operator.index(self.segments)
        except TypeError:
            raise ValueError(f"segments must be an integer, got {self.segments!r}") from None
        if segments < 2 or segments % 2 != 0:
            raise ValueError(f"segments must be even and at least 2 so 0 is a node, got {segments}")
        if segments > NET_MAX_SEGMENTS:
            raise ValueError(
                f"net needs {segments} segments (> {NET_MAX_SEGMENTS}); "
                "raise epsilon or lower `segments`"
            )
        object.__setattr__(self, "segments", segments)

    def __len__(self) -> int:
        return 3**self.segments

    @property
    def cover_radius(self) -> float:
        """One segment width, 2 / segments (see build_net)."""
        return 2.0 / self.segments

    @property
    def breakpoints(self) -> np.ndarray:
        """The segments + 1 equally spaced nodes from -1 to 1 that every member shares."""
        return np.linspace(-1.0, 1.0, self.segments + 1)

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
        return self.breakpoints, vals


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
        half = 4.0 / epsilon
        # compared before rounding: a tiny epsilon makes half inf or a many-digit integer
        if not half <= NET_MAX_SEGMENTS // 2:
            raise ValueError(
                f"epsilon={epsilon!r} needs 2 * ceil(4 / epsilon) net segments, more than "
                f"{NET_MAX_SEGMENTS}; raise epsilon"
            )
        segments = 2 * math.ceil(half)
    net = TestNet(segments)
    if net.cover_radius > epsilon + 1e-12:
        raise ValueError(
            f"segments={net.segments} only covers to {net.cover_radius}, "
            f"which misses epsilon={epsilon}"
        )
    return net


def gamma_kernel(psi, w: MvgKernel | MvgDiff) -> StepKernel:
    """Pair a test function with every cell measure: an ordinary step kernel."""
    return kernel_from_values(_pair(w, psi)[0])


def _pair(w: MvgKernel | MvgDiff, f) -> np.ndarray:
    """Integral of each row of f(atoms) against every cell: a (k, r, r) stack,
    exactly symmetric because mirrored cells hold the same atoms in the same
    order."""
    vals = np.asarray(f(w.atoms), dtype=float).reshape(-1, w.atoms.size)
    out = np.zeros((len(vals), w.r, w.r))
    np.add.at(out.reshape(len(vals), -1).T, w.idx, (vals * w.weights).T)
    return out


def _word_stack(net: TestNet, w: MvgKernel) -> np.ndarray:
    """gamma(psi, w) for every +-1 slope word psi with first slope +1.

    psi = sum_k slope_k phi_k, where phi_k is the unit-slope ramp of segment
    k pinned to 0 at the origin, so gamma(psi, w) = sum_k slope_k C_k with
    C_k = gamma(phi_k, w).  Returns (2^(K-1), r, r).
    """
    k = net.segments
    lo, hi = net.breakpoints[:-1, None], net.breakpoints[1:, None]
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
    cdf_mu, cdf_nu = (np.concatenate([[0.0], np.cumsum(m.weights)])
                      [np.searchsorted(m.atoms, grid, side="right")] for m in (mu, nu))
    return float(np.sum(np.abs(cdf_mu - cdf_nu)[:-1] * np.diff(grid)))


def wasserstein2(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact W2 on the line via the quantile coupling."""
    one = MvgKernel.constant(1, mu), MvgKernel.constant(1, nu)
    return math.sqrt(_w2_squares(*one, [0], [0])[0])


def _quantile_rows(w: MvgKernel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each cell of w as one row, in row-major order: its atoms and its
    cumulative weights, padded to the most atoms of any cell with the
    cumulative weights +inf past the cell's own, and its atom count.  The
    row-wise cumsum adds each cell's weights in order, as its own cumsum does."""
    count = np.bincount(w.idx, minlength=w.r**2)
    col = np.arange(w.idx.size) - np.repeat(np.cumsum(count) - count, count)
    atoms = np.zeros((w.r**2, count.max()))
    weights = np.zeros_like(atoms)
    atoms[w.idx, col] = w.atoms
    weights[w.idx, col] = w.weights
    cum = np.cumsum(weights, axis=1)
    cum[np.arange(cum.shape[1]) >= count[:, None]] = np.inf
    return atoms, cum, count


def _w2_squares(w1: MvgKernel, w2: MvgKernel, cells1, cells2) -> np.ndarray:
    """W2^2 between cell cells1[k] of w1 and cell cells2[k] of w2, for every k;
    cells are numbered i * r + j.

    The quantile coupling: the cumulative weights of both measures, sorted,
    cut [0, 1] into levels, and each level adds its width times the squared
    gap of the two quantiles at its midpoint.  A level no more than 1e-15
    above the last one kept is skipped, as are repeated levels and the +inf
    pads.  All pairs walk their levels together, so each pair adds its terms
    in order.
    """
    (a1, c1, n1), (a2, c2, n2) = ([x[at] for x in _quantile_rows(w)]
                                  for w, at in ((w1, cells1), (w2, cells2)))
    rows = np.arange(len(c1))
    prev = np.zeros(len(c1))
    total = np.zeros(len(c1))
    for lv in np.sort(np.concatenate([c1, c2], axis=1), axis=1).T:
        width = lv - prev
        keep = (width > 1e-15) & (lv < np.inf)
        # a quantile's index counts the cumulative weights below the midpoint
        mid = (prev + width / 2)[:, None]
        d = (a1[rows, np.minimum((c1 < mid).sum(axis=1), n1 - 1)]
             - a2[rows, np.minimum((c2 < mid).sum(axis=1), n2 - 1)])
        total += np.where(keep, width, 0.0) * (d * d)
        prev = np.where(keep, lv, prev)
    return total


def d2_distance(w1: MvgKernel, w2: MvgKernel) -> float:
    """Root mean square of cell-wise W2 over the whole grid, summed as the
    relabeling search of delta2_mvg_upper sums it."""
    if w1.r != w2.r:
        raise ValueError("kernels must share a block count")
    cells = np.arange(w1.r**2)
    return math.sqrt(_w2_squares(w1, w2, cells, cells).sum() / w1.r**2)


def delta2_mvg_upper(w1: MvgKernel, w2: MvgKernel, seed: int = 0) -> float:
    """Relabeling-minimized d2; exhaustive for r <= 8, annealed beyond.

    The cell-pair table D[i, j, k, l] = W2(w1[i][j], w2[k][l])^2 is built
    once, so each relabeling p costs one gather of D[i, j, p_i, p_j].
    """
    if w1.r != w2.r:
        raise ValueError("kernels must share a block count")
    r = w1.r
    table = _w2_squares(w1, w2, *np.divmod(np.arange(r**4), r**2)).reshape(r, r, r, r)
    i, j = np.indices((r, r))
    return _rms_alignment(lambda perms: table[i, j, perms[:, :, None], perms[:, None, :]], r,
                          seed, ANNEAL_EVALS)


def decorated_density(graph: SimpleGraph, decorations, w: MvgKernel) -> float:
    """Density where each edge integrates its own test function on its cell.

    Cells act independently, so each edge contributes gamma(f_e, W) and the
    density is the multi-matrix assignment average, isolated vertices dropped.
    """
    if len(decorations) != graph.edge_count:
        raise ValueError("need one decoration per edge")
    g = _named_term(graph)[0]
    if not g.edges:
        return 1.0
    mats = [gamma_kernel(f, w).values for f in decorations]
    return float(_assignment_sum(g.edges, mats) / w.r**g.m)


def _locate_blocks(r: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Blocks of n independent uniform positions under the equal r-partition."""
    return np.minimum((rng.random(n) * r).astype(int), r - 1)


def sample_mvg(w: MvgKernel, n: int, rng: np.random.Generator) -> MvgKernel:
    """The n-cell subsample: uniforms locate blocks, cells are copied."""
    return w.permute(_locate_blocks(w.r, n, rng))


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

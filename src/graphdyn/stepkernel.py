"""Symmetric step kernels on the unit square and cut-type distances.

A step kernel is an r x r symmetric matrix read as a piecewise-constant
function on [0,1]^2 with equal blocks.  Homomorphism densities, the cut norm,
and permutation-minimized distances between kernels all live here.
"""
from __future__ import annotations

import functools
import itertools
import math
import string
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import _draws

try:  # the ufunc np.clip ends in, without its Python wrappers
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

UNIT = (0.0, 1.0)
SIGNED = (-1.0, 1.0)

# exhaustive cut-norm enumeration walks 2^r subsets; past this it is refused
CUT_NORM_EXHAUSTIVE_LIMIT = 24
# permutation search switches from enumeration to annealing past this size
PERM_EXHAUSTIVE_LIMIT = 8
# annealing steps of the step-kernel alignment metrics past that size
ANNEAL_EVALS = 4000

# float64 entries of one product of a block of subsets with matrices: keeps
# every gemm on one BLAS thread and in cache, and the peak memory where it was
_CUT_NORM_BUDGET = 1 << 14
# relabelings handed to a batched objective at once by the exhaustive search,
# and raw words the annealer decodes at a time
_PERM_CHUNK = 1 << 8


@dataclass(frozen=True)
class SimpleGraph:
    """Loop-free undirected graph on vertices 0..m-1, held as sorted edges."""

    m: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, m: int, edges) -> None:
        if m < 1:
            raise ValueError("graph needs at least one vertex")
        canon = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < m and 0 <= v < m):
                raise ValueError(f"edge ({u}, {v}) outside 0..{m - 1}")
            canon.add((min(u, v), max(u, v)))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree_sequence(self) -> tuple[int, ...]:
        deg = [0] * self.m
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(sorted(deg))


def edge_graph() -> SimpleGraph:
    return SimpleGraph(2, [(0, 1)])


def path_graph(edges: int) -> SimpleGraph:
    return SimpleGraph(edges + 1, [(i, i + 1) for i in range(edges)])


def triangle_graph() -> SimpleGraph:
    return SimpleGraph(3, [(0, 1), (1, 2), (2, 0)])


def cycle_graph(m: int) -> SimpleGraph:
    return SimpleGraph(m, [(i, (i + 1) % m) for i in range(m)])


@dataclass(frozen=True)
class StepKernel:
    """r x r symmetric block-constant kernel with a declared value range."""

    values: np.ndarray
    range: tuple[float, float] = UNIT

    def __post_init__(self) -> None:
        # C order: past r = 16 the matrix products' last bits follow the memory order
        v = np.array(self.values, dtype=float, order="C")
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("values must be a square matrix")
        if not len(v):
            raise ValueError("r must be at least 1, got 0")
        if not np.isfinite(v).all():
            raise ValueError("values must be finite")
        if not np.array_equal(v, v.T):
            raise ValueError("values must be exactly symmetric")
        lo, hi = self.range
        if v.min() < lo - 1e-12 or v.max() > hi + 1e-12:
            raise ValueError(f"entries escape declared range [{lo}, {hi}]")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def _trusted(cls, values: np.ndarray) -> "StepKernel":
        """Wrap a float square array the caller guarantees symmetric and in [0, 1].

        No copy and no checks: the array is only set read-only.  For values a
        caller built itself from already validated state, such as chain counts
        over capacities; everything else goes through the public constructor.
        The runs step plain arrays and wrap them here only for a record (and
        for a duck-typed energy, whose evaluate takes a kernel).
        """
        values.setflags(write=False)
        kernel = object.__new__(cls)
        object.__setattr__(kernel, "values", values)
        object.__setattr__(kernel, "range", UNIT)
        return kernel

    @property
    def r(self) -> int:
        return self.values.shape[0]

    @classmethod
    def constant(cls, r: int, value: float, range: tuple[float, float] = UNIT) -> "StepKernel":
        return cls(np.full((r, r), float(value)), range)

    def permute(self, perm: np.ndarray) -> "StepKernel":
        perm = np.asarray(perm)
        return StepKernel(self.values[np.ix_(perm, perm)], self.range)

    def refine(self, factor: int) -> "StepKernel":
        """Split every block into factor^2 equal sub-blocks (same function)."""
        if factor < 1:
            raise ValueError("factor must be positive")
        return StepKernel(np.kron(self.values, np.ones((factor, factor))), self.range)


def _finite_entries(values: np.ndarray) -> np.ndarray:
    """values, if every entry is finite; else FloatingPointError naming the first
    non-finite entry in C order, its coordinate and their count."""
    # the common case in two ufunc calls; a sum would be one, but its overflow
    # would have to be silenced, which costs more than the call it saves
    if np.logical_and.reduce(np.isfinite(values), axis=None):
        return values
    bad = ~np.isfinite(values)
    at = np.unravel_index(np.argmax(bad), bad.shape)
    raise FloatingPointError(f"non-finite kernel entries: {float(values[at])} at "
                             f"{tuple(map(int, at))}, {np.count_nonzero(bad)} of {bad.size}")


def _bounds_range(values: np.ndarray) -> tuple[float, float]:
    """Smallest canonical range containing the entries, else tight bounds; none if not finite."""
    lo, hi = float(_finite_entries(values).min(initial=0.0)), float(values.max(initial=0.0))
    if 0.0 <= lo and hi <= 1.0:
        return UNIT
    if -1.0 <= lo and hi <= 1.0:
        return SIGNED
    return (min(lo, 0.0), max(hi, 0.0))


def kernel_from_values(values: np.ndarray) -> StepKernel:
    """Wrap a symmetric matrix, inferring the tightest admissible range."""
    values = np.asarray(values, dtype=float)
    return StepKernel(values, _bounds_range(values))


class _Term(NamedTuple):
    """A named term graph in its canonical labeling and its closed forms: from a
    C-contiguous (B, r, r) stack and r, the sums over the assignments of the
    vertices to blocks, one per kernel, None where the einsum runs; and, from a,
    a @ a, the row sums d and r, the sum of the pinned densities over the edges
    up to symmetrization, which holds in any labeling."""

    graph: SimpleGraph
    density: Callable | None
    gradient: Callable


_TERMS = {
    "edge": _Term(edge_graph(), lambda s, r: s.reshape(len(s), r * r).sum(axis=1),
                  lambda a, a2, d, r: 1.0),
    "path2": _Term(path_graph(2), lambda s, r: (s @ s).reshape(len(s), r * r).sum(axis=1),
                   lambda a, a2, d, r: np.add.outer(d, d) / r),
    "path3": _Term(path_graph(3), None,
                   lambda a, a2, d, r: (np.outer(d, d) + np.add.outer(ad := a @ d, ad)) / r**2),
    "triangle": _Term(triangle_graph(), lambda s, r: (s @ s @ s).trace(axis1=1, axis2=2),
                      lambda a, a2, d, r: 3 * a2 / r),
    "cycle4": _Term(cycle_graph(4), lambda s, r: ((s2 := s @ s) @ s2).trace(axis1=1, axis2=2),
                    lambda a, a2, d, r: 4 * (a2 @ a) / r**2),
    "star3": _Term(SimpleGraph(4, [(0, 1), (0, 2), (0, 3)]), None,
                   lambda a, a2, d, r: 3 * np.add.outer(sq := d * d, sq) / (2 * r**2)),
}
# up to 4 vertices, none isolated, (m, degree sequence) fixes the isomorphism class
_TERM_CLASSES = {(t.graph.m, t.graph.degree_sequence()): t for t in _TERMS.values()}
_LETTERS = string.ascii_letters


@functools.cache
def _named_term(graph: SimpleGraph) -> tuple[SimpleGraph, _Term | None]:
    """graph without its isolated vertices, relabeled in vertex order, and the
    table's entry for its isomorphism class, or None.  An isolated vertex
    contributes a factor of 1 to every density."""
    used = sorted({v for edge in graph.edges for v in edge})
    if len(used) > len(_LETTERS):
        raise ValueError(f"{len(used)} non-isolated vertices; the limit is {len(_LETTERS)}")
    if used and len(used) < graph.m:
        graph = SimpleGraph(len(used), [(used.index(u), used.index(v)) for u, v in graph.edges])
    return graph, _TERM_CLASSES.get((graph.m, graph.degree_sequence()))


def _assignment_sum(edges, mats: list[np.ndarray], keep=()):
    """The sum over vertex assignments of the product of mats[k] at edges[k], the
    vertices in keep left as output axes: one einsum on a _contraction_path."""
    subs = ",".join(_LETTERS[u] + _LETTERS[v] for u, v in edges)
    subs += "->" + "".join(_LETTERS[v] for v in keep)
    return np.einsum(subs, *mats, optimize=_contraction_path(subs, len(mats[0])))


@functools.lru_cache(maxsize=64)
def _contraction_path(subs: str, r: int) -> tuple:
    """The contraction einsum(optimize=True) plans for r x r operands.  The plan
    depends only on the subscripts and the shapes, so it is made once per pair."""
    ops = [np.empty((r, r))] * (subs.count(",") + 1)
    return tuple(np.einsum_path(subs, *ops, optimize=True)[0])


def hom_density(graph: SimpleGraph, w: StepKernel) -> float:
    """Homomorphism density t(F, w), averaging edge products over assignments.

    Isolated vertices are dropped first.  The edge, 2-path, triangle and
    4-cycle classes, in any labeling, take the named term graphs' closed forms;
    any other graph, of at most 52 vertices, takes one einsum over assignments.
    """
    return float(_density_stack(graph, w.values[None])[0])


def _density_stack(graph: SimpleGraph, stack: np.ndarray) -> np.ndarray:
    """hom_density of each kernel in a C-contiguous (B, r, r) stack: the table's
    closed form over the whole stack, else one planned einsum per kernel.

    A kernel's density does not depend on the stack it sits in: a row sum of
    a C-contiguous (B, n) array adds each row as that row's own sum adds it.
    test_hamiltonian's stack-independence test checks this at r = 1..40.
    """
    g, term = _named_term(graph)
    if not g.edges:
        return np.ones(len(stack))
    r = stack.shape[-1]
    if term is not None and term.density is not None:
        total = term.density(stack, r)
    else:
        total = np.array([_assignment_sum(g.edges, [a] * g.edge_count) for a in stack])
    return total / r**g.m


@functools.cache
def _tree_order(n: int) -> np.ndarray:
    """The order in which _pairwise_sum takes n slabs: each full group of 8 as
    slabs 0, 4, 2, 6, 1, 5, 3, 7 of the group, the rest as they come."""
    order = np.arange(n)
    full = n - n % 8
    order[:full] = order[:full].reshape(-1, 8)[:, [0, 4, 2, 6, 1, 5, 3, 7]].ravel()
    order.setflags(write=False)
    return order


def _pairwise_sum(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=0) of an (n, ...) array of slabs laid out in _tree_order(n),
    bit for bit as numpy's pairwise sum adds a contiguous row of n <= 128
    entries, which numpy's own axis-0 reduction, adding the slabs in order,
    does not: below 8 slabs one by one; else in 8 accumulators over strides
    of 8, joined as ((0+1)+(2+3))+((4+5)+(6+7)), then the rest one by one.
    The tree order puts the partners of each join in the two halves of a
    contiguous block, so every join is one in-place add.  Overwrites x's
    leading slabs."""
    n = len(x)
    if n < 8:
        for k in range(1, n):
            np.add(x[0], x[k], out=x[0])
        return x[0]
    acc = x[:8]
    for i in range(8, n - n % 8, 8):
        np.add(acc, x[i:i + 8], out=acc)
    for half in (4, 2, 1):
        np.add(x[:half], x[half:2 * half], out=x[:half])
    total = x[0]
    for i in range(n - n % 8, n):
        np.add(total, x[i], out=total)
    return total


def hom_density_pinned(graph: SimpleGraph, w: StepKernel, pin_edge: int) -> np.ndarray:
    """Density with one edge removed and its endpoints pinned to blocks (i, j).

    Returns the r x r matrix of pinned densities, normalized by r^(m-2), m not
    counting isolated vertices: one einsum over the other vertices' assignments.
    """
    return _pinned_density(graph, w.values, pin_edge)


def _pinned_density(graph: SimpleGraph, a: np.ndarray, pin_edge: int) -> np.ndarray:
    """hom_density_pinned of the r x r kernel values a."""
    g = _named_term(graph)[0]
    r = len(a)
    u, v = g.edges[pin_edge]
    rest = [edge for edge in g.edges if edge != (u, v)]
    # a pinned end may lose all its edges; the einsum keeps only the ends left
    ends = {x for edge in rest for x in edge}
    keep = [x for x in (u, v) if x in ends]
    total = _assignment_sum(rest, [a] * len(rest), keep) if rest else 1.0
    shape = (r if u in ends else 1, r if v in ends else 1)
    return np.broadcast_to(np.reshape(total, shape), (r, r)) / r ** (g.m - 2)


@functools.cache
def _subset_block(r: int) -> np.ndarray:
    """The first 2^b columns of the r x 2^r 0/1 subset matrix, column k holding
    the bits of k: b = r while 2^r columns of r entries fit the budget, else as
    many as fit."""
    bits = min(r, (_CUT_NORM_BUDGET // r).bit_length() - 1)
    s = ((np.arange(1 << bits) >> np.arange(r)[:, None]) & 1).astype(float)
    s.setflags(write=False)
    return s


@functools.cache
def _signed_subset_block(r: int) -> np.ndarray:
    """[S, -S] for the full r x 2^r subset matrix S: one product with A^T gives
    the rows of s^T A and of -(s^T A) for every subset s."""
    s = _subset_block(r)
    signed = np.concatenate([s, -s], axis=1)
    signed.setflags(write=False)
    return signed


def _cut_norm_exhaustive(a: np.ndarray) -> np.ndarray:
    """Exact cut norm of an r x r matrix, or of every matrix in a (..., r, r) stack.

    The columns of the matrices are stacked as the rows of one (r n) x r matrix,
    in _tree_order(r), so one gemm with a block of subset columns s gives A^T s
    for several matrices A at once, each column's subset sums one contiguous
    slab, laid out as _pairwise_sum takes them.  Past the cached block
    (r >= 11), a copy of it has its high bits refilled for each further block
    of subsets.  A stack of one whose product with the signed
    block [S, -S] fits the budget (r <= 9), as every annealed step scores it,
    takes that one product instead: negating every addend of an ordered sum
    negates each rounded partial sum, so the -S half is the negative part's
    pass bit for bit.
    """
    r = a.shape[-1]
    if r > CUT_NORM_EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"exhaustive cut norm enumerates 2^{r} subsets; past r = "
            f"{CUT_NORM_EXHAUSTIVE_LIMIT} use method='heuristic'"
        )
    n = math.prod(a.shape[:-2])
    cols = a.reshape(n, r, r).transpose(2, 0, 1)[_tree_order(r)]
    if n == 1 and r << (r + 1) <= _CUT_NORM_BUDGET:
        v = cols.reshape(r, r) @ _signed_subset_block(r)
        # np.maximum(x, 0.0) is +0.0 at either zero, so no sum and no max is -0.0
        top = _pairwise_sum(np.maximum(v, 0.0, out=v)).max()
        return np.full(a.shape[:-2], top / r**2)
    s = _subset_block(r)
    low = s.shape[1].bit_length() - 1
    if low < r:
        s = s.copy()
    per = max(1, _CUT_NORM_BUDGET // (s.shape[1] * r))
    best = np.zeros(n)
    for block in range(1 << (r - low)):
        if block:
            s[low:] = (block >> np.arange(r - low))[:, None] & 1
        for lo in range(0, n, per):
            part = best[lo:lo + per]
            v = (cols[:, lo:lo + per].reshape(-1, r) @ s).reshape(r, -1)
            # best t for fixed s picks the positive (or negative) part of s^T A;
            # the slab sums add the r columns as sum(axis=-1) adds a row of s^T A
            pos = _pairwise_sum(np.maximum(v, 0.0))
            neg = _pairwise_sum(np.maximum(np.negative(v, out=v), 0.0, out=v))
            top = np.maximum(pos, neg, out=pos).reshape(len(part), -1).max(axis=1, initial=0.0)
            np.maximum(part, top, out=part)
            # pos and neg may be views of the chunk's two buffers: let them go
            # before the next gemm, so that no more than two are ever held
            del v, pos, neg
    return (best / r**2).reshape(a.shape[:-2])


def _cut_norm_heuristic(a: np.ndarray, restarts: int, seed: int) -> float:
    r = a.shape[0]
    rng = np.random.default_rng(seed)
    best = 0.0
    for k in range(restarts):
        for sign in (1.0, -1.0):
            s = (rng.random(r) < 0.5).astype(float) if k else np.ones(r)
            val = -1.0
            for _ in range(200):
                t = (sign * (s @ a) > 0).astype(float)
                s = (sign * (a @ t) > 0).astype(float)
                new = sign * (s @ a @ t)
                if new <= val:
                    break
                val = new
            best = max(best, val)
    return best / r**2


def cut_norm(
    w: StepKernel | np.ndarray,
    method: str = "auto",
    restarts: int = 64,
    seed: int = 0,
) -> float:
    """Cut norm: the largest |sum of entries over a sub-box| / r^2.

    'exhaustive' enumerates subset pairs exactly.  'heuristic' is alternating
    sign ascent from seeded restarts and never exceeds the exhaustive value.
    'auto' picks exhaustive while feasible.
    """
    if restarts < 1:  # with no restart the heuristic would return 0.0
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    a = w.values if isinstance(w, StepKernel) else np.asarray(w, dtype=float)
    if not len(a):
        raise ValueError("cut norm needs at least one block")
    if method == "auto":
        method = "exhaustive" if a.shape[0] <= CUT_NORM_EXHAUSTIVE_LIMIT else "heuristic"
    if method == "exhaustive":
        return float(_cut_norm_exhaustive(a))
    if method == "heuristic":
        return _cut_norm_heuristic(a, restarts, seed)
    raise ValueError(f"unknown method {method!r}")


def l2_norm(w: StepKernel | np.ndarray) -> float:
    a = w.values if isinstance(w, StepKernel) else np.asarray(w, dtype=float)
    # (a * a).mean() bit for bit, without the method's Python wrapper
    return math.sqrt(float(np.add.reduce(a * a, axis=None)) / a.size) if a.size else 0.0


def l2_distance(w1: StepKernel, w2: StepKernel) -> float:
    w1, w2 = _to_common_r(w1, w2)
    return l2_norm(w1.values - w2.values)


def _to_common_r(w1: StepKernel, w2: StepKernel) -> tuple[StepKernel, StepKernel]:
    if w1.r == w2.r:
        return w1, w2
    common = math.lcm(w1.r, w2.r)
    return w1.refine(common // w1.r), w2.refine(common // w2.r)


def minimize_over_permutations(
    objective,
    r: int,
    seed: int = 0,
    anneal_evals: int = ANNEAL_EVALS,
) -> tuple[float, np.ndarray]:
    """Minimize a function of a block relabeling.

    The objective is batched: it maps a (P, r) int array of relabelings to
    their (P,) values.  Exhaustive up to PERM_EXHAUSTIVE_LIMIT blocks, fed in
    chunks in itertools.permutations order; the first strict minimum wins and
    a NaN is never chosen.  Beyond that, seeded simulated annealing over
    transpositions, one relabeling per call, starting from the identity; the
    result is an upper bound for the true minimum.  The annealer draws its
    acceptance uniform only on an uphill proposal (val >= cur_val), so its
    path, and the RNG stream after it, follow the last bits of every value:
    a faster objective must give the same bits, not just close values.

    The annealer's draws are those of np.random.default_rng(seed), one
    integers(0, r, size=2) per proposal and one random() per uphill step,
    but no Generator call makes them: each draw is decoded from the next raw
    word of that generator's stream, taken _PERM_CHUNK words at a time, by
    _draws.AnnealDraws, which falls back to Generator calls by _draws' rule.
    """
    if r <= PERM_EXHAUSTIVE_LIMIT:
        best, best_p = math.inf, None
        perms = itertools.permutations(range(r))
        while chunk := list(itertools.islice(perms, _PERM_CHUNK)):
            ps = np.array(chunk, dtype=np.intp)
            vals = np.asarray(objective(ps), dtype=float)
            k = int(np.argmin(np.where(np.isnan(vals), np.inf, vals)))
            if vals[k] < best:
                best, best_p = float(vals[k]), ps[k].copy()
        return best, best_p
    draws = _draws.AnnealDraws(seed, r, _PERM_CHUNK)
    # relabelings are lists, each handed over as a fresh (1, r) array
    cur = list(range(r))
    cur_val = float(objective(np.array([cur], dtype=np.intp))[0])
    best, best_p = cur_val, cur
    temp = max(cur_val, 1e-3)
    decay = 0.01 ** (1.0 / max(anneal_evals, 1))
    for _ in range(anneal_evals):
        i, j = draws.pair()
        if i == j:
            continue
        cand = cur.copy()
        cand[i], cand[j] = cand[j], cand[i]
        val = float(objective(np.array([cand], dtype=np.intp))[0])
        if val < cur_val or draws.uniform() < math.exp(-(val - cur_val) / max(temp, 1e-12)):
            cur, cur_val = cand, val
            if val < best:
                best, best_p = val, cand
        temp *= decay
    return best, np.array(best_p, dtype=np.intp)


def _relabeled(b: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """b[..., p, p] for every relabeling p in a (P, r) array: a (..., P, r, r) stack.
    One relabeling, as every annealed step scores, is two takes: the same gather."""
    if len(perms) == 1:
        p = perms[0]
        return b.take(p, axis=-2).take(p, axis=-1)[..., None, :, :]
    return b[..., perms[:, :, None], perms[:, None, :]]


def _cut_norm_bound(a: np.ndarray) -> np.ndarray:
    """An upper bound of the cut norm of every matrix in a (..., r, r) stack.

    For 0/1 vectors s and t, |s^T A t| <= |s| |t| sigma_max(A) <= r sigma_max(A)
    and |s^T A t| <= sum |A|, so the cut norm is at most
    min(sigma_max(A) / r, mean |A|).
    """
    r = a.shape[-1]
    top = np.linalg.svd(a, compute_uv=False)[..., 0]
    return np.minimum(top / r, np.abs(a).mean(axis=(-2, -1)))


def _cut_alignment(g1: np.ndarray, g2: np.ndarray, seed: int, evals: int) -> float:
    """min over relabelings p of max_k ||g1[k] - g2[k][p, p]||_box, for two
    (K, r, r) stacks.

    Each difference stack holds at most _CUT_NORM_BUDGET entries.  Past
    CUT_NORM_EXHAUSTIVE_LIMIT each cut norm is replaced by _cut_norm_bound, so
    the result stays an upper bound of the minimum.
    """
    r = g1.shape[-1]
    norm = _cut_norm_exhaustive if r <= CUT_NORM_EXHAUSTIVE_LIMIT else _cut_norm_bound
    # relabelings per difference stack
    step = max(1, _CUT_NORM_BUDGET // g2.size)

    def perm_objective(perms: np.ndarray) -> np.ndarray:
        if len(perms) <= step:  # one stack: every annealed call, most exhaustive chunks
            return norm(g1[:, None] - _relabeled(g2, perms)).max(axis=0)
        return np.concatenate([
            norm(g1[:, None] - _relabeled(g2, perms[lo:lo + step])).max(axis=0)
            for lo in range(0, len(perms), step)
        ])

    return minimize_over_permutations(perm_objective, r, seed, evals)[0]


def _rms_alignment(squares, r: int, seed: int, evals: int) -> float:
    """min over relabelings p of sqrt(sum(squares(p)) / r^2), where squares maps
    a (P, r) array of relabelings to a (P, r, r) stack of squared gaps."""

    def perm_objective(perms: np.ndarray) -> np.ndarray:
        return np.sqrt(squares(perms).reshape(len(perms), -1).sum(axis=1) / r**2)

    return minimize_over_permutations(perm_objective, r, seed, evals)[0]


def cut_metric_upper(w1: StepKernel, w2: StepKernel, seed: int = 0) -> float:
    """Upper bound of the cut metric: min over block relabelings of the
    cut norm of the difference, after refining to a common block count.
    Past CUT_NORM_EXHAUSTIVE_LIMIT blocks each cut norm is replaced by the
    bound min(sigma_max / r, mean |.|)."""
    w1, w2 = _to_common_r(w1, w2)
    return _cut_alignment(w1.values[None], w2.values[None], seed, ANNEAL_EVALS)


def delta2_upper(w1: StepKernel, w2: StepKernel, seed: int = 0) -> float:
    """Upper bound of the L2 block distance, minimized over relabelings."""
    w1, w2 = _to_common_r(w1, w2)
    a, b = w1.values, w2.values
    return _rms_alignment(lambda perms: np.square(a - _relabeled(b, perms)), w1.r, seed,
                          ANNEAL_EVALS)


def save_kernel_text(w: StepKernel, path) -> None:
    """Plain text: header 'r lo hi', then r whitespace-separated rows."""
    with open(path, "w") as fh:
        fh.write(f"{w.r} {w.range[0]!r} {w.range[1]!r}\n")
        for row in w.values:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def _block_count(path, field: str) -> int:
    """A file header's block count r: an integer of at least 1."""
    try:
        r = int(field)
    except ValueError:
        raise ValueError(f"{path}: block count {field.strip()!r} is not an integer") from None
    if r < 1:
        raise ValueError(f"{path}: block count must be at least 1, got {r}")
    return r


def load_kernel_text(path) -> StepKernel:
    """The kernel of a save_kernel_text file: at most r lines are read after its
    'r lo hi' header, and only blank lines may follow them."""
    with open(path) as fh:
        head = fh.readline().split()
        if len(head) != 3:
            raise ValueError(f"{path}: bad header, expected 'r lo hi'")
        r = _block_count(path, head[0])
        try:
            rng = (float(head[1]), float(head[2]))
            rows = [[float(x) for x in line.split()] for line in itertools.islice(fh, r)]
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if len(rows) != r or any(len(row) != r for row in rows):
            raise ValueError(f"{path}: expected {r} rows of {r} entries")
        if any(line.strip() for line in fh):
            raise ValueError(f"{path}: a line follows the {r} rows")
    try:
        return StepKernel(np.array(rows), rng)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_kernel_pgm(w: StepKernel, path) -> None:
    """ASCII PGM heatmap; values are scaled linearly from range to 0..255."""
    lo, hi = w.range
    span = hi - lo if hi > lo else 1.0
    gray = np.rint(255 * (w.values - lo) / span).astype(int)
    with open(path, "w") as fh:
        fh.write(f"P2\n{w.r} {w.r}\n255\n")
        for row in gray:
            fh.write(" ".join(str(int(g)) for g in row) + "\n")

"""Energy functionals built from homomorphism densities plus entropy.

H(w) = sum_k c_k t(F_k, w) + gamma * mean of h(w_ij), with
h(p) = p log p + (1-p) log(1-p).  The gradient is taken in the normalized
inner product <u, v> = mean(u * v), so that evaluate(w + s u) has derivative
<grad, u> at s = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# xlogy is imported where it is used: scipy.special takes about 0.3 s to
# load, and only an entropy-weighted energy needs it
from .stepkernel import (
    SimpleGraph,
    StepKernel,
    _TERMS,
    _density_stack,
    _finite_entries,
    _named_term,
    _pinned_density,
    edge_graph,
    triangle_graph,
)

# gradient of the entropy term blows up at 0 and 1; entries are clipped here
ENTROPY_CLIP = 1e-9

MAX_TERM_VERTICES = 4


@dataclass(frozen=True)
class Hamiltonian:
    """Weighted density terms on connected graphs with at most 4 vertices."""

    terms: tuple[tuple[float, SimpleGraph], ...]
    entropy_weight: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple((float(c), g) for c, g in self.terms))
        for _, g in self.terms:
            if g.m > MAX_TERM_VERTICES:
                raise ValueError(f"term graph has {g.m} > {MAX_TERM_VERTICES} vertices")
            if not _connected(g):
                raise ValueError("term graphs must be connected")
        if not all(math.isfinite(c) for c, _ in self.terms):
            raise ValueError("term coefficients must be finite")
        if not (math.isfinite(self.entropy_weight) and self.entropy_weight >= 0):
            raise ValueError("entropy weight must be finite and nonnegative")

    def evaluate(self, w: StepKernel) -> float:
        return float(self.evaluate_stack(w.values[None])[0])

    # a non-finite energy is named by the caller's guard, not warned of first
    @np.errstate(over="ignore", invalid="ignore")
    def evaluate_stack(self, values: np.ndarray) -> np.ndarray:
        """The energy of every kernel in a (B, r, r) stack of symmetric values,
        read in C order, as a (B,) array: each term's density over the whole
        stack, the terms added in order from 0, then the entropy's mean."""
        values = np.ascontiguousarray(values, dtype=float)
        b, r = len(values), values.shape[-1]
        val = np.zeros(b)
        for c, g in self.terms:
            val += c * _density_stack(g, values)
        if self.entropy_weight:
            val += self.entropy_weight * (_entropy(values).reshape(b, r * r).sum(axis=1) / r**2)
        return val

    # an overflow is named by the finite-check at the end, not warned of first;
    # as a decorator errstate costs a third of what a with-block does
    @np.errstate(over="ignore", invalid="ignore")
    def frechet_derivative(self, a: np.ndarray) -> np.ndarray:
        """Gradient at the kernel values a, an exactly symmetric r x r array: over
        the terms, the edge-pinned densities summed and symmetrized.  A named term
        graph takes its closed form from a @ a and the row sums, made once per
        call; any other graph sums pinned einsums.  Non-finite entries raise."""
        r = len(a)
        a2, d = a @ a, a.sum(1)
        g_total = np.zeros((r, r))
        for c, graph in self.terms:
            term = _named_term(graph)[1]
            if term is not None:
                g_total += c * term.gradient(a, a2, d, r)
                continue
            for e in range(graph.edge_count):
                g_total += c * _pinned_density(graph, a, e)
        g_total = (g_total + g_total.T) / 2  # pinned densities and a @ a may be asymmetric
        if self.entropy_weight:
            p = np.clip(a, ENTROPY_CLIP, 1.0 - ENTROPY_CLIP)
            g_total += self.entropy_weight * np.log(p / (1.0 - p))
        return _finite_entries(g_total)

    @property
    def semiconvexity_lower(self) -> float:
        """Lower sandwich constant: the quadratic remainder of evaluate along
        segments is bounded below by (this / 2) * ||u - v||_2^2.  Linear terms
        contribute no curvature; the entropy term only helps and is excluded."""
        return -self._curvature_bound()

    @property
    def smoothness_upper(self) -> float:
        return self._curvature_bound()

    def _curvature_bound(self) -> float:
        return sum(
            abs(c) * g.edge_count * g.m * (g.m - 1)
            for c, g in self.terms
            if g.edge_count >= 2
        ) / 2.0

    @property
    def cut_lipschitz(self) -> float:
        """Lipschitz constant of the density part w.r.t. the cut norm."""
        return sum(abs(c) * g.edge_count * (g.edge_count - 1) for c, g in self.terms)


def _entropy(p: np.ndarray) -> np.ndarray:
    from scipy.special import xlogy

    return xlogy(p, p) + xlogy(1.0 - p, 1.0 - p)


def named_term_graph(name: str) -> SimpleGraph:
    try:
        return _TERMS[name].graph
    except KeyError:
        raise ValueError(f"unknown term graph {name!r}; known: {sorted(_TERMS)}") from None


def triangle_edge_hamiltonian(
    triangle_coeff: float = 1.0,
    edge_coeff: float = -0.25,
    entropy_weight: float = 0.0,
) -> Hamiltonian:
    return Hamiltonian(
        ((triangle_coeff, triangle_graph()), (edge_coeff, edge_graph())),
        entropy_weight,
    )


def _connected(g: SimpleGraph) -> bool:
    if g.m == 1:
        return True
    seen = {0}
    frontier = [0]
    adj = {v: set() for v in range(g.m)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    while frontier:
        nxt = adj[frontier.pop()] - seen
        seen |= nxt
        frontier.extend(nxt)
    return len(seen) == g.m

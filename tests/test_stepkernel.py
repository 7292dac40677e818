"""Block kernels: densities, cut norms, alignment metrics, serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphdyn import (
    SimpleGraph,
    StepKernel,
    cut_metric_upper,
    cut_norm,
    cycle_graph,
    delta2_upper,
    edge_graph,
    hom_density,
    hom_density_pinned,
    kernel_from_values,
    l2_distance,
    l2_norm,
    load_kernel_text,
    minimize_over_permutations,
    path_graph,
    save_kernel_pgm,
    save_kernel_text,
    triangle_graph,
)

from graphdyn import hamiltonian, stepkernel
from graphdyn.hamiltonian import Hamiltonian, named_term_graph
from graphdyn.sde import limit_drift
from graphdyn import _draws
from graphdyn._draws import AnnealDraws, lemire
from graphdyn.stepkernel import _cut_norm_bound, _cut_norm_exhaustive

from oracles import (
    anneal_call_by_call,
    cut_norm_brute,
    cut_norm_fractional,
    cut_norm_rowsum,
    hom_density_brute,
    labeled_graphs,
    min_over_perms_brute,
)


def random_kernel(rng, r, lo=0.0, hi=1.0):
    vals = rng.uniform(lo, hi, (r, r))
    vals = (vals + vals.T) / 2
    return StepKernel(vals, (lo, hi))


# ---------------------------------------------------------------- types


def test_simple_graph_canonicalizes_edges():
    g = SimpleGraph(3, [(2, 0), (0, 2), (1, 0)])
    assert g.edges == ((0, 1), (0, 2))
    assert g.edge_count == 2
    assert g.degree_sequence() == (1, 1, 2)


def test_simple_graph_rejects_loops_and_bad_vertices():
    with pytest.raises(ValueError):
        SimpleGraph(3, [(1, 1)])
    with pytest.raises(ValueError):
        SimpleGraph(2, [(0, 2)])
    with pytest.raises(ValueError):
        SimpleGraph(0, [])


def test_stepkernel_requires_exact_symmetry_and_range():
    with pytest.raises(ValueError):
        StepKernel(np.array([[0.1, 0.2], [0.3, 0.1]]))
    with pytest.raises(ValueError):
        StepKernel(np.array([[1.5, 0.2], [0.2, 0.1]]))
    for shape in ((2, 3), (4,), (2, 2, 2)):
        with pytest.raises(ValueError, match="square matrix"):
            StepKernel(np.zeros(shape))
    w = StepKernel(np.array([[-0.5, 0.2], [0.2, 0.1]]), (-1.0, 1.0))
    assert w.r == 2


def test_a_kernel_has_at_least_one_block():
    # before, the empty kernel was accepted: its triangle density was nan with
    # a RuntimeWarning, its energy nan, and its text file one the loader refused
    for make in (lambda: StepKernel(np.zeros((0, 0))), lambda: StepKernel.constant(0, 0.5),
                 lambda: kernel_from_values(np.zeros((0, 0)))):
        with pytest.raises(ValueError, match="r must be at least 1, got 0"):
            make()


def test_stepkernel_values_are_frozen_copies():
    src = np.array([[0.1, 0.2], [0.2, 0.3]])
    w = StepKernel(src)
    src[0, 0] = 0.9
    assert w.values[0, 0] == 0.1
    with pytest.raises(ValueError):
        w.values[0, 0] = 0.4



@pytest.mark.parametrize("r", [17, 18, 19, 20])
def test_fortran_ordered_values_give_the_densities_of_their_c_copy(r):
    # past r = 16 the matrix products' last bits follow the memory order of
    # their operands, so a kernel stores its values in C order
    rng = np.random.default_rng(r)
    for _ in range(64):
        vals = rng.uniform(0.0, 1.0, (r, r))
        vals = np.asfortranarray((vals + vals.T) / 2)
        f, c = StepKernel(vals), StepKernel(np.ascontiguousarray(vals))
        assert f.values.flags.c_contiguous
        for graph in (triangle_graph(), path_graph(2)):
            assert hom_density(graph, f) == hom_density(graph, c)


def test_kernel_from_values_infers_canonical_ranges():
    assert kernel_from_values(np.array([[0.2]])).range == (0.0, 1.0)
    assert kernel_from_values(np.array([[-0.2]])).range == (-1.0, 1.0)
    assert kernel_from_values(np.array([[3.0]])).range == (0.0, 3.0)


@pytest.mark.filterwarnings("error")  # the guards name an overflow; numpy does not warn first
def test_non_finite_entries_are_named_by_value_coordinate_and_count():
    # the entry itself is named: a range taken with min(initial=0.0) would
    # read "min 0.0" for a matrix that is inf everywhere
    with pytest.raises(FloatingPointError,
                       match=r"^non-finite kernel entries: inf at \(0, 0\), 16 of 16$"):
        kernel_from_values(np.full((4, 4), math.inf))
    vals = np.full((3, 3), 0.5)
    vals[1, 2] = vals[2, 1] = math.nan
    vals[2, 0] = vals[0, 2] = -math.inf
    with pytest.raises(FloatingPointError,
                       match=r"^non-finite kernel entries: -inf at \(0, 2\), 4 of 9$"):
        kernel_from_values(vals)
    # finite entries whose sum overflows pass unchanged and without a warning
    huge = np.full((2, 2), 1e308)
    assert stepkernel._finite_entries(huge) is huge
    # inf and -inf, whose sum is nan, are named by the first in C order
    mixed = np.full((3, 3), 0.5)
    mixed[0, 1] = mixed[1, 0] = math.inf
    mixed[2, 2] = -math.inf
    with pytest.raises(FloatingPointError,
                       match=r"^non-finite kernel entries: inf at \(0, 1\), 3 of 9$"):
        stepkernel._finite_entries(mixed)
    # the gradient's and the drift's checks give the same message
    big = Hamiltonian(((1e308, triangle_graph()), (1e308, path_graph(2)),
                       (1e308, cycle_graph(4))))
    with pytest.raises(FloatingPointError,
                       match=r"^non-finite kernel entries: inf at \(0, 0\), 16 of 16$"):
        big.frechet_derivative(np.full((4, 4), 0.5))
    tri = Hamiltonian(((1e308, triangle_graph()),))
    with pytest.raises(FloatingPointError,
                       match=r"^non-finite kernel entries: -inf at \(0, 0\), 16 of 16$"):
        limit_drift(tri, np.full((4, 4), 0.5), 10.0)


# ---------------------------------------------------------------- hom_density


def test_edge_density_of_constant_kernel_is_p():
    for p in (0.0, 0.3, 1.0):
        assert hom_density(edge_graph(), StepKernel.constant(4, p)) == pytest.approx(p)


def test_triangle_density_vanishes_on_bipartite_kernel():
    w = StepKernel(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert hom_density(triangle_graph(), w) == 0.0


def test_triangle_density_matches_brute_force_on_random_kernels():
    rng = np.random.default_rng(7)
    g = triangle_graph()
    for _ in range(5):
        w = random_kernel(rng, 4)
        brute = hom_density_brute(g.m, list(g.edges), w.values)
        assert hom_density(g, w) == pytest.approx(brute, abs=1e-12)


NAMED_TERM_GRAPHS = ("edge", "path2", "path3", "triangle", "cycle4", "star3")
# every labeled graph on up to 4 vertices, isolated vertices included
LABELED = [SimpleGraph(m, edges) for m, edges in labeled_graphs(4)]


def graph_id(g):
    for name in NAMED_TERM_GRAPHS:
        if g == named_term_graph(name):
            return name
    return f"m{g.m}" + "".join(f"-{u}{v}" for u, v in g.edges)


def without_isolated(g):
    used = sorted({v for edge in g.edges for v in edge})
    return SimpleGraph(max(len(used), 1), [(used.index(u), used.index(v)) for u, v in g.edges])


@pytest.mark.parametrize("graph", LABELED, ids=graph_id)
def test_density_fast_paths_match_brute_force(graph):
    rng = np.random.default_rng(11)
    for _ in range(3):
        w = random_kernel(rng, 5)
        brute = hom_density_brute(graph.m, list(graph.edges), w.values)
        assert hom_density(graph, w) == pytest.approx(brute, abs=1e-12)


def test_density_is_permutation_invariant():
    rng = np.random.default_rng(3)
    w = random_kernel(rng, 6)
    for graph in (edge_graph(), triangle_graph(), cycle_graph(4), path_graph(3)):
        base = hom_density(graph, w)
        for _ in range(4):
            perm = rng.permutation(6)
            assert hom_density(graph, w.permute(perm)) == pytest.approx(base, abs=1e-12)


def test_pinned_density_averages_back_to_density():
    # averaging the pin over all block pairs recovers the plain density
    rng = np.random.default_rng(5)
    w = random_kernel(rng, 4)
    for graph in LABELED:
        brute = hom_density_brute(graph.m, list(graph.edges), w.values)
        for e in range(graph.edge_count):
            pinned = hom_density_pinned(graph, w, e)
            assert pinned.shape == (4, 4)
            recovered = float((pinned * w.values).mean())
            assert recovered == pytest.approx(brute, abs=1e-12), (graph, e)


def test_densities_take_up_to_52_vertices():
    w = random_kernel(np.random.default_rng(83), 2)
    nine = path_graph(8)
    assert hom_density(nine, w) == pytest.approx(
        hom_density_brute(nine.m, list(nine.edges), w.values), abs=1e-12)
    with pytest.raises(ValueError, match="53 non-isolated vertices; the limit is 52"):
        hom_density(path_graph(52), w)


def test_named_graph_gradients_match_the_summed_pinned_einsums():
    # the closed gradients, from a @ a and the row sums, against the pinned
    # einsums summed over the edges and symmetrized, for every connected
    # labeling of the six classes and either memory order of the kernel (a
    # StepKernel stores C order, so the Fortran-ordered ones are wrapped as
    # trusted values)
    rng = np.random.default_rng(29)
    graphs = [g for g in LABELED
              if hamiltonian._connected(g) and stepkernel._named_term(g)[1] is not None]
    assert {stepkernel._named_term(g)[1].graph for g in graphs} == {
        named_term_graph(name) for name in NAMED_TERM_GRAPHS}
    kernels = []
    for r in range(1, 41):
        w = random_kernel(rng, r)
        kernels += [w, StepKernel._trusted(np.asfortranarray(w.values))]
    assert kernels[-1].values.flags.f_contiguous and not kernels[-1].values.flags.c_contiguous
    for g in graphs:
        h = Hamiltonian(((1.0, g),))
        for w in kernels:
            pinned = sum(hom_density_pinned(g, w, e) for e in range(g.edge_count))
            want = (pinned + pinned.T) / 2
            np.testing.assert_allclose(h.frechet_derivative(w.values), want, rtol=1e-12,
                                       atol=0, err_msg=f"{g} at r = {w.r}")


def test_pairwise_sum_of_slabs_adds_as_a_row_sum_adds():
    # magnitudes from 1e-8 to 1e8 of both signs: any other order of the
    # additions shows in the last bits
    rng = np.random.default_rng(61)
    for n in range(1, 41):
        x = rng.choice([-1.0, 1.0], (50, n)) * 10.0 ** rng.uniform(-8, 8, (50, n))
        got = stepkernel._pairwise_sum(x.T[stepkernel._tree_order(n)])
        assert got.tobytes() == x.sum(axis=-1).tobytes(), n


def test_relabeled_term_graphs_take_the_einsum_path(monkeypatch):
    calls = []
    einsum = np.einsum

    def spy(*args, **kwargs):
        calls.append(kwargs.get("optimize", False))
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    w = random_kernel(np.random.default_rng(31), 5)
    named = hom_density_pinned(path_graph(2), w, 0)
    assert calls == [stepkernel._contraction_path("bc->b", 5)]  # the planned path
    calls.clear()
    relabeled = SimpleGraph(3, [(0, 2), (2, 1)])  # path2 with the middle vertex last
    assert stepkernel._named_term(relabeled)[1].graph != relabeled
    pinned = hom_density_pinned(relabeled, w, 0)
    assert calls == [stepkernel._contraction_path("bc->c", 5)]
    np.testing.assert_allclose(pinned, named, rtol=1e-14)
    # every labeling on up to 4 vertices, once its isolated vertices are
    # dropped: the density's closed forms, which call no einsum, run for the
    # edge, path2, triangle and cycle4 classes; every pinned density left with
    # an edge takes one planned einsum; the gradient calls none for the six
    # named classes, and the einsum for the paw, the diamond and K4
    closed_classes = {(1, 1), (1, 1, 2), (2, 2, 2), (2, 2, 2, 2)}
    for g in LABELED:
        core = without_isolated(g)
        closed = not g.edges or core.degree_sequence() in closed_classes
        calls.clear()
        hom_density(g, w)
        assert (calls == []) if closed else (len(calls) == 1 and isinstance(calls[0], tuple)), g
        for e in range(g.edge_count):
            calls.clear()
            hom_density_pinned(g, w, e)
            planned = len(calls) == 1 and isinstance(calls[0], tuple)
            assert planned if g.edge_count > 1 else calls == [], (g, e)
        if hamiltonian._connected(g):
            h = Hamiltonian(((1.0, g),))
            calls.clear()
            h.frechet_derivative(w.values)
            paw_diamond_k4 = core.edge_count > 4 or core.degree_sequence() == (1, 2, 2, 3)
            assert (stepkernel._named_term(g)[1] is None) == (paw_diamond_k4 or not g.edges), g
            assert (len(calls) == g.edge_count and all(isinstance(c, tuple) for c in calls)
                    ) if paw_diamond_k4 else calls == [], g


def test_cached_contraction_paths_match_einsum_optimize_bit_for_bit():
    # hom_density's einsum fallback plans each (subscripts, r) once instead of
    # passing optimize=True, which plans again on every call
    rng = np.random.default_rng(37)
    graphs = [named_term_graph("path3"), named_term_graph("star3"),
              SimpleGraph(4, [(0, 2), (1, 2), (1, 3), (0, 3), (0, 1)])]
    for r in range(1, 41):
        w = random_kernel(rng, r)
        for g in graphs:
            subs = ",".join("abcd"[u] + "abcd"[v] for u, v in g.edges) + "->"
            want = float(np.einsum(subs, *[w.values] * g.edge_count, optimize=True) / r**g.m)
            assert hom_density(g, w) == want, (g.edges, r)
            assert hom_density(g, w) == want, (g.edges, r)


# ---------------------------------------------------------------- cut norm


def test_cut_norm_of_zero_and_constant_kernels():
    assert cut_norm(StepKernel.constant(5, 0.0)) == 0.0
    assert cut_norm(StepKernel.constant(5, 0.7)) == pytest.approx(0.7)
    assert cut_norm(StepKernel.constant(3, -0.4, (-1.0, 1.0))) == pytest.approx(0.4)


def test_cut_norm_exhaustive_matches_double_subset_loop():
    rng = np.random.default_rng(19)
    for _ in range(4):
        w = random_kernel(rng, 6, -1.0, 1.0)
        assert cut_norm(w, method="exhaustive") == pytest.approx(
            cut_norm_brute(w.values), abs=1e-12
        )


def test_cut_norm_exhaustive_on_a_stack_matches_each_matrix():
    rng = np.random.default_rng(21)
    stack = np.stack([random_kernel(rng, 5, -1.0, 1.0).values for _ in range(6)])
    batched = _cut_norm_exhaustive(stack.reshape(2, 3, 5, 5))
    assert batched.shape == (2, 3)
    single = [cut_norm(a, method="exhaustive") for a in stack]
    assert batched.ravel().tolist() == single
    with pytest.raises(ValueError):
        _cut_norm_exhaustive(np.zeros((2, 25, 25)))


@pytest.mark.parametrize("r", [15, 16])
def test_cut_norm_exhaustive_across_subset_blocks(r):
    # more than 2^14 subsets, walked in blocks whose high bits are refilled; the
    # full set, which carries a nonnegative kernel's cut norm, comes last
    rng = np.random.default_rng(r)
    eighths = rng.integers(0, 9, (r, r)) / 8.0  # dyadic: every partial sum is exact
    nonneg = np.triu(eighths) + np.triu(eighths, 1).T
    signed = random_kernel(rng, r, -1.0, 1.0).values
    stack = np.stack([nonneg, signed, -nonneg])
    batched = _cut_norm_exhaustive(stack)
    assert batched[0] == batched[2] == nonneg.mean()
    assert batched.tolist() == [cut_norm(a, method="exhaustive") for a in stack]


def mixed_stack(rng, r, n):
    """n random r x r matrices whose entry scales cycle through 1e-3, 1 and 1e3
    and which are, in turn, symmetric and not."""
    a = rng.standard_normal((n, r, r)) * np.resize([1e-3, 1.0, 1e3], n)[:, None, None]
    a[::2] = (a[::2] + a[::2].swapaxes(1, 2)) / 2
    return a


@pytest.mark.parametrize("r", range(1, 17))
def test_cut_norm_exhaustive_gives_the_row_sum_kernels_bits(r):
    # the slab sums must add each row of s^T A as numpy's sum(axis=-1) did:
    # the annealer's path follows the last bits of every value.  Stacks of 3,
    # 37 and 256 split into chunks of several matrices up to r = 9; from
    # r = 11 the subsets come in blocks whose high bits are refilled.  Up to
    # r = 9 a stack of one, as (1, 1, r, r) is on every annealed step, takes
    # the one product with the signed subset block
    rng = np.random.default_rng(300 + r)
    singles = list(mixed_stack(rng, r, 6))
    ones = [a[None] for a in mixed_stack(rng, r, 3)] + [a[None, None] for a in
                                                         mixed_stack(rng, r, 3)]
    for a in singles + ones + [mixed_stack(rng, r, n) for n in (3, 37, 256)]:
        got = _cut_norm_exhaustive(a)
        assert got.shape == a.shape[:-2] and np.array_equal(got, cut_norm_rowsum(a)), a.shape
    # a -0.0 would print as cut_metric_upper = -0.0 for a relabeled pair
    for zero in (np.zeros((r, r)), np.zeros((1, 1, r, r)), -np.zeros((1, r, r))):
        got = _cut_norm_exhaustive(zero)
        assert np.array_equal(got, cut_norm_rowsum(zero)) and not np.signbit(got).any()


def test_cut_norm_exhaustive_overflows_to_inf_not_nan():
    # a column sum overflows to +inf and another to -inf; each part is clipped
    # from its own sign, so no inf - inf makes a NaN
    a = np.full((4, 4), 1e308)
    a[1::2] *= -1.0
    a[:, 1] *= -1.0
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = _cut_norm_exhaustive(a), cut_norm_rowsum(a)
    assert got == want == math.inf


def test_cut_norm_heuristic_never_exceeds_exhaustive():
    rng = np.random.default_rng(23)
    for _ in range(10):
        w = random_kernel(rng, 7, -1.0, 1.0)
        exact = cut_norm(w, method="exhaustive")
        assert cut_norm(w, method="heuristic") <= exact + 1e-12


@pytest.mark.parametrize("restarts", [0, -3])
def test_cut_norm_heuristic_needs_a_restart(restarts):
    # with no restart the heuristic returned 0.0 for a kernel whose cut norm is 0.25
    a = np.array([[0.5, -0.2], [-0.2, 0.9]])
    assert cut_norm(a, method="exhaustive") == pytest.approx(0.25)
    with pytest.raises(ValueError, match=f"restarts must be at least 1, got {restarts}"):
        cut_norm(a, method="heuristic", restarts=restarts)


def test_cut_norm_vertex_optimum_dominates_fractional_ascent():
    # the objective is bilinear, so box maxima sit at subset vertices
    rng = np.random.default_rng(29)
    for i in range(3):
        w = random_kernel(rng, 6, -1.0, 1.0)
        frac = cut_norm_fractional(w.values, rounds=40, seed=i)
        assert cut_norm(w, method="exhaustive") >= frac - 1e-12


def test_cut_norm_is_bounded_by_l2_norm():
    rng = np.random.default_rng(31)
    for _ in range(8):
        w = random_kernel(rng, 6, -1.0, 1.0)
        assert cut_norm(w) <= l2_norm(w) + 1e-12


def test_cut_norm_exhaustive_guard_rejects_large_r():
    big = StepKernel.constant(25, 0.5)
    with pytest.raises(ValueError):
        cut_norm(big, method="exhaustive")
    with pytest.raises(ValueError):
        cut_norm(big, method="no-such-method")


# ---------------------------------------------------------------- refinement


def test_refine_preserves_density_and_cut_norm():
    rng = np.random.default_rng(37)
    w2 = random_kernel(rng, 2)
    assert hom_density(triangle_graph(), w2.refine(2)) == pytest.approx(
        hom_density(triangle_graph(), w2), abs=1e-12
    )
    for _ in range(3):
        w = random_kernel(rng, 3, -1.0, 1.0)
        assert cut_norm(w.refine(2)) == pytest.approx(cut_norm(w), abs=1e-12)


def test_refine_by_one_is_identity_and_rejects_bad_factor():
    w = kernel_from_values(np.array([[0.1, 0.6], [0.6, 0.9]]))
    assert np.array_equal(w.refine(1).values, w.values)
    with pytest.raises(ValueError):
        w.refine(0)


def test_mismatched_non_multiple_sizes_refine_to_lcm():
    a = StepKernel.constant(2, 0.3)
    b = StepKernel.constant(3, 0.3)
    assert cut_metric_upper(a, b) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------- l2 metrics


def test_l2_norm_of_constant_and_self_distance():
    assert l2_norm(StepKernel.constant(4, 0.6)) == pytest.approx(0.6)
    assert l2_norm(StepKernel.constant(4, -0.6, (-1.0, 1.0))) == pytest.approx(0.6)
    w = random_kernel(np.random.default_rng(41), 5)
    assert l2_distance(w, w) == 0.0


def test_alignment_metrics_vanish_on_permuted_copies():
    rng = np.random.default_rng(43)
    w = random_kernel(rng, 5)
    shuffled = w.permute(rng.permutation(5))
    assert cut_metric_upper(w, shuffled) == pytest.approx(0.0, abs=1e-12)
    assert delta2_upper(w, shuffled) == pytest.approx(0.0, abs=1e-12)
    assert cut_metric_upper(w, w) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_relabeled_copies_score_exactly_zero(data):
    r = data.draw(st.integers(1, 5))
    upper = data.draw(st.lists(st.floats(0, 1), min_size=r * (r + 1) // 2,
                               max_size=r * (r + 1) // 2))
    vals = np.zeros((r, r))
    vals[np.triu_indices(r)] = upper
    w = StepKernel(vals + np.triu(vals, 1).T)
    shuffled = w.permute(np.array(data.draw(st.permutations(range(r)))))
    # r <= 5 searches every relabeling, so the inverse one is always tried
    assert cut_metric_upper(w, shuffled) == 0.0
    assert delta2_upper(w, shuffled) == 0.0


def test_alignment_metrics_match_permutation_enumeration():
    rng = np.random.default_rng(47)
    for _ in range(3):
        a = random_kernel(rng, 4)
        b = random_kernel(rng, 4)
        cut_ref = min_over_perms_brute(4, lambda p: cut_norm_brute(a.values - b.values[np.ix_(p, p)]))
        l2_ref = min_over_perms_brute(4, lambda p: l2_norm(a.values - b.values[np.ix_(p, p)]))
        assert cut_metric_upper(a, b) == pytest.approx(cut_ref, abs=1e-12)
        assert delta2_upper(a, b) == pytest.approx(l2_ref, abs=1e-12)


def test_alignment_metrics_are_pseudometrics_on_random_triples():
    rng = np.random.default_rng(53)
    kernels = [random_kernel(rng, 4) for _ in range(3)]
    for dist in (cut_metric_upper, delta2_upper):
        a, b, c = kernels
        assert dist(a, b) == pytest.approx(dist(b, a), abs=1e-12)
        assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-12


def test_annealed_permutation_search_matches_exhaustive_on_small_r():
    rng = np.random.default_rng(59)
    a = random_kernel(rng, 5)
    b = random_kernel(rng, 5)

    def objective(p):
        return l2_norm(a.values - b.values[np.ix_(p, p)])

    exact, _ = minimize_over_permutations(lambda ps: [objective(p) for p in ps], 5, seed=0)
    assert exact == pytest.approx(min_over_perms_brute(5, objective), abs=1e-12)


def _cut_objective(a, b):
    """Batched cut-norm objective of a against relabelings of b."""
    return lambda perms: _cut_norm_exhaustive(a - b[perms[:, :, None], perms[:, None, :]])


def test_exhaustive_search_breaks_ties_by_the_first_relabeling():
    const = StepKernel.constant(6, 0.3).values
    value, perm = minimize_over_permutations(_cut_objective(const, const), 6)
    assert value == 0.0 and perm.tolist() == list(range(6))
    # a NaN is never chosen, and an all-NaN search finds nothing
    value, perm = minimize_over_permutations(
        lambda perms: np.where(perms[:, 0] == 0, np.nan, perms[:, 0]), 4)
    assert value == 1.0 and perm.tolist() == [1, 0, 2, 3]
    assert minimize_over_permutations(lambda perms: np.full(len(perms), np.nan), 3) == (
        math.inf, None)


@pytest.mark.parametrize("r", [3, 7])
def test_exhaustive_search_does_not_depend_on_the_chunking(r, monkeypatch):
    rng = np.random.default_rng(67)
    a, b = random_kernel(rng, r).values, random_kernel(rng, r).values
    cut = _cut_objective(a, b)

    def coarse(perms):  # rounded, so that many relabelings tie
        return np.round(cut(perms), 2)

    default = [minimize_over_permutations(f, r) for f in (cut, coarse)]
    metric = cut_metric_upper(StepKernel(a), StepKernel(b))
    monkeypatch.setattr(stepkernel, "_PERM_CHUNK", 1)
    monkeypatch.setattr(stepkernel, "_CUT_NORM_BUDGET", 1)
    for (value, perm), f in zip(default, (cut, coarse)):
        v1, p1 = minimize_over_permutations(f, r)
        assert v1 == value and p1.tolist() == perm.tolist()
    # one relabeling per difference stack
    assert cut_metric_upper(StepKernel(a), StepKernel(b)) == metric == default[0][0]


def _anneal_objective(kind: str, r: int, calls: list):
    """A cheap batched objective that appends each relabeling it scores to calls:
    a linear assignment cost, the same rounded so that many values tie, all NaN,
    or constant."""
    # not default_rng, whose calls the fallback test counts
    table = np.random.Generator(np.random.PCG64(r)).uniform(0.0, 1.0, (r, r))
    rows = np.arange(r)
    value = {"assignment": lambda perms: table[rows, perms].sum(axis=1),
             "rounded": lambda perms: np.round(table[rows, perms].sum(axis=1), 1),
             "nan": lambda perms: np.full(len(perms), np.nan),
             "constant": lambda perms: np.full(len(perms), 0.25)}[kind]

    def objective(perms):
        calls.extend(perms.tolist())
        return value(perms)

    return objective


def _same_search(r: int, seed: int, evals: int, kind: str) -> None:
    """The annealer scores the call-by-call search's relabelings, in its order,
    and returns its (best, best_p)."""
    want_calls, got_calls = [], []
    want = anneal_call_by_call(_anneal_objective(kind, r, want_calls), r, seed, evals)
    got = minimize_over_permutations(_anneal_objective(kind, r, got_calls), r, seed, evals)
    assert got_calls == want_calls
    assert (np.float64(got[0]).tobytes(), got[1].tolist()) == (
        np.float64(want[0]).tobytes(), want[1].tolist())


@pytest.mark.parametrize("kind", ["assignment", "rounded", "nan", "constant"])
@pytest.mark.parametrize("r", [9, 10, 12, 16, 24])
def test_annealer_searches_as_the_call_by_call_annealer(r, kind):
    for seed in range(5):
        for evals in (0, 1, 7, 4000):
            _same_search(r, seed, evals, kind)


def test_the_anneal_decoder_agrees_with_this_numpy():
    # else every annealed search runs one Generator call per draw
    assert _draws.decoder_agrees()
    assert AnnealDraws(0, 9, stepkernel._PERM_CHUNK).rng is None


@pytest.fixture
def default_rng_calls(monkeypatch):
    """The seeds np.random.default_rng is called with, once the decoder check is cached."""
    _draws.decoder_agrees()
    calls, real = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: calls.append(seed) or real(seed))
    return calls


@pytest.mark.parametrize("where", ["nowhere", "decoder", "first", "middle", "last"])
@pytest.mark.parametrize("r, seed", [(9, 3), (12, 4)])
def test_annealer_falls_back_to_the_generator_at_any_word(monkeypatch, default_rng_calls, r,
                                                           seed, where):
    # the last pair word lies well past the first chunk of 7 words
    monkeypatch.setattr(stepkernel, "_PERM_CHUNK", 7)
    kinds = []
    anneal_call_by_call(_anneal_objective("assignment", r, []), r, seed, 4000, kinds)
    pair_words = [k for k, kind in enumerate(kinds) if kind == "pair"]
    if where == "decoder":
        monkeypatch.setattr(_draws, "decoder_agrees", lambda: False)
    elif where != "nowhere":
        target = {"first": 0, "middle": pair_words[len(pair_words) // 2],
                  "last": pair_words[-1]}[where]
        decode, seen = _draws.lemire, [0]

        def reject_target(halves, r):
            # flags the low half of the target word, as integers would reject it
            values, rejected = decode(halves, r)
            if seen[0] <= 2 * target < seen[0] + len(halves):
                rejected[2 * target - seen[0]] = True
            seen[0] += len(halves)
            return values, rejected

        monkeypatch.setattr(_draws, "lemire", reject_target)
    default_rng_calls.clear()
    _same_search(r, seed, 4000, "assignment")
    # the call-by-call search's generator, then the annealer's: one for the
    # raw words and, if it falls back, one for the draws from there on
    assert default_rng_calls == [seed] * (2 if where == "nowhere" else 3)


_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_first_word(word: int) -> np.random.Generator:
    """A Generator on a PCG64 whose first raw word is `word`: the state after
    one step has high half 1, so its XSL-RR output rotates by 0 and is
    (1 ^ low half)."""
    inc = np.random.PCG64(0).state["state"]["inc"]
    after = (1 << 64) | (word ^ 1)
    state = (after - inc) * pow(_PCG64_MULTIPLIER, -1, 2**128) % 2**128
    bitgen = np.random.PCG64()
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bitgen)


def _decoded_pairs(raw: np.ndarray, r: int) -> list:
    """Each raw word's integers(0, r, size=2) as AnnealDraws decodes it: None
    where either half would be rejected."""
    values, rejected = lemire(raw.view(np.uint32), r)
    return [None if rej else tuple(pair) for pair, rej in
            zip(values.reshape(-1, 2).tolist(), rejected.reshape(-1, 2).any(axis=1))]


@pytest.mark.parametrize("r", [9, 10, 12, 16, 24, 40])
def test_a_half_the_generator_would_reject_is_flagged(r):
    threshold = (2**32 - r) % r
    top = 2**32 - 1  # (top r) mod 2^32 = 2^32 - r, never below the threshold
    halves = [(top, top), (0, top), (top, 0)]
    if r % 2:  # the halves just at and just below the threshold
        at = threshold * pow(r, -1, 2**32) % 2**32
        halves += [(at, top), (top, (at - pow(r, -1, 2**32)) % 2**32)]
    raw = np.array([low | high << 32 for low, high in halves], dtype=np.uint64)
    pairs = _decoded_pairs(raw, r)
    assert pairs[0] == (r - 1, r - 1)
    if threshold:
        assert pairs[1] is None and pairs[2] is None
    else:  # a power of two has threshold 0: Lemire's method never rejects it
        assert pairs[1:3] == [(0, r - 1), (r - 1, 0)]
    if r % 2:
        assert pairs[3] == (at * r >> 32, r - 1) and pairs[4] is None


@pytest.mark.parametrize("r", [9, 12, 24])
def test_a_rejected_half_is_drawn_again_as_the_generator_draws_it(monkeypatch, r):
    # the first word's low half is rejected: Generator.integers reads on into
    # the high half and the next word, and leaves a half-word waiting.  The
    # decoder check runs, and is cached, before default_rng is replaced
    assert _draws.decoder_agrees()
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _pcg64_first_word(0xABCDEF << 32))
    assert np.random.default_rng(0).bit_generator.random_raw(1)[0] == 0xABCDEF << 32
    assert _decoded_pairs(np.random.default_rng(0).bit_generator.random_raw(1), r) == [None]
    kinds = [True, False, True, True, False, False, True] * 3
    draws, gen = AnnealDraws(0, r, stepkernel._PERM_CHUNK), np.random.default_rng(0)
    for pair in kinds:
        got = draws.pair() if pair else draws.uniform()
        want = gen.integers(0, r, size=2) if pair else gen.random()
        assert np.array_equal(got, want)
    _same_search(r, 0, 4000, "assignment")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(2, 40) | st.sampled_from([2, 4, 8, 16, 32]),
       st.lists(st.booleans(), max_size=600))
def test_decoded_draws_are_the_generators_draws(seed, r, kinds):
    # up to 600 draws, across two chunk boundaries
    draws, gen = AnnealDraws(seed, r, stepkernel._PERM_CHUNK), np.random.default_rng(seed)
    for pair in kinds:
        if pair:
            assert tuple(map(int, draws.pair())) == tuple(gen.integers(0, r, size=2).tolist())
        else:
            assert draws.uniform() == gen.random()


# r = 7 and 9 were recorded before the batched permutation search, where the
# search called its objective once per relabeling and each cut norm made its
# own subset matrix and matmul; r = 8 before the metrics shared their
# alignment objectives.  Every later search must give the same bits.
# (r, kernel seed): (cut_metric_upper, delta2_upper), both with seed=3
SEARCH_GOLDEN = {
    (7, 71): (0.0703870313408065, 0.1788615224985869),  # exhaustive: 5040 relabelings
    # the last exhaustive size; a 256-relabeling chunk is exactly the
    # 2^14-entry difference stack of the cut-norm budget
    (8, 81): (0.08421861901645306, 0.2098333452758603),
    (9, 91): (0.06253302230343166, 0.23148417256070306),  # annealed, 4000 evaluations
    # entries rounded to eighths: relabelings tie exactly, so the annealer
    # draws its uniform at val == cur_val (2051 times in the cut search)
    (9, 92): (0.09876543209876543, 0.21426734195196545),
    # the first annealed size whose cut norm runs on the stacked path
    (10, 101): (0.045014268299957284, 0.20012393626563613),
}
EIGHTHS = {(9, 92)}


@pytest.mark.parametrize("r, seed", sorted(SEARCH_GOLDEN))
def test_alignment_metrics_are_pinned(r, seed):
    rng = np.random.default_rng(seed)
    a, b = random_kernel(rng, r), random_kernel(rng, r)
    if (r, seed) in EIGHTHS:
        a, b = (StepKernel(np.round(w.values * 8) / 8) for w in (a, b))
    assert (cut_metric_upper(a, b, seed=3), delta2_upper(a, b, seed=3)) == SEARCH_GOLDEN[r, seed]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_the_cut_norm_bound_past_r_24_is_an_upper_bound(r, k, seed):
    rng = np.random.default_rng(seed)
    stack = rng.uniform(-1.0, 1.0, (k, r, r))
    stack = (stack + stack.transpose(0, 2, 1)) / 2
    assert np.all(_cut_norm_bound(stack) >= _cut_norm_exhaustive(stack) - 1e-12)


def test_cut_metric_past_r_24_is_bracketed():
    # an r = 5 and an r = 6 kernel meet at r = 30, past the exhaustive cut norm
    rng = np.random.default_rng(97)
    a, b = random_kernel(rng, 5), random_kernel(rng, 6)
    value = cut_metric_upper(a, b)
    # the whole square is a box, and no relabeling moves its mean
    assert value >= abs(a.values.mean() - b.values.mean())
    # the annealer starts at the identity relabeling
    start = _cut_norm_bound(a.refine(6).values - b.refine(5).values)
    assert value <= start + 1e-12


# ---------------------------------------------------------------- serialization


def test_text_round_trip_preserves_values_and_range(tmp_path):
    w = StepKernel(np.array([[-0.25, 0.8], [0.8, 0.125]]), (-1.0, 1.0))
    path = tmp_path / "kernel.txt"
    save_kernel_text(w, path)
    back = load_kernel_text(path)
    assert np.array_equal(back.values, w.values)
    assert back.range == w.range
    # blank lines may follow the rows
    path.write_text(path.read_text() + "\n  \n")
    assert np.array_equal(load_kernel_text(path).values, w.values)


def test_loaders_reject_malformed_headers(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 0.0\n")
    with pytest.raises(ValueError):
        load_kernel_text(bad)


@pytest.mark.parametrize("head, rows, message", [
    ("1000000 0 1", "0.5\n", "expected 1000000 rows of 1000000 entries"),
    ("0 0 1", "", "block count must be at least 1, got 0"),
    ("2.5 0 1", "", "block count '2.5' is not an integer"),
    ("2 0", "", "bad header"),
    ("2 0 1", "0.5 x\n0.5 0.5\n", "could not convert"),
    ("2 0 1", "0.5 0.4\n0.5 0.5\n", "symmetric"),
    ("2 0 1", "0.5 0.4\n0.4 0.5\n0.5 0.5\n", "a line follows the 2 rows"),
])
def test_text_loader_is_bounded_by_the_file_and_names_it(tmp_path, head, rows, message):
    # a header's block count never drives reads past the end of the file
    path = tmp_path / "k.txt"
    path.write_text(f"{head}\n{rows}")
    with pytest.raises(ValueError, match=message) as err:
        load_kernel_text(path)
    assert str(err.value).startswith(f"{path}: ")


def test_pgm_export_scales_range_to_gray_levels(tmp_path):
    w = StepKernel(np.array([[0.0, 0.5], [0.5, 1.0]]))
    path = tmp_path / "kernel.pgm"
    save_kernel_pgm(w, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "2 2"
    assert lines[2] == "255"
    grays = [int(tok) for line in lines[3:] for tok in line.split()]
    assert grays == [0, 128, 128, 255]

"""Density Hamiltonians: evaluation, derivative, curvature metadata."""

import math

import numpy as np
import pytest
from scipy.special import xlogy

from graphdyn import (
    Hamiltonian,
    SimpleGraph,
    StepKernel,
    drift_b,
    edge_graph,
    hom_density,
    l2_distance,
    limit_drift,
    named_term_graph,
    triangle_edge_hamiltonian,
    triangle_graph,
)

import graphdyn.hamiltonian as hamiltonian
import graphdyn.stepkernel as stepkernel
from oracles import fd_gradient, labeled_graphs


def random_kernel(rng, r, lo=0.05, hi=0.95):
    vals = rng.uniform(lo, hi, (r, r))
    return StepKernel((vals + vals.T) / 2)


def inner(u, v):
    # kernel inner product: the normalized entry sum
    return float((u * v).mean())


# ---------------------------------------------------------------- evaluation


def test_triangle_edge_value_at_constant_kernels():
    h = triangle_edge_hamiltonian()
    for p in (0.0, 0.25, 0.5, 1.0):
        w = StepKernel.constant(3, p)
        assert h.evaluate(w) == pytest.approx(p**3 - p / 4, abs=1e-12)


def test_triangle_edge_value_on_bipartite_kernel_is_minus_eighth():
    h = triangle_edge_hamiltonian()
    w = StepKernel(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert h.evaluate(w) == pytest.approx(-0.125, abs=1e-12)


def test_evaluate_is_a_weighted_density_sum():
    rng = np.random.default_rng(2)
    w = random_kernel(rng, 4)
    h = Hamiltonian(((2.0, triangle_graph()), (-0.5, edge_graph())))
    expected = 2.0 * hom_density(triangle_graph(), w) - 0.5 * hom_density(edge_graph(), w)
    assert h.evaluate(w) == pytest.approx(expected, abs=1e-12)


def test_entropy_term_matches_direct_sum_and_handles_boundary():
    gamma = 1.7
    h = Hamiltonian((), entropy_weight=gamma)
    w = StepKernel(np.array([[0.0, 0.3], [0.3, 1.0]]))
    p = 0.3
    ent = 2 * (p * np.log(p) + (1 - p) * np.log(1 - p)) / 4
    assert h.evaluate(w) == pytest.approx(gamma * ent, abs=1e-12)
    # h(0) = h(1) = 0: the boundary entries contribute nothing
    assert Hamiltonian((), entropy_weight=1.0).evaluate(StepKernel.constant(2, 1.0)) == 0.0


# ---------------------------------------------------------------- stacked evaluation


STACKED_TERMS = {"edge": -0.25, "path2": 0.3, "triangle": 1.0, "cycle4": 0.2}


def symmetric_stack(rng, b, r):
    """b symmetric r x r kernels: two at the faces 0 and 1, one with a zero
    row and column, the rest uniform."""
    vals = rng.uniform(0.0, 1.0, (b, r, r))
    stack = (vals + vals.transpose(0, 2, 1)) / 2
    stack[0], stack[1] = 0.0, 1.0
    stack[2, 0], stack[2, :, 0] = 0.0, 0.0
    return stack


def evaluate_each(h, stack):
    return np.array([h.evaluate(StepKernel(a)) for a in stack])


@pytest.mark.parametrize("entropy", [0.0, 0.7], ids=["no-entropy", "entropy"])
def test_stacked_energies_equal_evaluate_bit_for_bit(entropy):
    # each term with a closed form alone, mixed sums, and no term at all, over
    # r = 1..40 and both memory orders.  Past r = 16 the matrix products'
    # bits follow the memory order of their operands, so a stack is read in
    # C order, as a StepKernel stores its values and the chain builds them.
    rng = np.random.default_rng(43)
    hs = [Hamiltonian(((c, named_term_graph(g)),), entropy) for g, c in STACKED_TERMS.items()]
    hs += [
        triangle_edge_hamiltonian(entropy_weight=entropy),
        Hamiltonian(tuple((c, named_term_graph(g)) for g, c in STACKED_TERMS.items()), entropy),
        Hamiltonian((), entropy),
    ]
    for r in range(1, 41):
        stack = symmetric_stack(rng, 5, r)
        fortran = np.asfortranarray(stack)
        assert not fortran[0].flags.c_contiguous or r == 1
        for h in hs:
            want = evaluate_each(h, stack)
            for values in (stack, fortran):
                got = h.evaluate_stack(values)
                assert got.shape == (5,) and got.tobytes() == want.tobytes(), (h, r)
    assert all(h.evaluate_stack(np.empty((0, 16, 16))).shape == (0,) for h in hs)


@pytest.mark.parametrize("name", ["path3", "star3"])
def test_terms_without_a_stacked_form_go_through_evaluate(monkeypatch, name):
    # each kernel of the stack takes the one planned einsum that evaluate
    # takes for it alone; the edge term's closed form calls none
    h = Hamiltonian(((1.0, named_term_graph(name)), (-0.25, edge_graph())), 0.5)
    stack = symmetric_stack(np.random.default_rng(47), 4, 6)
    want = evaluate_each(h, stack)
    calls = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *a, **k: calls.append(k["optimize"]) or einsum(*a, **k))
    h.evaluate(StepKernel(stack[0]))
    alone, calls[:] = list(calls), []
    assert h.evaluate_stack(stack).tobytes() == want.tobytes()
    assert len(alone) == 1 and isinstance(alone[0], tuple) and calls == alone * 4
    assert h.evaluate_stack(np.empty((0, 6, 6))).shape == (0,)


# each density, and the entropy's mean, of one kernel as numpy adds it alone
ALONE = {
    "edge": lambda a: a.sum(),
    "path2": lambda a: (a @ a).sum(),
    "path3": lambda a: np.einsum("ab,bc,cd->", a, a, a, optimize=True),
    "triangle": lambda a: np.trace(a @ a @ a),
    "cycle4": lambda a: np.trace((a @ a) @ (a @ a)),
    "star3": lambda a: np.einsum("ab,ac,ad->", a, a, a, optimize=True),
    "entropy": lambda a: (xlogy(a, a) + xlogy(1.0 - a, 1.0 - a)).mean(),
}


@pytest.mark.parametrize("name", ALONE)
def test_a_kernels_energy_does_not_depend_on_its_stack(name):
    # the closed forms sum each kernel of a C-contiguous stack as a row of one
    # (B, r^2) array, which numpy adds as it adds the kernel alone; path3 and
    # star3 take one einsum per kernel.  Stacks of 1, 2, 5, 64 and 129 at
    # r = 1..40: each energy equals the kernel's form alone, hom_density
    # equals the density of a stack of one, and a Fortran-ordered stack is
    # read in C order, bit for bit
    entropy = name == "entropy"
    g = None if entropy else named_term_graph(name)
    h = Hamiltonian((), 0.7) if entropy else Hamiltonian(((0.3, g),))
    rng = np.random.default_rng(67)
    for r in range(1, 41):
        stack = symmetric_stack(rng, 129, r)
        forms = np.array([ALONE[name](a) for a in stack])
        alone = 0.0 + (0.7 * forms if entropy else 0.3 * (forms / r**g.m))
        if not entropy:
            for a, form in zip(stack, forms):
                single = stepkernel._density_stack(g, a[None].copy())[0]
                assert hom_density(g, StepKernel(a)) == single == form / r**g.m, (name, r)
        for b in (1, 2, 5, 64, 129):
            part = stack[len(stack) - b:]
            for values in (part, np.asfortranarray(part)):
                got = h.evaluate_stack(values)
                assert got.tobytes() == alone[len(stack) - b:].tobytes(), (name, r, b)


def test_term_graphs_must_be_connected_and_small():
    disconnected = SimpleGraph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        Hamiltonian(((1.0, disconnected),))
    five = SimpleGraph(5, [(i, i + 1) for i in range(4)])
    with pytest.raises(ValueError):
        Hamiltonian(((1.0, five),))
    with pytest.raises(ValueError):
        Hamiltonian((), entropy_weight=-1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="term coefficients must be finite"):
            Hamiltonian(((1.0, edge_graph()), (bad, triangle_graph())))
        with pytest.raises(ValueError, match="entropy weight must be finite"):
            Hamiltonian((), entropy_weight=bad)


def test_named_term_graphs_cover_the_config_vocabulary():
    assert named_term_graph("edge").edges == ((0, 1),)
    assert named_term_graph("triangle").edge_count == 3
    assert named_term_graph("cycle4").edge_count == 4
    assert named_term_graph("path2").m == 3
    with pytest.raises(ValueError):
        named_term_graph("pentagon")


# ---------------------------------------------------------------- derivative


def test_edge_term_derivative_is_the_constant_coefficient():
    h = Hamiltonian(((1.0, edge_graph()),))
    w = random_kernel(np.random.default_rng(3), 4)
    assert np.allclose(h.frechet_derivative(w.values), 1.0, atol=1e-12)
    h3 = Hamiltonian(((-0.25, edge_graph()),))
    assert np.allclose(h3.frechet_derivative(w.values), -0.25, atol=1e-12)


def test_triangle_edge_derivative_at_constant_kernels():
    h = triangle_edge_hamiltonian()
    for p in (0.1, 0.5, 0.9):
        g = h.frechet_derivative(StepKernel.constant(4, p).values)
        assert np.allclose(g, 3 * p**2 - 0.25, atol=1e-12)


def test_derivative_output_is_symmetric():
    rng = np.random.default_rng(5)
    h = Hamiltonian(((1.0, triangle_graph()), (0.5, SimpleGraph(4, [(0, 1), (0, 2), (0, 3)]))),
                    entropy_weight=0.3)
    g = h.frechet_derivative(random_kernel(rng, 5).values)
    assert np.array_equal(g, g.T)
    # em_step and flow_step add and clip these arrays with no symmetry check, so
    # every connected term graph, in every labeling, keeps them exactly symmetric
    kernels = [random_kernel(rng, r).values for r in (1, 2, 3, 5, 8, 17)]
    kernels += [np.asfortranarray(a) for a in kernels]
    for m, edges in labeled_graphs(4):
        graph = SimpleGraph(m, edges)
        if not hamiltonian._connected(graph):
            continue
        for entropy_weight in (0.0, 0.3):
            h = Hamiltonian(((0.7, graph),), entropy_weight)
            for a in kernels:
                for out in (h.frechet_derivative(a), drift_b(h, a, 1.3), limit_drift(h, a, 1.3)):
                    assert np.array_equal(out, out.T)


def test_derivative_matches_finite_differences_with_r_squared_scaling():
    # d/ds H(K(w + s E_ij)) = DH_ij / r^2 once the perturbation is symmetrized
    rng = np.random.default_rng(7)
    h = Hamiltonian(((1.0, triangle_graph()), (-0.25, edge_graph())), entropy_weight=0.8)
    w = random_kernel(rng, 5)
    g = h.frechet_derivative(w.values)

    def f(x):
        return h.evaluate(StepKernel((x + x.T) / 2, (-10.0, 10.0)))

    grad = fd_gradient(f, w.values)
    assert np.abs(w.r**2 * grad - g).max() < 1e-6


# ---------------------------------------------------------------- curvature


def test_triangle_edge_curvature_constants():
    h = triangle_edge_hamiltonian()
    assert h.semiconvexity_lower == pytest.approx(-9.0)
    assert h.smoothness_upper == pytest.approx(9.0)
    assert h.cut_lipschitz == pytest.approx(6.0)
    # the entropy term only adds convexity, never hurts the upper bound
    h5 = triangle_edge_hamiltonian(entropy_weight=5.0)
    assert h5.semiconvexity_lower == pytest.approx(-9.0)


def test_linear_terms_contribute_no_curvature():
    h = Hamiltonian(((3.0, edge_graph()),))
    assert h.semiconvexity_lower == 0.0
    assert h.smoothness_upper == 0.0
    assert h.cut_lipschitz == 0.0


def bregman_remainder(h, u, v):
    g = h.frechet_derivative(u.values)
    return h.evaluate(v) - h.evaluate(u) - inner(g, v.values - u.values)


def test_semiconvexity_sandwich_for_triangle_edge():
    rng = np.random.default_rng(11)
    h = triangle_edge_hamiltonian()
    lam, big_l = h.semiconvexity_lower, h.smoothness_upper
    for _ in range(20):
        u = random_kernel(rng, 4)
        v = random_kernel(rng, 4)
        gap = l2_distance(u, v) ** 2
        rem = bregman_remainder(h, u, v)
        assert rem >= lam / 2 * gap - 1e-12
        assert rem <= big_l / 2 * gap + 1e-12


def test_entropy_regularization_makes_the_remainder_strongly_convex():
    # with gamma = 5 the remainder clears (gamma - 9/2) times the squared gap
    rng = np.random.default_rng(13)
    gamma = 5.0
    h = triangle_edge_hamiltonian(entropy_weight=gamma)
    for _ in range(20):
        u = random_kernel(rng, 4)
        v = random_kernel(rng, 4)
        gap = l2_distance(u, v) ** 2
        assert bregman_remainder(h, u, v) >= (gamma - 4.5) * gap - 1e-12

"""Independent reference implementations used to derive expected test values.

Everything here is deliberately written the slow, obvious way (nested loops,
exhaustive enumeration, generic LP solvers) and shares no code with the
package under test.  The exceptions are cut_norm_rowsum,
anneal_call_by_call, metropolis_step_call_by_call and w2_squared_levels,
earlier forms of the package's cut-norm kernel, of its annealed permutation
search, of its Metropolis iteration and of its squared W2, kept as their
bit-for-bit references; metropolis_step_call_by_call steps through the
package's count walk, energy and acceptance, but neither its iteration loop
nor its draw decoder.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate, optimize

from graphdyn import StepKernel
from graphdyn.metropolis import StepDiagnostics, _acceptance, _CountWalk


def hom_density_brute(m: int, edges: list[tuple[int, int]], a: np.ndarray) -> float:
    """Homomorphism density by direct summation over all block assignments."""
    r = a.shape[0]
    total = 0.0
    for assign in itertools.product(range(r), repeat=m):
        p = 1.0
        for u, v in edges:
            p *= a[assign[u], assign[v]]
        total += p
    return total / r**m


def labeled_graphs(max_m: int) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """Every edge set on vertices 0..m-1, for m = 1..max_m: 75 graphs up to 4."""
    return [
        (m, edges)
        for m in range(1, max_m + 1)
        for k in range(m * (m - 1) // 2 + 1)
        for edges in itertools.combinations(itertools.combinations(range(m), 2), k)
    ]


def decorated_density_brute(
    m: int,
    edges: list[tuple[int, int]],
    decorations: list,
    cells_atoms: np.ndarray,
    cells_weights: np.ndarray,
) -> float:
    """Decorated homomorphism density on a measure-valued step kernel.

    cells_atoms/cells_weights have shape (r, r, k): per-cell finite measures.
    decorations[e] is a callable applied to atoms of the cell edge e lands on.
    """
    r = cells_atoms.shape[0]
    total = 0.0
    for assign in itertools.product(range(r), repeat=m):
        p = 1.0
        for (u, v), f in zip(edges, decorations):
            atoms = cells_atoms[assign[u], assign[v]]
            weights = cells_weights[assign[u], assign[v]]
            p *= sum(wk * f(ak) for ak, wk in zip(atoms, weights))
        total += p
    return total / r**m


def cut_norm_brute(a: np.ndarray) -> float:
    """Cut norm by looping over every pair of vertex subsets."""
    r = a.shape[0]
    best = 0.0
    for s_bits in itertools.product((0, 1), repeat=r):
        s = np.array(s_bits, dtype=float)
        for t_bits in itertools.product((0, 1), repeat=r):
            t = np.array(t_bits, dtype=float)
            best = max(best, abs(s @ a @ t))
    return best / r**2


def cut_norm_rowsum(a: np.ndarray) -> np.ndarray:
    """Exact cut norm of an r x r matrix or of each matrix in a (..., r, r) stack,
    frozen as a bit-for-bit reference for the package's cut-norm kernel.

    Up to 2^14 entries per gemm, subset rows s (2^r of them, or blocks of 2^b
    whose high bits are refilled) times the matrices laid side by side give
    rows of s^T A; the positive and the negative part of each row are summed
    with numpy's sum(axis=-1).
    """
    budget = 1 << 14
    r = a.shape[-1]
    n = math.prod(a.shape[:-2])
    cols = np.ascontiguousarray(np.moveaxis(a.reshape(n, r, r), 0, 1)).reshape(r, n * r)
    low = min(r, (budget // r).bit_length() - 1)
    s = ((np.arange(1 << low)[:, None] >> np.arange(r)) & 1).astype(float)
    per = max(1, budget // (len(s) * r))
    best = np.zeros(n)
    for block in range(1 << (r - low)):
        s[:, low:] = (block >> np.arange(r - low)) & 1
        for lo in range(0, n, per):
            v = (s @ cols[:, lo * r:(lo + per) * r]).reshape(len(s), -1, r)
            pos = np.maximum(v, 0.0).sum(axis=-1)
            neg = np.maximum(np.negative(v, out=v), 0.0, out=v).sum(axis=-1)
            part = best[lo:lo + per]
            np.maximum(part, np.maximum(pos, neg, out=pos).max(axis=0, initial=0.0), out=part)
    return (best / r**2).reshape(a.shape[:-2])


def anneal_call_by_call(objective, r: int, seed: int, anneal_evals: int, draws=None):
    """The annealed branch of minimize_over_permutations as it drew from its
    Generator one call at a time, frozen as a bit-for-bit reference.

    draws, if given, gets "pair" or "uniform" for each draw, in order.
    """
    rng = np.random.default_rng(seed)
    cur = np.arange(r)
    cur_val = float(objective(cur[None])[0])
    best, best_p = cur_val, cur.copy()
    temp = max(cur_val, 1e-3)
    decay = 0.01 ** (1.0 / max(anneal_evals, 1))

    def draw(kind: str, call):
        if draws is not None:
            draws.append(kind)
        return call()

    for _ in range(anneal_evals):
        i, j = draw("pair", lambda: rng.integers(0, r, size=2))
        if i == j:
            continue
        cand = cur.copy()
        cand[i], cand[j] = cand[j], cand[i]
        val = float(objective(cand[None])[0])
        if val < cur_val or draw("uniform", rng.random) < math.exp(
                -(val - cur_val) / max(temp, 1e-12)):
            cur, cur_val = cand, val
            if val < best:
                best, best_p = val, cand.copy()
        temp *= decay
    return best, best_p


def draw_signs(rng: np.random.Generator, k: int, m: int) -> np.ndarray:
    """k rows of fair +-1 for m coordinates, drawn in one call.

    Single-call generation per walk segment is part of the determinism
    contract: proposal signs, then one acceptance uniform, then relaxation
    signs, in that order.
    """
    return rng.integers(0, 2, size=(k, m), dtype=np.int64) * 2 - 1


def _write_symmetric(counts: np.ndarray, iu, vec: np.ndarray) -> None:
    counts[iu] = vec
    counts.T[iu] = vec


def metropolis_step_call_by_call(state, cfg, walk=None, energy=None):
    """One relaxed Metropolis iteration, in place, drawn one Generator call per
    walk segment: the earlier body of metropolis_step, frozen as its and
    run_chain's bit-for-bit reference.

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
        energy = cfg.h.evaluate(StepKernel._trusted(walk.density(vec)))
    before = vec.copy()
    walk.steps(vec, draw_signs(state.rng, cfg.s_n, walk.m))
    _write_symmetric(state.counts, iu, vec)
    prop_energy = cfg.h.evaluate(StepKernel._trusted(walk.density(vec)))
    delta = prop_energy - energy
    acc_prob = _acceptance(cfg.beta_nr, delta)
    accepted = state.rng.random() < acc_prob
    if accepted:
        energy = prop_energy
    else:
        vec = before
        _write_symmetric(state.counts, iu, vec)
    if cfg.l_nr:
        walk.steps(vec, draw_signs(state.rng, cfg.l_nr, walk.m))
        _write_symmetric(state.counts, iu, vec)
        energy = cfg.h.evaluate(StepKernel._trusted(walk.density(vec)))
    state.step_index += 1
    return state, accepted, StepDiagnostics(delta, acc_prob, accepted, energy)


def min_over_perms_brute(r: int, objective) -> float:
    """Minimum of a permutation objective by full enumeration."""
    return min(objective(np.array(p)) for p in itertools.permutations(range(r)))


def w1_lp(atoms_mu, weights_mu, atoms_nu, weights_nu) -> float:
    """1-D Wasserstein-1 via the transport LP (HiGHS)."""
    na, nb = len(atoms_mu), len(atoms_nu)
    cost = np.abs(np.subtract.outer(np.asarray(atoms_mu), np.asarray(atoms_nu)))
    # marginals as equality constraints on the na*nb coupling variables
    a_eq = np.zeros((na + nb, na * nb))
    for i in range(na):
        a_eq[i, i * nb : (i + 1) * nb] = 1.0
    for j in range(nb):
        a_eq[na + j, j::nb] = 1.0
    b_eq = np.concatenate([weights_mu, weights_nu])
    res = optimize.linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None))
    assert res.success
    return float(res.fun)


def w2_squared_levels(mu, nu) -> float:
    """Squared W2 between two DiscreteMeasures by the quantile coupling, one
    merged level of cumulative weight at a time: each level adds its width
    times the squared gap of the two quantiles at its midpoint, and a level
    within 1e-15 of the last one kept is skipped.

    This is the loop wasserstein2 ran on one pair before the squares were
    taken for all cell pairs at once.  That loop squared the gap with ** 2,
    which numpy evaluates with libm pow, 1 ulp off the correctly rounded
    product on a few pairs in 10 000; here the square is d * d.
    """
    cum_mu, cum_nu = np.cumsum(mu.weights), np.cumsum(nu.weights)
    levels = np.union1d(cum_mu, cum_nu)
    prev = total = 0.0
    for lv in levels[levels > 1e-15]:
        width = lv - prev
        if width <= 1e-15:
            continue
        mid = prev + width / 2
        d = (mu.atoms[min(np.searchsorted(cum_mu, mid), len(mu.atoms) - 1)]
             - nu.atoms[min(np.searchsorted(cum_nu, mid), len(nu.atoms) - 1)])
        total += width * (d * d)
        prev = lv
    return total


def gaussian_tail_quadrature(x: float) -> float:
    """P(Z > x) by adaptive quadrature of the standard normal density."""
    val, _ = integrate.quad(lambda z: math.exp(-z * z / 2) / math.sqrt(2 * math.pi), x, np.inf)
    return val


def sample_symmetric_gaussian(rng: np.random.Generator, r: int, size: int) -> np.ndarray:
    """Symmetric Gaussian matrices with Var<v,Y>_F = 2||v||_F^2 for symmetric v.

    One N(0,1) per off-diagonal unordered pair (mirrored) and N(0,2) on the
    diagonal.  Under this convention E[Y | <v,Y>_F = x] = v x / ||v||_F^2
    exactly, which is the disintegration behind the closed-form drift.
    """
    y = rng.standard_normal((size, r, r))
    y = np.triu(y, 1)
    y = y + np.swapaxes(y, 1, 2)
    diag = rng.standard_normal((size, r)) * math.sqrt(2.0)
    y[:, np.arange(r), np.arange(r)] = diag
    return y


def explicit_drift_mc(v: np.ndarray, t: float, size: int, seed: int):
    """Monte-Carlo estimate of E[Y exp(-t <v,Y>_F^+)], with standard errors."""
    rng = np.random.default_rng(seed)
    mean = np.zeros_like(v)
    m2 = np.zeros_like(v)
    done = 0
    for chunk in range(0, size, 250_000):
        k = min(250_000, size - chunk)
        y = sample_symmetric_gaussian(rng, v.shape[0], k)
        x = np.einsum("kij,ij->k", y, v)
        w = np.exp(-t * np.maximum(x, 0.0))
        g = y * w[:, None, None]
        delta = g.mean(axis=0) - mean
        mean += delta * (k / (done + k))
        m2 += ((g - mean) ** 2).sum(axis=0)
        done += k
    se = np.sqrt(m2 / done) / math.sqrt(done)
    return mean, se


def skorokhod_brute(path: np.ndarray, lo: float, hi: float):
    """Two-sided reflection by the plain stepwise recursion, scalar loop."""
    x = [path[0]]
    l_lo = [0.0]
    l_hi = [0.0]
    for k in range(1, len(path)):
        y = x[-1] + (path[k] - path[k - 1])
        up = max(0.0, lo - y)
        y += up
        down = max(0.0, y - hi)
        y -= down
        x.append(y)
        l_lo.append(l_lo[-1] + up)
        l_hi.append(l_hi[-1] + down)
    return np.array(x), np.array(l_lo), np.array(l_hi)


def clip_walk(vec: np.ndarray, signs, caps) -> None:
    """The lazily reflected count walk in place: one np.clip per sign row."""
    for row in signs:
        np.add(vec, row, out=vec)
        np.clip(vec, 0, caps, out=vec)


def fd_gradient(f, x0: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a matrix."""
    g = np.zeros_like(x0)
    for idx in np.ndindex(*x0.shape):
        xp = x0.copy()
        xm = x0.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2 * h)
    return g


def cut_norm_fractional(a: np.ndarray, rounds: int, seed: int) -> float:
    """Best |x^T A y| / r^2 over the box [0,1]^r x [0,1]^r by coordinate ascent.

    Starts from random interior points; used to confirm the bilinear objective
    attains its maximum at subset-indicator vertices.
    """
    r = a.shape[0]
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(rounds):
        for sign in (1.0, -1.0):
            x = rng.uniform(0.2, 0.8, size=r)
            y = rng.uniform(0.2, 0.8, size=r)
            for _ in range(60):
                y = (sign * (x @ a) > 0).astype(float)
                x = (sign * (a @ y) > 0).astype(float)
            best = max(best, abs(x @ a @ y))
    return best / r**2

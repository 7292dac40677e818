"""Relaxed Metropolis chain on pair counts: proposals, acceptance, scalings."""

import hashlib
import inspect
import itertools
import math
import re
import struct
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphdyn import (
    Hamiltonian,
    StepKernel,
    cycle_graph,
    edge_graph,
    named_term_graph,
    path_graph,
    triangle_graph,
)
import graphdyn.metropolis as metropolis
from graphdyn import _draws
from graphdyn._draws import block_draws, lemire
from graphdyn.metropolis import (
    ChainConfig,
    ChainState,
    _CountWalk,
    _diagonal_pairs,
    empirical_drift,
    empirical_qv,
    esbm_sample,
    metropolis_step,
    quantize_density,
    run_chain,
)
from graphdyn.sde import drift_b
from oracles import clip_walk, draw_signs, metropolis_step_call_by_call

TRIANGLE_EDGE = Hamiltonian(((1.0, triangle_graph()), (-0.25, edge_graph())))
ZERO_H = Hamiltonian(((0.0, edge_graph()),))


class LinearTilt:
    """Energy mean(c * w); its gradient kernel is exactly c."""

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)

    def evaluate(self, w):
        return float((self.c * w.values).mean())

    def frechet_derivative(self, a):
        return self.c


# ---------------------------------------------------------------- scalings


def test_derived_scalings_on_the_reference_configuration():
    cfg = ChainConfig(n=16, r=16, beta=0.25, sigma=1.0, gamma_n=1 / 64, h=TRIANGLE_EDGE)
    assert cfg.s_n == 16          # ceil(gamma^2 n^4)
    assert cfg.l_nr == 1          # ceil(sigma^2 gamma n^4 / r^4)
    assert cfg.beta_nr == pytest.approx(0.0625)  # beta / (r^2 gamma)
    assert cfg.diffusion_time(1) == pytest.approx(1 / 64 / 16**4)
    for k in (0, 1, 7, 1234):
        assert cfg.steps_for_horizon(cfg.diffusion_time(k)) == k


def test_noiseless_runs_skip_relaxation():
    cfg = ChainConfig(n=16, r=2, beta=1.0, sigma=0.0, gamma_n=1 / 32, h=ZERO_H)
    assert cfg.l_nr == 0


def test_step_counts_below_one_step_round_up_to_one():
    # gamma^2 n^4 = 1.6e-11 and sigma^2 gamma n^4 / r^4 = 1.6e-11 are within the
    # rounding slack, which only keeps an exact integer from rounding up
    cfg = ChainConfig(n=2, r=1, beta=1.0, sigma=1e-3, gamma_n=1e-6, h=ZERO_H)
    assert (cfg.s_n, cfg.l_nr) == (1, 1)
    assert replace(cfg, sigma=0.0).l_nr == 0
    exact = ChainConfig(n=4, r=2, beta=1.0, sigma=1.0, gamma_n=1 / 16, h=ZERO_H)
    assert (exact.s_n, exact.l_nr) == (1, 1)


def test_capacities_are_pairs_with_smaller_diagonal():
    cfg = ChainConfig(n=4, r=3, beta=1.0, sigma=0.0, gamma_n=0.1, h=ZERO_H)
    caps = cfg.capacities()
    assert caps[0, 1] == 16 and caps[0, 0] == 6
    assert np.array_equal(caps, caps.T)


def test_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(n=1, r=2, beta=1.0, sigma=0.0, gamma_n=0.1, h=ZERO_H)
    with pytest.raises(ValueError):
        ChainConfig(n=4, r=2, beta=1.0, sigma=0.0, gamma_n=0.0, h=ZERO_H)
    with pytest.raises(ValueError):
        ChainConfig(n=4, r=2, beta=1.0, sigma=-0.5, gamma_n=0.1, h=ZERO_H)
    for name in ("beta", "sigma", "gamma_n"):
        for value in (math.inf, -math.inf, math.nan):
            params = dict(n=8, r=2, beta=1.0, sigma=1.0, gamma_n=1 / 32, h=ZERO_H)
            params[name] = value
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                ChainConfig(**params)
    base = dict(r=2, beta=1.0, sigma=0.0, gamma_n=0.1, h=ZERO_H)
    with pytest.raises(ValueError, match="iterations must be nonnegative"):
        ChainConfig(n=8, iterations=-3, **base)
    assert ChainConfig(n=metropolis.N_LIMIT, **base).capacities()[0, 1] == metropolis.N_LIMIT**2
    with pytest.raises(ValueError, match="overflow int64"):
        ChainConfig(n=metropolis.N_LIMIT + 1, **base)


def test_config_rejects_walk_segments_past_the_sign_draw_limit():
    # construction only: a rejected config never reaches a sign draw
    base = dict(r=2, beta=1.0, h=ZERO_H, iterations=1)
    # s_n = 200^4 proposal steps over 3 coordinates: ~38 GB of int64 signs
    with pytest.raises(ValueError, match="past the limit"):
        ChainConfig(n=200, sigma=0.0, gamma_n=1.0, **base)
    # l_nr = 1e9 relaxation steps from a large sigma
    with pytest.raises(ValueError, match="past the limit"):
        ChainConfig(n=200, sigma=100.0, gamma_n=1e-3, **base)
    with pytest.raises(ValueError, match="past the limit"):
        ChainConfig(n=16, sigma=0.0, gamma_n=1e30, **base)
    with pytest.raises(ValueError, match="overflows"):
        ChainConfig(n=16, sigma=0.0, gamma_n=1e200, **base)
    # just under the limit is accepted; a sampler config (no iterations) never walks
    side = math.isqrt(metropolis.SIGN_DRAW_LIMIT // 3)
    ok = ChainConfig(n=int(math.isqrt(side)), sigma=0.0, gamma_n=1.0, **base)
    assert ok.s_n * 3 <= metropolis.SIGN_DRAW_LIMIT
    assert ChainConfig(n=200, r=2, beta=0.0, sigma=0.0, gamma_n=1.0, h=ZERO_H).s_n == 200**4


@pytest.mark.filterwarnings("ignore:gamma_n")
def test_sign_draws_past_the_limit_are_refused_before_allocating(monkeypatch):
    # every public path checks the longer walk segment before its first draw:
    # s_n = 4 rows of m = 3 signs without relaxation, l_nr = 13 rows with it
    half = np.full((2, 2), 0.5)
    made, drawn = [], []
    from_density = ChainState.from_density.__func__
    monkeypatch.setattr(ChainState, "from_density", classmethod(
        lambda cls, *args: made.append(from_density(cls, *args)) or made[-1]))
    trial_draws = _draws.trial_draws
    monkeypatch.setattr(_draws, "trial_draws",
                        lambda *args: drawn.append(args) or trial_draws(*args))
    # built before the limit is lowered, which a config checks as well
    cfgs = [ChainConfig(n=4, r=2, beta=1.0, sigma=sigma, gamma_n=1 / 8, h=TRIANGLE_EDGE, seed=3,
                        iterations=2) for sigma in (0.0, 2.5)]
    for cfg, rows in zip(cfgs, (4, 13)):
        assert max(cfg.s_n, cfg.l_nr) == rows
        fresh = np.random.default_rng(cfg.seed).bit_generator.state
        paths = (lambda: run_chain(cfg),
                 lambda: metropolis_step(ChainState.from_density(cfg, half), cfg))
        monkeypatch.setattr(metropolis, "SIGN_DRAW_LIMIT", rows * 3)
        for path in paths:
            path()
            assert made[-1].rng.bit_generator.state != fresh
        monkeypatch.setattr(metropolis, "SIGN_DRAW_LIMIT", rows * 3 - 1)
        for path in paths:
            with pytest.raises(ValueError, match="past the limit"):
                path()
            assert made[-1].step_index == 0
            assert np.array_equal(made[-1].counts, quantize_density(cfg, half))
            assert made[-1].rng.bit_generator.state == fresh
        # the drift trials draw from seeds spawned per block: refused before any draw
        monkeypatch.setattr(metropolis, "SIGN_DRAW_LIMIT", rows * 3)
        empirical_drift(cfg, half, 2)
        assert drawn
        drawn.clear()
        monkeypatch.setattr(metropolis, "SIGN_DRAW_LIMIT", rows * 3 - 1)
        with pytest.raises(ValueError, match="past the limit"):
            empirical_drift(cfg, half, 2)
        assert drawn == []


def test_regime_warnings_fire_on_both_sides():
    coarse = ChainConfig(n=16, r=2, beta=1.0, sigma=0.0, gamma_n=0.2, h=ZERO_H)
    assert any("(log n)^2" in msg for msg in coarse.validation_warnings())
    slow = ChainConfig(n=16, r=2, beta=1.0, sigma=0.0, gamma_n=0.004, h=ZERO_H)
    assert any("diffusive regime" in msg for msg in slow.validation_warnings())
    good = ChainConfig(n=256, r=2, beta=1.0, sigma=0.0, gamma_n=1 / 256, h=ZERO_H)
    assert good.validation_warnings() == []


# ---------------------------------------------------------------- quantization


def test_quantization_rounds_to_the_capacity_grid():
    cfg = ChainConfig(n=4, r=2, beta=1.0, sigma=0.0, gamma_n=0.1, h=ZERO_H)
    counts = quantize_density(cfg, np.full((2, 2), 0.5))
    assert counts[0, 0] == 3 and counts[0, 1] == 8  # caps 6 and 16


def test_quantization_clips_out_of_range_densities_to_the_grid():
    # a density past about 3.6e15 times a capacity of 16 overflows int64
    cfg = ChainConfig(n=4, r=2, beta=1.0, sigma=0.0, gamma_n=0.1, h=ZERO_H)
    q = np.array([[1e20, -1e20], [-1e20, 1.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = quantize_density(cfg, q)
    assert counts.tolist() == [[6, 0], [0, 6]]


def test_quantization_rejects_bad_input():
    cfg = ChainConfig(n=4, r=2, beta=1.0, sigma=0.0, gamma_n=0.1, h=ZERO_H)
    with pytest.raises(ValueError):
        quantize_density(cfg, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        quantize_density(cfg, np.array([[0.5, 0.1], [0.9, 0.5]]))
    # a non-finite density would cast to count 0, even +inf; NaN also slips
    # past empirical_drift's interior check, whose comparisons are all false
    for bad in (math.nan, math.inf, -math.inf):
        q = np.array([[0.5, bad], [bad, 0.5]])
        with pytest.raises(ValueError, match="density must be finite"):
            quantize_density(cfg, q)
        with pytest.raises(ValueError, match="density must be finite"):
            esbm_sample(cfg, q, np.random.default_rng(0))
    with pytest.raises(ValueError, match="density must be finite"):
        empirical_drift(cfg, np.array([[0.5, math.nan], [math.nan, 0.5]]), 4)


def test_block_model_sample_is_exact_at_the_quantized_density():
    cfg = ChainConfig(n=4, r=2, beta=1.0, sigma=0.0, gamma_n=0.1, h=ZERO_H)
    rng = np.random.default_rng(0)
    edges, realized = esbm_sample(cfg, np.zeros((2, 2)), rng)
    assert len(edges) == 0
    edges, realized = esbm_sample(cfg, np.ones((2, 2)), rng)
    assert len(edges) == 2 * 6 + 16  # both diagonal cells full plus one off cell
    assert np.all(realized.values == 1.0)
    q = np.array([[0.3, 0.6], [0.6, 0.8]])
    edges, realized = esbm_sample(cfg, q, rng)
    counts = quantize_density(cfg, q)
    assert np.array_equal(realized.values, counts / cfg.capacities())
    assert len(edges) == counts[0, 0] + counts[0, 1] + counts[1, 1]
    # edges are distinct unordered pairs of distinct global vertices
    assert len({tuple(sorted(e)) for e in edges.tolist()}) == len(edges)
    assert np.all(edges[:, 0] != edges[:, 1])
    assert edges.min() >= 0 and edges.max() < cfg.n * cfg.r


@pytest.mark.parametrize("n", [2, 10, 150_000_000, metropolis.N_LIMIT])
def test_diagonal_pairs_decode_exactly_at_row_starts_and_ends(n):
    # row a of the C(n, 2) pairs a < b holds (a, a + 1) .. (a, n - 1); past
    # n = 1.5e8 a float root sent row starts to the row before, and past about
    # 1.52e9 the old decode's 4 n (n - 1) overflowed int64
    rows = {0, (n - 2) // 2, n - 2}
    rows |= set(np.random.default_rng(n).integers(0, n - 1, 2000).tolist())
    want = {}
    for a in rows:
        start = a * (2 * n - a - 1) // 2
        want[start], want[start + n - 2 - a] = (a, a + 1), (a, n - 1)
    a, b = _diagonal_pairs(np.array(list(want), dtype=np.int64), n)
    assert list(zip(a.tolist(), b.tolist())) == list(want.values())
    cfg = ChainConfig(n=n, r=1, beta=1.0, sigma=0.0, gamma_n=0.1, h=ZERO_H)
    q = np.full((1, 1), min(1.0, 20 / cfg.capacities()[0, 0]))
    edges, _ = esbm_sample(cfg, q, np.random.default_rng(0))
    assert len(edges) == quantize_density(cfg, q)[0, 0]
    assert np.all(edges[:, 0] < edges[:, 1]) and edges.min() >= 0 and edges.max() < n


def test_block_model_sample_past_the_edge_limit_is_refused(monkeypatch):
    cfg = ChainConfig(n=4, r=2, beta=1.0, sigma=0.0, gamma_n=0.1, h=ZERO_H)
    monkeypatch.setattr(metropolis, "EDGE_TOTAL_LIMIT", 28)
    edges, _ = esbm_sample(cfg, np.ones((2, 2)), np.random.default_rng(0))
    assert len(edges) == 28  # exactly at the limit
    # the draw is refused before any rng call: the stream is left untouched
    rng = np.random.default_rng(0)
    monkeypatch.setattr(metropolis, "EDGE_TOTAL_LIMIT", 27)
    with pytest.raises(ValueError, match="28 edges, past the limit of 27"):
        esbm_sample(cfg, np.ones((2, 2)), rng)
    assert rng.random() == np.random.default_rng(0).random()


# ---------------------------------------------------------------- base walk


def test_floor_steps_stay_half_the_time():
    cfg = ChainConfig(n=4, r=2, beta=0.0, sigma=0.0, gamma_n=1.0, h=ZERO_H)
    walk = _CountWalk(cfg)
    rng = np.random.default_rng(8)
    stays = 0
    trials = 10**4
    for _ in range(trials):
        vec = np.zeros(walk.m, dtype=np.int64)
        walk.steps(vec, draw_signs(rng, 1, walk.m))
        stays += int(vec[0] == 0)
    assert abs(stays / trials - 0.5) < 0.02


def test_interior_steps_never_stay_and_are_fair():
    cfg = ChainConfig(n=8, r=2, beta=0.0, sigma=0.0, gamma_n=1.0, h=ZERO_H)
    walk = _CountWalk(cfg)
    start = walk.caps // 2
    rng = np.random.default_rng(9)
    moves = []
    for _ in range(10**4):
        vec = start.copy()
        walk.steps(vec, draw_signs(rng, 1, walk.m))
        assert not np.any(vec == start)
        moves.extend((vec - start).tolist())
    moves = np.array(moves)
    assert np.all(np.abs(moves) == 1)
    assert abs(moves.mean()) < 0.02
    assert moves.var() == pytest.approx(1.0, abs=0.01)


def test_counts_respect_their_bounds_under_heavy_fuzz():
    cfg = ChainConfig(n=64, r=16, beta=0.0, sigma=0.0, gamma_n=1.0, h=ZERO_H)
    walk = _CountWalk(cfg)
    rng = np.random.default_rng(10)
    vec = np.zeros(walk.m, dtype=np.int64)  # start pinned to the floor
    for _ in range(100):
        walk.steps(vec, draw_signs(rng, 100, walk.m))  # 1.36e6 moves total
        assert np.all(vec >= 0) and np.all(vec <= walk.caps)


@pytest.mark.parametrize("rows", [1, 16, 1024])
@pytest.mark.parametrize("dtype", [np.int64, np.int8])
@pytest.mark.parametrize("batch", [None, 7])
def test_walk_matches_the_clip_loop_exactly(rows, dtype, batch):
    # n = 3 gives capacities 9 off the diagonal and 3 on it, so 1024 rows
    # pin coordinates to both faces many times over
    cfg = ChainConfig(n=3, r=4, beta=0.0, sigma=0.0, gamma_n=1.0, h=ZERO_H)
    walk = _CountWalk(cfg)
    assert set(walk.caps.tolist()) == {3, 9}
    rng = np.random.default_rng(rows)
    shape = (walk.m,) if batch is None else (batch, walk.m)
    for start in ("floor", "cap", "random"):
        if start == "floor":
            vec = np.zeros(shape, dtype=np.int64)
        elif start == "cap":
            vec = np.broadcast_to(walk.caps, shape).copy()
        else:
            vec = rng.integers(0, walk.caps + 1, size=shape)
        signs = (rng.integers(0, 2, size=(rows, *shape)) * 2 - 1).astype(dtype)
        ref = vec.copy()
        clip_walk(ref, signs, walk.caps)
        walk.steps(vec, signs)
        assert vec.dtype == np.int64
        assert np.array_equal(vec, ref)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_walk_stays_in_range_and_matches_the_clip_loop(data):
    # capacities at the range of the first segment's walk, above it, one under
    # it (the row-loop fallback) and far under it; the other segments' ranges
    # land on either side, so compose mixes closed-form and fallback columns
    r = data.draw(st.integers(1, 3), label="r")
    k = data.draw(st.integers(1, 4), label="segments")
    rows = data.draw(st.integers(0, 2000), label="rows")
    dtype = data.draw(st.sampled_from([np.int8, np.int64]), label="dtype")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    walk = _CountWalk(ChainConfig(n=2, r=r, beta=0.0, sigma=0.0, gamma_n=1.0, h=ZERO_H))
    signs = (rng.integers(0, 2, size=(k, rows, walk.m)) * 2 - 1).astype(dtype)
    path = np.zeros((k, rows + 1, walk.m), dtype=np.int64)
    np.cumsum(signs, axis=1, out=path[:, 1:])
    ranges = path.max(axis=1) - path.min(axis=1)
    offsets = data.draw(st.lists(st.sampled_from([-5, -1, 0, 1, 7]), min_size=walk.m,
                                 max_size=walk.m), label="cap - range")
    walk.caps = np.maximum(ranges[0] + offsets, 1)
    # from the floor, from capacity and from a random start: (3, k, m)
    starts = np.stack([np.zeros((k, walk.m), dtype=np.int64),
                       np.broadcast_to(walk.caps, (k, walk.m)),
                       rng.integers(0, walk.caps + 1, size=(k, walk.m))])
    ref = starts.copy()
    clip_walk(ref, signs.transpose(1, 0, 2), walk.caps)
    a, lo, hi = walk.compose(signs.transpose(1, 0, 2))
    assert np.array_equal(a, path[:, -1])
    assert np.array_equal(lo, ref[0]) and np.array_equal(hi, ref[1])
    assert np.array_equal(np.minimum(np.maximum(starts + a, lo), hi), ref)
    i = data.draw(st.integers(0, 2), label="start")
    vec, one = starts[i].copy(), starts[i, 0].copy()
    walk.steps(vec, signs.transpose(1, 0, 2))
    walk.steps(one, signs[0])
    assert np.all(vec >= 0) and np.all(vec <= walk.caps)
    assert vec.dtype == np.int64 and np.array_equal(vec, ref[i])
    assert np.array_equal(one, ref[i, 0])


@pytest.mark.parametrize("rows", [32767, 32768])
def test_walk_partial_sums_widen_past_the_int16_range(rows):
    # a climb from the floor and a descent from capacity 40000, every row one
    # step: the partial sums reach +-rows, and 32768 wraps in int16
    walk = _CountWalk(ChainConfig(n=2, r=1, beta=0.0, sigma=0.0, gamma_n=1.0, h=ZERO_H))
    walk.caps = np.array([40000])
    signs = np.ones((rows, 2, 1), dtype=np.int8)
    signs[:, 1] = -1
    vec = np.array([[0], [40000]])
    walk.steps(vec, signs)
    assert vec.tolist() == [[rows], [40000 - rows]]
    a, lo, hi = walk.compose(signs)
    assert (a.tolist(), lo.tolist(), hi.tolist()) == (
        [[rows], [-rows]], [[rows], [0]], [[40000], [40000 - rows]])


@pytest.mark.parametrize("r", range(1, 9))
def test_the_walk_maps_symmetric_matrices_and_upper_triangle_vectors_both_ways(r):
    walk = _CountWalk(ChainConfig(n=4, r=r, beta=0.0, sigma=0.0, gamma_n=1.0, h=ZERO_H))
    assert walk.m == r * (r + 1) // 2
    assert np.array_equal(walk.full, walk.full.T)
    assert np.array_equal(walk.full[walk.iu], np.arange(walk.m))
    vec = np.random.default_rng(r).integers(0, 17, walk.m)
    assert np.array_equal(vec[walk.full][walk.iu], vec)


def test_single_coordinate_transition_function_is_symmetric():
    # detailed balance w.r.t. the uniform law: the lazy reflected walk on
    # {0..cap} has a symmetric one-step transition matrix; built here by
    # enumerating the implementation on every (state, sign) pair for the
    # n = 2 off-diagonal coordinate (capacity 4, five states)
    cfg = ChainConfig(n=2, r=2, beta=0.0, sigma=0.0, gamma_n=1.0, h=ZERO_H)
    walk = _CountWalk(cfg)
    cap = int(cfg.capacities()[0, 1])
    assert cap == 4
    coord = 1  # upper-triangle order: (0,0), (0,1), (1,1)
    p = np.zeros((cap + 1, cap + 1))
    for s in range(cap + 1):
        for sign in (-1, 1):
            vec = np.zeros(walk.m, dtype=np.int64)
            vec[coord] = s
            row = np.zeros((1, walk.m), dtype=np.int64)
            row[0, :] = 1
            row[0, coord] = sign
            walk.steps(vec, row)
            p[s, vec[coord]] += 0.5
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.array_equal(p, p.T)


def test_proposal_displacement_matches_the_step_budget():
    # after s_n fair reflected moves from an interior start, each coordinate
    # displaces by ~sqrt(s_n) counts; in density units the off-diagonal
    # coordinates contribute s_n / n^4 = gamma^2 each and the diagonal ones
    # (capacity n(n-1)/2) the same times (n^2 / (n(n-1)/2))^2
    n, r, gamma = 64, 16, 1 / 256
    cfg = ChainConfig(n=n, r=r, beta=0.0, sigma=0.0, gamma_n=gamma, h=ZERO_H)
    assert cfg.s_n == 256
    walk = _CountWalk(cfg)
    vec0 = quantize_density(cfg, np.full((r, r), 0.5))[walk.iu]
    rng = np.random.default_rng(17)
    trials = 1000
    vecs = np.broadcast_to(vec0, (trials, walk.m)).astype(np.int64).copy()
    for _ in range(cfg.s_n):
        signs = rng.integers(0, 2, size=(trials, walk.m), dtype=np.int64) * 2 - 1
        np.add(vecs, signs, out=vecs)
        np.clip(vecs, 0, walk.caps, out=vecs)
    caps = cfg.capacities()
    disp = np.empty(trials)
    full0 = np.zeros((r, r))
    full0[walk.iu] = vec0
    full0.T[walk.iu] = vec0
    f = np.zeros((r, r))
    for i in range(trials):
        f[walk.iu] = vecs[i]
        f.T[walk.iu] = vecs[i]
        disp[i] = float((((f - full0) / caps) ** 2).sum()) / r**2
    off_cap, diag_cap = n**2, n * (n - 1) // 2
    expected = gamma**2 * ((r * r - r) + r * (off_cap / diag_cap) ** 2) / r**2
    assert disp.mean() == pytest.approx(expected, rel=0.10)
    assert disp.max() <= 32.0 * gamma**2 * math.log(n)


# ---------------------------------------------------------------- acceptance


def test_flat_energy_always_accepts():
    cfg = ChainConfig(n=8, r=2, beta=1.0, sigma=0.0, gamma_n=1 / 64, h=ZERO_H, seed=1)
    state = ChainState.from_density(cfg, np.full((2, 2), 0.5))
    for _ in range(50):
        state, accepted, diag = metropolis_step(state, cfg)
        assert accepted and diag.acc_prob == 1.0


def test_acceptance_probability_follows_the_energy_increment():
    cfg = ChainConfig(
        n=8, r=2, beta=0.9, sigma=0.0, gamma_n=1 / 64, h=TRIANGLE_EDGE, seed=2
    )
    state = ChainState.from_density(cfg, np.full((2, 2), 0.5))
    saw_downhill = saw_uphill = False
    for _ in range(200):
        state, _, diag = metropolis_step(state, cfg)
        assert diag.acc_prob == pytest.approx(
            math.exp(-cfg.beta_nr * max(0.0, diag.delta_h))
        )
        if diag.delta_h <= 0:
            assert diag.acc_prob == 1.0
            saw_downhill = True
        else:
            saw_uphill = True
    assert saw_downhill and saw_uphill


def test_unit_energy_jump_at_log_two_temperature_accepts_half_the_time():
    # with s_n = 1 every proposal leaves the start, the flag energy charges
    # exactly +1, and beta_nr = log 2 makes the acceptance probability 1/2
    class FlagEnergy:
        def evaluate(self, w):
            return 0.0 if np.allclose(w.values, 0.5, atol=1e-12) else 1.0

    cfg = ChainConfig(
        n=8, r=2, beta=math.log(2) / 16, sigma=0.0, gamma_n=1 / 64, h=FlagEnergy(), seed=0
    )
    assert cfg.s_n == 1
    assert cfg.beta_nr == pytest.approx(math.log(2))
    accepted = 0
    trials = 10**4
    for seq in np.random.SeedSequence(99).spawn(trials):
        state = ChainState.from_density(cfg, np.full((2, 2), 0.5), np.random.default_rng(seq))
        _, a, diag = metropolis_step(state, cfg)
        assert diag.acc_prob == 0.5
        accepted += a
    assert abs(accepted / trials - 0.5) < 0.02


def test_noiseless_chain_equals_a_plain_metropolis_chain_reimplementation():
    # same draw order (proposal signs, one uniform), same lazy reflection:
    # the trajectories must agree count-for-count under a shared seed
    cfg = ChainConfig(
        n=8, r=2, beta=0.7, sigma=0.0, gamma_n=1 / 32, h=TRIANGLE_EDGE, seed=21
    )
    state = ChainState.from_density(cfg, np.full((2, 2), 0.5))
    rng = np.random.default_rng(cfg.seed)
    caps = cfg.capacities()
    iu = np.triu_indices(cfg.r)
    vec = quantize_density(cfg, np.full((2, 2), 0.5))[iu]
    capv = caps[iu]
    full = np.zeros((cfg.r, cfg.r))

    def energy_of(v):
        full[iu] = v
        full.T[iu] = v
        return cfg.h.evaluate(StepKernel(full / caps))

    for _ in range(60):
        state, _, _ = metropolis_step(state, cfg)
        prop = vec.copy()
        signs = rng.integers(0, 2, size=(cfg.s_n, len(vec)), dtype=np.int64) * 2 - 1
        for row in signs:
            prop = np.clip(prop + row, 0, capv)
        delta = energy_of(prop) - energy_of(vec)
        if rng.random() < math.exp(-cfg.beta_nr * max(0.0, delta)):
            vec = prop
        assert np.array_equal(state.counts[iu], vec)


# ---------------------------------------------------------------- trajectories


@pytest.mark.filterwarnings("ignore:gamma_n")
def test_zero_iterations_returns_only_the_start():
    cfg = ChainConfig(n=8, r=2, beta=1.0, sigma=0.0, gamma_n=1 / 32, h=ZERO_H, seed=0)
    recs = run_chain(cfg)
    assert len(recs) == 1 and recs[0].step == 0
    assert np.all(recs[0].density.values == 0.5)
    assert recs[0].acc_prob == 1.0 and recs[0].accepted


@pytest.mark.filterwarnings("ignore:gamma_n")
def test_runs_are_reproducible_and_record_milestones():
    cfg = ChainConfig(
        n=8, r=2, beta=0.5, sigma=1.0, gamma_n=1 / 32, h=TRIANGLE_EDGE, seed=3,
        iterations=50,
    )
    a = run_chain(cfg, record_every=20, milestones=(7, 33))
    b = run_chain(cfg, record_every=20, milestones=(7, 33))
    assert [rec.step for rec in a] == [0, 7, 20, 33, 40, 50]
    for x, y in zip(a, b):
        assert np.array_equal(x.density.values, y.density.values)
        assert x.energy == y.energy


@pytest.mark.filterwarnings("ignore:gamma_n")
@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_a_chain_wraps_one_kernel_per_record(monkeypatch, sigma):
    # the chain's own energies go through _energies' stacks; only a record
    # wraps its density in a StepKernel
    trusted = StepKernel._trusted
    built = []
    monkeypatch.setattr(StepKernel, "_trusted",
                        classmethod(lambda cls, values: built.append(1) or trusted(values)))
    cfg = ChainConfig(n=8, r=2, beta=0.5, sigma=sigma, gamma_n=1 / 32, h=TRIANGLE_EDGE, seed=3,
                      iterations=50)
    recs = run_chain(cfg, record_every=7)
    assert len(built) == len(recs) == 9


@pytest.mark.filterwarnings("ignore:gamma_n")
def test_uniform_and_kernel_inits():
    cfg = ChainConfig(n=8, r=2, beta=1.0, sigma=0.0, gamma_n=1 / 32, h=ZERO_H, seed=5)
    recs = run_chain(cfg, init="uniform")
    assert np.all(recs[0].density.values >= 0.0) and np.all(recs[0].density.values <= 1.0)
    recs = run_chain(cfg, init=StepKernel.constant(2, 0.25))
    # 0.25 hits the count grid exactly in both cell kinds: rint(.25 * 28) / 28
    # and rint(.25 * 64) / 64 are both one quarter
    assert np.all(recs[0].density.values == 0.25)
    with pytest.raises(ValueError):
        run_chain(cfg, init="gibbs")
    with pytest.raises(ValueError, match="record_every must be at least 1"):
        run_chain(cfg, record_every=0)


UNIFORM_SHA256 = {
    (2, 1, 0): "7c9fa136d4413fa6173637e883b6998d32e1d675f88cddff9dcbcf331820f4b8",
    (16, 4, 3): "0d7dc665b923d1e067784d019c4cb449a4b7db9a5cbbcb5170c610d98823aa46",
    (5000, 7, 11): "9d4735fcc35d7d8a1e4acb6aedd5d79cb1147448703e62d4620ee957449d002b",
}


@pytest.mark.parametrize("n, r, seed", sorted(UNIFORM_SHA256))
def test_the_uniform_start_reproduces_its_recorded_bits(n, r, seed):
    # one capacity-bounded integer draw per upper-triangle cell, in row order
    cfg = ChainConfig(n=n, r=r, beta=1.0, sigma=0.0, gamma_n=1 / 32, h=ZERO_H)
    counts = ChainState.uniform(cfg, np.random.default_rng(seed)).counts
    assert counts.dtype == np.int64 and np.array_equal(counts, counts.T)
    assert _arrays_sha256(counts) == UNIFORM_SHA256[n, r, seed]


def _records_sha256(records, caps):
    h = hashlib.sha256()
    for rec in records:
        h.update(np.rint(rec.density.values * caps).astype(np.int64).tobytes())
        h.update(struct.pack("<dd?", rec.energy, rec.acc_prob, bool(rec.accepted)))
    return h.hexdigest()


MANTEL_300_SHA256 = "5f027638472c00299d4b882c8e7c5a8dc1a3f59045a3e832e7ae82effe3c019f"


@pytest.mark.filterwarnings("ignore:gamma_n")
def test_mantel_shaped_chain_reproduces_its_recorded_bits():
    # pins counts, energies, acceptance probabilities and flags of every
    # record, and with them the draw order: proposal signs, one uniform,
    # relaxation signs (s_n = 16, l_nr = 1 at this shape)
    cfg = ChainConfig(n=16, r=16, beta=0.25, sigma=1.0, gamma_n=1 / 64, h=TRIANGLE_EDGE,
                      seed=0, iterations=300)
    records = run_chain(cfg)
    assert len(records) == 301
    assert not records[-1].density.values.flags.writeable
    assert _records_sha256(records, cfg.capacities()) == MANTEL_300_SHA256


MANTEL_2000_SHA256 = "31768a6679473ea5e53d0606cdbb4b699e7e011f13292a7ba174e5d222878628"


@pytest.mark.filterwarnings("ignore:gamma_n")
def test_mantel_shaped_block_path_reproduces_its_recorded_bits():
    # the benchmark's chain shape: a record every 100 iterations, so every
    # iteration runs in a block, and at r = 16 in speculative batches
    cfg = ChainConfig(n=16, r=16, beta=0.25, sigma=1.0, gamma_n=1 / 64, h=TRIANGLE_EDGE,
                      seed=0, iterations=2000)
    records = run_chain(cfg, record_every=100)
    assert [rec.step for rec in records] == list(range(0, 2001, 100))
    assert _records_sha256(records, cfg.capacities()) == MANTEL_2000_SHA256


def test_the_draw_decoder_agrees_with_this_numpy():
    # otherwise every chain, drift trial and annealed search draws one
    # Generator call at a time, and the decoder tests test only the fallback
    assert _draws.decoder_agrees()


class _NoAdvance(np.random.PCG64):
    def __getattribute__(self, name):
        if name == "advance":
            raise AttributeError(name)
        return super().__getattribute__(name)


class _NoCarry(np.random.PCG64):
    state = property(lambda self: {k: v for k, v in np.random.PCG64.state.__get__(self).items()
                                   if k != "has_uint32"}, np.random.PCG64.state.__set__)


@pytest.mark.parametrize("bitgen", [_NoAdvance, _NoCarry], ids=["no-advance", "no-carry"])
def test_the_decoder_check_fails_without_advance_or_a_carry_in_the_state(monkeypatch, bitgen):
    monkeypatch.setattr(np.random, "default_rng", lambda seed: np.random.Generator(bitgen(seed)))
    assert _draws.decoder_agrees.__wrapped__() is False


def test_raw_words_are_read_only_in_the_draws_module():
    # one module knows how the Generator maps raw words to draws
    readers = {path.name for path in Path(metropolis.__file__).parent.glob("*.py")
               if re.search(r"\b(random_raw|advance)\s*\(", path.read_text())}
    assert readers == {"_draws.py"}


def test_the_upper_triangle_layout_is_built_only_by_the_walk():
    # _CountWalk.iu and full are the one map between symmetric matrices and
    # upper-triangle vectors; no other code in the chain module rebuilds it
    lines, first = inspect.getsourcelines(_CountWalk.__init__)
    source = Path(metropolis.__file__).read_text().splitlines()
    hits = [k for k, line in enumerate(source, 1) if re.search(r"\btriu(_indices)?\s*\(", line)]
    assert hits and all(first <= k < first + len(lines) for k in hits)
    definers = {path.name for path in Path(metropolis.__file__).parent.glob("*.py")
                if re.search(r"\bdef\s+_write_symmetric\b", path.read_text())}
    assert definers == set()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(1, 40),
       st.lists(st.integers(0, 2**32 - 1), max_size=40), st.integers(1, 31))
def test_the_half_word_decode_gives_the_chains_signs_and_a_power_of_two_never_rejects(
        seed, words, halves, k):
    # a sign is integers(0, 2) of one half-word, low half first: its top bit
    raw = np.random.default_rng(seed).bit_generator.random_raw(words)
    signs, rejected = lemire(raw.view(np.uint32), 2)
    want = np.random.default_rng(seed).integers(0, 2, size=2 * words, dtype=np.int64)
    assert signs.tolist() == want.tolist() and not rejected.any()
    # at r = 2^k Lemire's threshold (2^32 - r) mod r is 0; 2^31 is the first +1 sign
    halves += [0, 2**31 - 1, 2**31, 2**32 - 1]
    values, rejected = lemire(np.array(halves, dtype=np.uint32), 2**k)
    assert values.tolist() == [h >> (32 - k) for h in halves] and not rejected.any()


@pytest.mark.parametrize("pre", [0, 3], ids=["no-carry", "carry"])
@pytest.mark.parametrize("s, rl", [(5, 6), (4, 0), (3, 0), (7, 3), (6, 2), (1, 1), (2, 5)])
@pytest.mark.parametrize("iters", [1, 2, 5])
def test_decoded_draws_match_the_generator_calls(pre, s, rl, iters):
    # pre = 3 leaves a carry waiting, as a ChainState.uniform start can
    seq, blk = np.random.default_rng(7), np.random.default_rng(7)
    for g in (seq, blk):
        g.integers(0, 2, size=pre, dtype=np.int64)
    assert blk.bit_generator.state["has_uint32"] == pre % 2
    signs, unif = block_draws(blk.bit_generator, iters, s, rl)
    assert signs.dtype == np.int8 and signs.shape == (iters, s + rl)
    for j in range(iters):
        assert np.array_equal(signs[j, :s], seq.integers(0, 2, size=s, dtype=np.int64) * 2 - 1)
        assert unif[j] == seq.random()
        if rl:
            assert np.array_equal(signs[j, s:], seq.integers(0, 2, size=rl, dtype=np.int64) * 2 - 1)
    assert blk.bit_generator.state == seq.bit_generator.state


def _stepped_chain(cfg, init, record_every, milestones):
    """Reference: run_chain's records as one call-by-call oracle step per
    iteration, and the generator's state at the end."""
    rng = np.random.default_rng(cfg.seed)
    if init == "uniform":
        state = ChainState.uniform(cfg, rng)
    else:
        state = ChainState.from_density(cfg, np.full((cfg.r, cfg.r), 0.5), rng)
    walk = _CountWalk(cfg)
    energy = cfg.h.evaluate(StepKernel(state.counts / cfg.capacities()))
    acc_prob, accepted = 1.0, True
    marks = {0, cfg.iterations, *range(0, cfg.iterations + 1, record_every)}
    records = []
    for k in sorted(marks | {m for m in milestones if m <= cfg.iterations}):
        while state.step_index < k:
            _, accepted, diag = metropolis_step_call_by_call(state, cfg, walk, energy)
            energy, acc_prob = diag.energy, diag.acc_prob
        records.append((k, state.counts.copy(), energy, acc_prob, accepted))
    return records, state.rng.bit_generator.state


def _blocked_chain(cfg, init, record_every, milestones):
    """run_chain's records in the reference's form, and its generator's end state."""
    made = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("from_density", "uniform"):
            make = getattr(ChainState, name).__func__

            def spy(cls, *args, _make=make, **kwargs):
                made.append(_make(cls, *args, **kwargs))
                return made[-1]

            mp.setattr(ChainState, name, classmethod(spy))
        recs = run_chain(cfg, init, record_every=record_every, milestones=milestones)
    caps = cfg.capacities()
    records = [(rec.step, np.rint(rec.density.values * caps).astype(np.int64), rec.energy,
                rec.acc_prob, rec.accepted) for rec in recs]
    return records, made[0].rng.bit_generator.state


def _assert_same_records(got, want):
    # (step, counts, energy, acc_prob, accepted): energies and probabilities bit for bit
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a[0] == b[0] and np.array_equal(a[1], b[1])
        assert struct.pack("<dd", *a[2:4]) == struct.pack("<dd", *b[2:4])
        assert type(a[4]) is bool and a[4] == b[4]


@pytest.mark.filterwarnings("ignore")
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_block_stepped_chain_equals_the_single_step_loop(data):
    # odd s_n m and l_nr m (r = 1 or 2), l_nr = 0, uniform starts that leave a
    # carry, and block budgets from one iteration up
    n = data.draw(st.integers(2, 6), label="n")
    r = data.draw(st.integers(1, 3), label="r")
    gamma_n = data.draw(st.sampled_from([0.05, 0.1, 0.13, 0.2, 0.3]), label="gamma_n")
    sigma = data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.5]), label="sigma")
    beta = data.draw(st.sampled_from([0.0, 0.3, 4.0, 60.0]), label="beta")
    cfg = ChainConfig(n=n, r=r, beta=beta, sigma=sigma, gamma_n=gamma_n, h=TRIANGLE_EDGE,
                      seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
                      iterations=data.draw(st.integers(0, 40), label="iterations"))
    init = data.draw(st.sampled_from([None, "uniform"]), label="init")
    record_every = data.draw(st.integers(1, 45), label="record_every")
    milestones = data.draw(st.lists(st.integers(0, 45), max_size=3), label="milestones")
    # raw words per iteration, as run_chain sizes its blocks
    words = ((cfg.s_n + cfg.l_nr) * r * (r + 1) // 2 + 1) // 2 + 1
    budget = data.draw(st.sampled_from([1, 2, 3, 5]), label="block") * words
    budget = data.draw(st.sampled_from([budget, metropolis.BLOCK_WORDS]), label="budget")
    want = _stepped_chain(cfg, init, record_every, milestones)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metropolis, "BLOCK_WORDS", budget)
        got = _blocked_chain(cfg, init, record_every, milestones)
    _assert_same_records(got[0], want[0])
    assert got[1] == want[1]


# with and without entropy, terms with closed forms for stacks, and terms
# without (path3, star3), which take one einsum per kernel of a stack
STACK_HS = (
    TRIANGLE_EDGE,
    Hamiltonian(((1.0, triangle_graph()), (-0.25, edge_graph())), 0.5),
    Hamiltonian(((0.2, cycle_graph(4)), (0.3, path_graph(2)), (-1.0, edge_graph()))),
    Hamiltonian(((1.0, path_graph(3)), (-0.25, edge_graph()))),
    Hamiltonian(((0.5, named_term_graph("star3")), (-0.25, edge_graph())), 0.3),
)


@pytest.mark.filterwarnings("ignore")
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_speculative_blocks_equal_the_single_step_loop(data):
    # r up to 16, beta from 0 to 1e5, which rejects most uphill proposals,
    # l_nr = 0, and odd block lengths and speculation depths
    n = data.draw(st.integers(2, 5), label="n")
    r = data.draw(st.sampled_from([1, 2, 5, 8, 16]), label="r")
    gamma_n = data.draw(st.sampled_from([0.05, 0.13, 0.3]), label="gamma_n")
    sigma = data.draw(st.sampled_from([0.0, 0.5, 2.5]), label="sigma")
    beta = data.draw(st.sampled_from([0.0, 0.3, 4.0, 60.0, 1e3, 1e5]), label="beta")
    cfg = ChainConfig(n=n, r=r, beta=beta, sigma=sigma, gamma_n=gamma_n,
                      h=data.draw(st.sampled_from(STACK_HS), label="h"),
                      seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
                      iterations=data.draw(st.integers(1, 60), label="iterations"))
    init = data.draw(st.sampled_from([None, "uniform"]), label="init")
    record_every = data.draw(st.sampled_from([7, 25, 60]), label="record_every")
    words = ((cfg.s_n + cfg.l_nr) * r * (r + 1) // 2 + 1) // 2 + 1
    budget = data.draw(st.sampled_from([3, 13, 10**6]), label="block") * words
    depth = data.draw(st.sampled_from([2, 3, 64]), label="depth")
    want = _stepped_chain(cfg, init, record_every, ())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metropolis, "BLOCK_WORDS", budget)
        mp.setattr(metropolis, "SPECULATION_DEPTH", depth)
        got = _blocked_chain(cfg, init, record_every, ())
    _assert_same_records(got[0], want[0])
    assert got[1] == want[1]


@pytest.mark.filterwarnings("ignore:gamma_n")
@pytest.mark.parametrize("beta", [0.25, 4e4, 1e7], ids=["accepting", "half", "rejecting"])
def test_speculation_at_the_mantel_shape_keeps_every_iteration(monkeypatch, beta):
    # every iteration's record of a call-by-call step loop at r = 16, against the
    # block path with records 83 apart and a milestone at the end.
    # Half of the proposals lower the energy here, so even beta = 1e7 accepts
    # those and rejects the rest.
    cfg = ChainConfig(n=16, r=16, beta=beta, sigma=1.0, gamma_n=1 / 64, h=TRIANGLE_EDGE,
                      seed=2, iterations=250)
    want, end = _stepped_chain(cfg, None, 1, ())
    accepted = np.mean([rec[4] for rec in want[1:]])
    assert {0.25: accepted == 1.0, 4e4: 0.3 < accepted < 0.7, 1e7: accepted < 0.5}[beta]
    stacks = []
    evaluate_stack = Hamiltonian.evaluate_stack
    # a one-kernel evaluate is a stack of one too: only longer stacks are runs
    monkeypatch.setattr(Hamiltonian, "evaluate_stack",
                        lambda h, v: len(v) > 1 and stacks.append(len(v)) or evaluate_stack(h, v))
    got, got_end = _blocked_chain(cfg, None, 83, (250,))
    _assert_same_records(got, [want[k] for k in (0, 83, 166, 249, 250)])
    assert got_end == end
    if beta == 0.25:
        # blocks of 113 iterations run through the records at 83 and 166.  The
        # first goes in runs of 1, 2, 4, .., 32 and 50; the next blocks start
        # at depth 64, in runs of 64 and 49, then 24.  A run of d > 1 stacks
        # its 2d - 1 densities up to its last proposal, and the last relaxed
        # state is one evaluate, so nothing is evaluated in vain; a run of 1
        # evaluates its one proposal as a stack of one
        assert stacks == [3, 7, 15, 31, 63, 99, 127, 97, 47]


@pytest.mark.filterwarnings("ignore:gamma_n")
def test_a_failed_decoder_check_falls_back_to_single_steps(monkeypatch):
    cfg = ChainConfig(n=16, r=16, beta=0.25, sigma=1.0, gamma_n=1 / 64, h=TRIANGLE_EDGE,
                      seed=0, iterations=300)
    odd = ChainConfig(n=5, r=2, beta=3.0, sigma=0.5, gamma_n=0.13, h=TRIANGLE_EDGE, seed=9,
                      iterations=120)
    assert odd.s_n * 3 % 2 == 1
    blocked = _blocked_chain(odd, "uniform", 50, (7,))
    relaxed = ChainConfig(n=16, r=3, beta=2.0, sigma=1.0, gamma_n=1 / 32, h=TRIANGLE_EDGE, seed=5)
    monkeypatch.setattr(metropolis, "DRIFT_BLOCK", 128)
    drift = empirical_drift(relaxed, np.full((3, 3), 0.3), 300)
    monkeypatch.setattr(_draws, "decoder_agrees", lambda: False)
    sizes = []
    draws = _draws.chain_draws
    monkeypatch.setattr(_draws, "chain_draws",
                        lambda rng, iters, *args: sizes.append(iters) or draws(rng, iters, *args))
    assert _records_sha256(run_chain(cfg), cfg.capacities()) == MANTEL_300_SHA256
    single = _blocked_chain(odd, "uniform", 50, (7,))
    _assert_same_records(single[0], blocked[0])
    assert single[1] == blocked[1]
    fallback = empirical_drift(relaxed, np.full((3, 3), 0.3), 300)
    assert all(np.array_equal(a, b) for a, b in zip(fallback, drift))
    # the draws change, not the iteration: both chains draw their blocks through
    # chain_draws, the first in blocks starting at 0, 113 and 226
    assert list(itertools.accumulate(sizes[:3], initial=0)) == [0, 113, 226, 300]
    assert sum(sizes[3:]) == 120


@pytest.mark.filterwarnings("ignore:gamma_n")
@pytest.mark.parametrize("record_every, milestones", [(20, (7, 33, 34)), (1, ())])
def test_blocks_tile_the_run_and_cross_records_and_milestones(monkeypatch, record_every,
                                                              milestones):
    cfg = ChainConfig(n=8, r=2, beta=0.5, sigma=1.0, gamma_n=1 / 32, h=TRIANGLE_EDGE, seed=3,
                      iterations=91)
    want = _stepped_chain(cfg, None, record_every, milestones)
    # blocks of at most 6 iterations: 15 of them and a last one of one iteration
    monkeypatch.setattr(metropolis, "BLOCK_WORDS", 6 * ((cfg.s_n + cfg.l_nr) * 3 // 2 + 1))
    spans = []
    draws = _draws.chain_draws
    single = metropolis.metropolis_step

    def spy_draws(rng, iters, *args):
        start = spans[-1][1] if spans else 0
        spans.append((start, start + iters))
        return draws(rng, iters, *args)

    def spy_single(state, *args):
        spans.append((state.step_index, state.step_index + 1, "single"))
        return single(state, *args)

    monkeypatch.setattr(_draws, "chain_draws", spy_draws)
    monkeypatch.setattr(metropolis, "metropolis_step", spy_single)
    got = _blocked_chain(cfg, None, record_every, milestones)
    _assert_same_records(got[0], want[0])
    assert got[1] == want[1]
    # the spans tile 0..91 in order, sized by BLOCK_WORDS alone: records and
    # milestones such as 7, 20, 33 and 34 fall inside blocks
    assert {7, 20, 33, 34} <= {rec[0] for rec in got[0]}
    assert spans == [(a, a + 6) for a in range(0, 90, 6)] + [(90, 91)]


@pytest.mark.filterwarnings("ignore:gamma_n")
@pytest.mark.parametrize("agrees", [True, False], ids=["decoded", "call-by-call"])
@pytest.mark.parametrize("iterations", [1, 2, 40])
@pytest.mark.parametrize("stacked", [True, False], ids=["stacks", "duck-typed"])
def test_run_chain_steps_only_through_step_block(monkeypatch, agrees, iterations, stacked):
    # one iteration path: decoded or call-by-call draws, one-iteration runs and
    # an h without evaluate_stack all go through _iterations
    cfg = ChainConfig(n=8, r=2, beta=0.5, sigma=1.0, gamma_n=1 / 32,
                      h=TRIANGLE_EDGE if stacked else BlowsUp(math.inf), seed=3,
                      iterations=iterations)
    want = _stepped_chain(cfg, "uniform", 1, ())

    def refuse(*args, **kwargs):
        raise AssertionError("run_chain called metropolis_step")

    monkeypatch.setattr(_draws, "decoder_agrees", lambda: agrees)
    monkeypatch.setattr(metropolis, "metropolis_step", refuse)
    got = _blocked_chain(cfg, "uniform", 1, ())
    _assert_same_records(got[0], want[0])
    assert got[1] == want[1]


@pytest.mark.filterwarnings("ignore:gamma_n")
@pytest.mark.parametrize("agrees", [True, False], ids=["decoded", "call-by-call"])
@pytest.mark.parametrize("sigma", [0.0, 1.0], ids=["unrelaxed", "relaxed"])
@pytest.mark.parametrize("stacked", [True, False], ids=["stacks", "duck-typed"])
@pytest.mark.parametrize("start", ["half", "uniform", "carry"])
def test_metropolis_step_equals_the_call_by_call_oracle(monkeypatch, agrees, sigma, stacked,
                                                        start):
    # an odd count of signs per iteration (33, or 33 + 18) leaves a half-word
    # waiting after every other one, and "carry" starts with one waiting;
    # beta = 30 accepts about half of the proposals
    cfg = ChainConfig(n=5, r=2, beta=30.0, sigma=sigma, gamma_n=0.13, seed=9,
                      h=TRIANGLE_EDGE if stacked else BlowsUp(math.inf))
    assert (cfg.s_n, cfg.l_nr) == (11, 6 if sigma else 0)
    monkeypatch.setattr(_draws, "decoder_agrees", lambda: agrees)
    got, want = (ChainState.uniform(cfg) if start == "uniform"
                 else ChainState.from_density(cfg, np.full((2, 2), 0.5)) for _ in range(2))
    if start == "carry":
        for state in (got, want):
            state.rng.integers(0, 2, size=3, dtype=np.int64)
        assert got.rng.bit_generator.state["has_uint32"] == 1
    walk, energy, flags = _CountWalk(cfg), None, []
    for _ in range(40):
        # metropolis_step evaluates its start every step; after the first step
        # the oracle carries walk and energy, so the two starts must agree
        args = (walk, energy) if flags else ()
        _, accepted, diag = metropolis_step(got, cfg)
        _, flag, ref = metropolis_step_call_by_call(want, cfg, *args)
        assert np.array_equal(got.counts, want.counts) and got.step_index == want.step_index
        assert struct.pack("<ddd", diag.delta_h, diag.acc_prob, diag.energy) == struct.pack(
            "<ddd", ref.delta_h, ref.acc_prob, ref.energy)
        assert type(accepted) is type(diag.accepted) is bool and accepted == diag.accepted == flag
        assert got.rng.bit_generator.state == want.rng.bit_generator.state
        energy = diag.energy
        flags.append(accepted)
    assert 5 < sum(flags) < 35


@pytest.mark.filterwarnings("ignore:gamma_n")
@pytest.mark.parametrize("bitgen", [np.random.MT19937, np.random.Philox, np.random.SFC64])
def test_a_step_on_another_bit_generator_draws_call_by_call(bitgen):
    # the decoder is checked on PCG64 only; before, a state on MT19937 raised
    # KeyError: 'has_uint32', and another one was decoded unchecked
    cfg = ChainConfig(n=5, r=2, beta=30.0, sigma=1.0, gamma_n=0.13, seed=9, h=TRIANGLE_EDGE)
    got, want = (ChainState.from_density(cfg, np.full((2, 2), 0.5),
                                         np.random.Generator(bitgen(1))) for _ in range(2))
    _, accepted, diag = metropolis_step(got, cfg)
    _, flag, ref = metropolis_step_call_by_call(want, cfg)
    assert np.array_equal(got.counts, want.counts) and accepted == flag
    assert struct.pack("<ddd", diag.delta_h, diag.acc_prob, diag.energy) == struct.pack(
        "<ddd", ref.delta_h, ref.acc_prob, ref.energy)
    assert got.rng.random() == want.rng.random()


@pytest.mark.filterwarnings("ignore:gamma_n")
def test_a_step_that_raises_keeps_its_counts_and_passes_its_draws():
    # beta < 0 overflows exp(-beta_nr dH) at the first uphill proposal, the
    # third step here: metropolis_step raises with the counts it started from,
    # its generator past the whole iteration's draws; the call-by-call oracle
    # leaves the proposal written and its generator past the proposal signs
    cfg = ChainConfig(n=8, r=2, beta=-1e5, sigma=1.0, gamma_n=1 / 32, h=TRIANGLE_EDGE, seed=3)
    got, want = (ChainState.from_density(cfg, np.full((2, 2), 0.5)) for _ in range(2))
    with pytest.raises(OverflowError):
        while True:
            counts, before = got.counts.copy(), got.rng.bit_generator.state
            metropolis_step(got, cfg)
            metropolis_step_call_by_call(want, cfg)
    assert got.step_index == want.step_index == 2
    assert np.array_equal(got.counts, counts)
    drawn = np.random.default_rng()
    drawn.bit_generator.state = before
    _draws.call_draws(drawn, 1, cfg.s_n * 3, cfg.l_nr * 3)
    assert got.rng.bit_generator.state == drawn.bit_generator.state
    with pytest.raises(OverflowError):
        metropolis_step_call_by_call(want, cfg)
    assert want.step_index == 2 and not np.array_equal(want.counts, counts)
    drawn.bit_generator.state = before
    draw_signs(drawn, cfg.s_n, 3)
    assert want.rng.bit_generator.state == drawn.bit_generator.state


@pytest.mark.filterwarnings("ignore")
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_records_inside_blocks_equal_the_single_step_loop(data):
    # records every 1 to 4 iterations and milestones, so that blocks of 3, 13
    # or BLOCK_WORDS' count of iterations record many steps; s_n and l_nr
    # vary with n, gamma_n and sigma, and l_nr = 0 at sigma = 0
    n = data.draw(st.integers(2, 5), label="n")
    r = data.draw(st.sampled_from([1, 2, 3, 5, 8]), label="r")
    gamma_n = data.draw(st.sampled_from([0.05, 0.13, 0.3]), label="gamma_n")
    sigma = data.draw(st.sampled_from([0.0, 0.5, 2.5]), label="sigma")
    beta = data.draw(st.sampled_from([0.0, 0.3, 60.0, 1e5]), label="beta")
    cfg = ChainConfig(n=n, r=r, beta=beta, sigma=sigma, gamma_n=gamma_n,
                      h=data.draw(st.sampled_from(STACK_HS), label="h"),
                      seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
                      iterations=data.draw(st.integers(0, 50), label="iterations"))
    init = data.draw(st.sampled_from([None, "uniform"]), label="init")
    record_every = data.draw(st.integers(1, 4), label="record_every")
    milestones = data.draw(st.lists(st.integers(0, 55), max_size=4), label="milestones")
    words = ((cfg.s_n + cfg.l_nr) * r * (r + 1) // 2 + 1) // 2 + 1
    budget = data.draw(st.sampled_from([3, 13, 10**6]), label="block") * words
    want = _stepped_chain(cfg, init, record_every, milestones)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metropolis, "BLOCK_WORDS", budget)
        got = _blocked_chain(cfg, init, record_every, milestones)
    _assert_same_records(got[0], want[0])
    assert got[1] == want[1]


class BlowsUp:
    """TRIANGLE_EDGE's energy up to its `after`-th evaluation, then +inf."""

    def __init__(self, after):
        self.after, self.calls = after, 0

    def evaluate(self, w):
        self.calls += 1
        return math.inf if self.calls > self.after else TRIANGLE_EDGE.evaluate(w)


@pytest.mark.filterwarnings("ignore:gamma_n")
@pytest.mark.parametrize("record_every", [1, 3])
def test_a_non_finite_energy_inside_a_block_raises_at_its_record(record_every):
    # the energy turns infinite at step 13; the block runs on past it, but
    # the run raises at the first record from there on, as the stepped loop
    # would, and the observers have seen every record before that one
    cfg = ChainConfig(n=8, r=2, beta=0.5, sigma=1.0, gamma_n=1 / 32, h=BlowsUp(25), seed=3,
                      iterations=40)
    want = _stepped_chain(cfg, None, record_every, ())[0]
    bad = next(i for i, rec in enumerate(want) if not math.isfinite(rec[2]))
    assert want[bad][0] == {1: 13, 3: 15}[record_every]
    seen = []
    cfg.h = BlowsUp(25)
    with pytest.raises(FloatingPointError, match=f"non-finite energy at step {want[bad][0]}"):
        run_chain(cfg, observers=[seen.append], record_every=record_every)
    caps = cfg.capacities()
    _assert_same_records([(rec.step, np.rint(rec.density.values * caps).astype(np.int64),
                           rec.energy, rec.acc_prob, rec.accepted) for rec in seen], want[:bad])


@pytest.mark.filterwarnings("ignore:gamma_n")
def test_an_energy_that_overflows_inside_a_speculative_run_warns_of_nothing(monkeypatch):
    # at n = 2 and r = 1 the one density is 0 or 1, and at 1 the two terms add
    # past the largest float: every proposal to 1 is rejected.  The stacks of
    # the runs hold such proposals, and give inf with no numpy RuntimeWarning
    h = Hamiltonian(((1e308, triangle_graph()), (1e308, edge_graph())))
    cfg = ChainConfig(n=2, r=1, beta=1.0, sigma=0.0, gamma_n=0.25, h=h, seed=1, iterations=200)
    stacked = []
    evaluate_stack = Hamiltonian.evaluate_stack
    monkeypatch.setattr(Hamiltonian, "evaluate_stack",
                        lambda self, v: stacked.append(evaluate_stack(self, v)) or stacked[-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        want = _stepped_chain(cfg, None, 1, ())
        got = _blocked_chain(cfg, None, 1, ())
    _assert_same_records(got[0], want[0])
    assert any(len(e) > 1 and np.isinf(e).any() for e in stacked)
    assert all(math.isfinite(rec[2]) for rec in got[0])


@pytest.mark.filterwarnings("ignore:gamma_n")
@pytest.mark.parametrize("record_every", [1, 2])
def test_an_error_inside_a_block_is_raised_after_the_records_before_it(record_every):
    # beta < 0 makes exp(-beta_nr dH) overflow at the first uphill proposal,
    # iteration 2 here: every record up to step 2 is still taken
    cfg = ChainConfig(n=8, r=2, beta=-1e5, sigma=1.0, gamma_n=1 / 32, h=TRIANGLE_EDGE, seed=3,
                      iterations=40)
    state = ChainState.from_density(cfg, np.full((2, 2), 0.5))
    with pytest.raises(OverflowError):
        while True:
            metropolis_step(state, cfg)
    assert state.step_index == 2
    seen = []
    with pytest.raises(OverflowError, match="math range error"):
        run_chain(cfg, observers=[seen.append], record_every=record_every)
    assert [rec.step for rec in seen] == list(range(0, 3, record_every))


# ---------------------------------------------------------------- drift and QV


def _arrays_sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def test_drift_and_quadratic_variation_reproduce_their_recorded_bits(monkeypatch):
    # the acceptance-test shapes (07: r = 4 tilt and flat control; 08: the
    # noise-only r = 2 chain), with fewer drift trials; 2500 trials span a
    # partial third block.  One relaxed triangle-energy case covers the
    # relaxation walk and per-trial energies.
    rng = np.random.default_rng(2024)
    c = rng.uniform(-0.6, 0.6, (4, 4))
    stub = LinearTilt((c + c.T) / 2)
    half = np.full((4, 4), 0.5)
    cfg = ChainConfig(n=32, r=4, beta=0.5, sigma=0.0, gamma_n=1 / 32, h=stub, seed=11)
    assert _arrays_sha256(*empirical_drift(cfg, half, 2500)) == (
        "0a195cf3ad21489f50a12a4c1437ebc97fea97b52f493e98e79fa45fb1f05bf8"
    )
    cfg0 = ChainConfig(n=32, r=4, beta=0.5, sigma=0.0, gamma_n=1 / 32, h=ZERO_H, seed=12)
    assert _arrays_sha256(*empirical_drift(cfg0, half, 2500)) == (
        "8b909076691705656f1b7964268d2dd56e935c792b54266a425dfa97a49529fd"
    )
    relaxed = ChainConfig(n=16, r=3, beta=2.0, sigma=1.0, gamma_n=1 / 32, h=TRIANGLE_EDGE, seed=5)
    assert (relaxed.s_n, relaxed.l_nr) == (64, 26)
    monkeypatch.setattr(metropolis, "DRIFT_BLOCK", 512)
    assert _arrays_sha256(*empirical_drift(relaxed, np.full((3, 3), 0.3), 1500)) == (
        "0315cf104818c61feaed530346a91d10982934d3e5715fb30fdeaff82867b8f6"
    )
    expected_qv = {
        0: "5477d797b2f37e016dbb65f3d3ddf902b3c63723d0db060698e8c9487ce0086c",
        1: "d3fdd8bd57a8946dbfedda77d3b96ac1b712a1c7cb10a3aa7e5453dd0c1069fa",
    }
    for seed, digest in expected_qv.items():
        cfg = ChainConfig(n=32, r=2, beta=0.0, sigma=1.0, gamma_n=1 / 2048, h=ZERO_H, seed=seed)
        assert _arrays_sha256(empirical_qv(cfg, 0.05)) == digest


def test_drift_blocks_spawn_the_trials_of_one_spawn(monkeypatch):
    # blocks of 5 over 23 trials spawn their seed sequences as each block
    # starts; drawing every block from one spawn(23) gives the same bits
    cfg = ChainConfig(n=16, r=3, beta=2.0, sigma=1.0, gamma_n=1 / 32, h=TRIANGLE_EDGE, seed=5)
    start = np.full((3, 3), 0.3)
    monkeypatch.setattr(metropolis, "DRIFT_BLOCK", 5)
    blocked = empirical_drift(cfg, start, 23)
    streams = np.random.SeedSequence(cfg.seed).spawn(23)
    keys = []
    draws = _draws.trial_draws

    def one_spawn(seeds, *args):
        keys.append([seq.spawn_key for seq in seeds])
        done = sum(map(len, keys[:-1]))
        return draws(streams[done : done + len(seeds)], *args)

    monkeypatch.setattr(_draws, "trial_draws", one_spawn)
    spawned = empirical_drift(cfg, start, 23)
    assert list(map(len, keys)) == [5, 5, 5, 5, 3]
    assert sum(keys, []) == [seq.spawn_key for seq in streams]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(blocked, spawned))


def test_drift_blocks_shrink_to_keep_the_sign_buffer_under_the_limit(monkeypatch):
    cfg = ChainConfig(n=16, r=2, beta=0.7, sigma=1.0, gamma_n=1 / 32, h=TRIANGLE_EDGE, seed=4)
    start = np.full((2, 2), 0.5)
    mean, se = empirical_drift(cfg, start, 300)
    # a limit of five trials' worth of the longer walk segment forces 60 blocks of 5
    assert (cfg.s_n, cfg.l_nr) == (64, 128)
    monkeypatch.setattr(metropolis, "SIGN_DRAW_LIMIT", 5 * cfg.l_nr * 3)
    batches = []
    steps = _CountWalk.steps

    def spy(walk, vec, signs):
        batches.append(vec.shape[0])
        steps(walk, vec, signs)

    monkeypatch.setattr(_CountWalk, "steps", spy)
    small_mean, small_se = empirical_drift(cfg, start, 300)
    assert batches == [5] * 120  # proposal and relaxation walk per block
    # only the order of the per-block sums changes
    assert np.allclose(small_mean, mean, rtol=0, atol=1e-12)
    assert np.allclose(small_se, se, rtol=0, atol=1e-12)



def test_flat_energy_has_no_drift():
    cfg = ChainConfig(n=16, r=2, beta=0.7, sigma=0.0, gamma_n=1 / 32, h=ZERO_H, seed=12)
    mean, se = empirical_drift(cfg, np.full((2, 2), 0.5), 3000)
    assert np.all(np.abs(mean) <= 3.0 * se)


def test_linear_energy_drift_matches_the_closed_form():
    # the tilt's gradient is state-independent, so the one-iteration mean
    # displacement normalized by gamma r^-4 estimates the closed-form drift
    c = np.array([[0.4, -0.6], [-0.6, 0.2]])
    stub = LinearTilt(c)
    ref = drift_b(stub, np.full((2, 2), 0.5), 0.8)
    gaps = {}
    ses = {}
    for n in (16, 32):
        cfg = ChainConfig(n=n, r=2, beta=0.8, sigma=0.0, gamma_n=1 / 32, h=stub, seed=7)
        mean, se = empirical_drift(cfg, np.full((2, 2), 0.5), 4000)
        assert np.all(np.abs(mean - ref) <= 3.0 * se)
        gaps[n] = np.abs(mean - ref).max()
        ses[n] = se.max()
    # a strict decrease would be a coin flip at these trial counts; the
    # larger n must simply not be worse by more than one combined error
    assert gaps[32] <= gaps[16] + math.hypot(ses[16], ses[32])


def test_drift_estimation_rejects_boundary_starts():
    cfg = ChainConfig(n=16, r=2, beta=1.0, sigma=0.0, gamma_n=1 / 32, h=ZERO_H)
    with pytest.raises(ValueError):
        empirical_drift(cfg, np.full((2, 2), 0.01), 10)


@pytest.mark.parametrize("trials", [0, -1])
def test_drift_estimation_needs_a_trial(trials):
    # 0 trials divided 0 by 0, and -1 failed inside SeedSequence.spawn
    cfg = ChainConfig(n=16, r=2, beta=1.0, sigma=0.0, gamma_n=1 / 32, h=ZERO_H)
    with pytest.raises(ValueError, match=f"trials must be at least 1, got {trials}"):
        empirical_drift(cfg, np.full((2, 2), 0.5), trials)


def test_quadratic_variation_over_zero_horizon_is_zero():
    cfg = ChainConfig(n=32, r=2, beta=0.0, sigma=1.0, gamma_n=1 / 2048, h=ZERO_H)
    assert np.all(empirical_qv(cfg, 0.0) == 0.0)


def test_quadratic_variation_needs_noise():
    cfg = ChainConfig(n=32, r=2, beta=0.0, sigma=0.0, gamma_n=1 / 2048, h=ZERO_H)
    with pytest.raises(ValueError):
        empirical_qv(cfg, 0.1)


@pytest.mark.parametrize("horizon_t", [-1.0, math.nan, math.inf])
def test_quadratic_variation_needs_a_finite_nonnegative_horizon(horizon_t):
    # before, -1 named the iteration count -512, nan failed in int() and inf
    # raised an OverflowError
    cfg = ChainConfig(n=32, r=2, beta=0.0, sigma=1.0, gamma_n=1 / 2048, h=ZERO_H)
    with pytest.raises(ValueError, match=f"horizon_t must be finite and nonnegative, got {horizon_t}"):
        empirical_qv(cfg, horizon_t)


def test_realized_quadratic_variation_approximates_sigma_squared_t():
    cfg = ChainConfig(n=32, r=2, beta=0.0, sigma=1.0, gamma_n=1 / 2048, h=ZERO_H, seed=0)
    assert cfg.s_n == 1 and cfg.l_nr == 32
    qv = empirical_qv(cfg, 0.05)
    assert qv[0, 1] == pytest.approx(0.05, rel=0.10)


def test_increment_cross_covariation_vanishes():
    cfg = ChainConfig(
        n=32, r=2, beta=0.0, sigma=1.0, gamma_n=1 / 2048, h=ZERO_H, seed=5,
        iterations=1638,
    )
    with pytest.warns(UserWarning, match="diffusive regime"):
        recs = run_chain(cfg, record_every=1)
    inc = np.diff(np.array([rec.density.values for rec in recs]), axis=0)
    bound = 4.0 / math.sqrt(len(inc))
    for a, b in (((0, 1), (0, 0)), ((0, 1), (1, 1)), ((0, 0), (1, 1))):
        rho = float(np.corrcoef(inc[:, a[0], a[1]], inc[:, b[0], b[1]])[0, 1])
        assert abs(rho) <= bound

"""The record loop shared by the chain, the diffusion and the flow."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphdyn import Hamiltonian, StepKernel, edge_graph, triangle_graph
from graphdyn._drive import drive, horizon_steps
from graphdyn.flow import run_flow
from graphdyn.metropolis import ChainConfig, run_chain
from graphdyn.sde import SdeConfig, run_sde

TRIANGLE_EDGE = Hamiltonian(((1.0, triangle_graph()), (-0.25, edge_graph())))
DT = 0.25  # exact in binary, so steps * DT / DT is steps again


def schedule(steps, record_every, milestones=()):
    """The record steps, written out the long way."""
    marks = {0, steps} | {k for k in range(steps + 1) if k % record_every == 0}
    return sorted(marks | {m for m in milestones if 0 <= m <= steps})


def random_init(r, seed):
    u = np.random.default_rng(seed).uniform(size=(r, r))
    return StepKernel(np.triu(u) + np.triu(u, 1).T)


def chain_states(init, steps, record_every, seed):
    cfg = ChainConfig(n=8, r=init.r, beta=0.5, sigma=1.0, gamma_n=1 / 32, h=TRIANGLE_EDGE,
                      seed=seed, iterations=steps)
    recs = run_chain(cfg, init, record_every=record_every)
    return [rec.step for rec in recs], [rec.density.values for rec in recs]


def sde_states(init, steps, record_every, seed):
    cfg = SdeConfig(r=init.r, beta=0.5, sigma=1.0, dt=DT, h=TRIANGLE_EDGE, seed=seed,
                    horizon_t=steps * DT)
    recs = run_sde(cfg, init, replicas=2, record_every=record_every)
    return [rec.step for rec in recs], [rec.x.values for rec in recs]


def flow_states(init, steps, record_every, seed):
    recs = run_flow(TRIANGLE_EDGE, 1.0, init, DT, steps * DT, record_every=record_every)
    return [rec.step for rec in recs], [rec.w.values for rec in recs]


RUNNERS = {"chain": chain_states, "sde": sde_states, "flow": flow_states}


# ---------------------------------------------------------------- schedule


@pytest.mark.filterwarnings("ignore:gamma_n", "ignore:dt")
@pytest.mark.parametrize("kind", sorted(RUNNERS))
@pytest.mark.parametrize("steps, record_every", [
    (0, 1), (0, 5),  # only the start
    (3, 5),          # a stride past the end: the start and the last step
    (7, 3), (6, 3),  # the last step off and on the stride
])
def test_runners_record_on_the_schedule(kind, steps, record_every):
    got, _ = RUNNERS[kind](StepKernel.constant(2, 0.5), steps, record_every, 0)
    assert got == schedule(steps, record_every)


@pytest.mark.filterwarnings("ignore:gamma_n")
@pytest.mark.parametrize("milestones", [(0,), (8,), (99,), (3,), (5, 0, 6, 8, 5)])
def test_chain_records_each_milestone_once(milestones):
    # at 0, on the last step, past the end, on a stride step, and all at once
    cfg = ChainConfig(n=8, r=2, beta=0.5, sigma=1.0, gamma_n=1 / 32, h=TRIANGLE_EDGE,
                      iterations=8)
    recs = run_chain(cfg, record_every=3, milestones=milestones)
    assert [rec.step for rec in recs] == schedule(8, 3, milestones)


class Probe:
    """A run with nothing to move: its state at step k is k, and it logs each
    state drive pulls and records one energy."""

    def __init__(self, energy=0.0):
        self.energy = energy
        self.pulled = []

    def states(self):
        for k in itertools.count():
            self.pulled.append(k)
            yield k

    def record(self, k, state):
        assert state == k
        return type("Record", (), {"step": k, "energy": self.energy})()


@pytest.mark.parametrize("steps, record_every, milestones", [
    (0, 1, ()), (0, 4, (0, 3)), (2, 9, (-1, 1)), (10, 4, (0, 4, 6, 6, 10, 11)), (5, 1, (2,)),
])
def test_drive_advances_once_to_each_record_step_in_order(steps, record_every, milestones):
    # every state is pulled once, in order, and none past the last step
    probe, seen = Probe(), []
    recs = drive(steps, probe.states(), probe.record, [lambda rec: seen.append(rec.step)],
                 record_every, milestones)
    want = schedule(steps, record_every, milestones)
    assert [rec.step for rec in recs] == seen == want
    assert probe.pulled == list(range(steps + 1))


@pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
def test_drive_refuses_a_non_finite_energy_before_any_observer_sees_it(energy):
    probe, seen = Probe(energy), []
    with pytest.raises(FloatingPointError, match="non-finite energy at step 0"):
        drive(3, probe.states(), probe.record, [seen.append])
    assert seen == [] and probe.pulled == [0]


def test_drive_rejects_a_stride_below_one():
    probe = Probe()
    with pytest.raises(ValueError, match="record_every must be at least 1"):
        drive(3, probe.states(), probe.record, record_every=0)
    assert probe.pulled == []


@pytest.mark.parametrize("kind", [OverflowError, FloatingPointError])
def test_drive_names_the_step_a_numeric_guard_trips_in(kind):
    def states():
        yield 0
        yield 1
        raise kind("math range error")

    seen = []
    with pytest.raises(kind, match=r"^step 2: math range error$"):
        drive(5, states(), Probe().record, [lambda rec: seen.append(rec.step)])
    assert seen == [0, 1]


def test_horizon_steps_round_up_and_stop_at_zero():
    assert horizon_steps(0.1, 0.25) == 3
    assert horizon_steps(0.05, 0.15) == 3  # 0.15 / 0.05 is 3 plus one ulp
    assert horizon_steps(0.1, 0.0) == horizon_steps(0.1, -1.0) == 0
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        horizon_steps(0.0, 1.0)
    with pytest.raises(ValueError, match="horizon must be finite"):
        horizon_steps(0.1, math.nan)


# ---------------------------------------------------------------- flow energy


class CountingTilt:
    """Energy mean(c * w) that counts its evaluations; its gradient is c."""

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)
        self.evaluations = 0

    def evaluate(self, w):
        self.evaluations += 1
        return float((self.c * w.values).mean())

    def frechet_derivative(self, a):
        return self.c


def test_flow_evaluates_the_energy_at_records_or_with_descent_at_every_step():
    h = CountingTilt([[0.4, -0.2], [-0.2, 0.1]])
    init = StepKernel.constant(2, 0.5)
    plain = run_flow(h, 1.0, init, 0.1, 1.0, record_every=4)
    assert [rec.step for rec in plain] == [0, 4, 8, 10]
    assert h.evaluations == len(plain)
    h.evaluations = 0
    checked = run_flow(h, 1.0, init, 0.1, 1.0, record_every=4, check_descent=True)
    assert h.evaluations == 10 + 1  # the start and every step; records reuse them
    assert [rec.energy for rec in checked] == [rec.energy for rec in plain]


# ---------------------------------------------------------------- invariants


@pytest.mark.filterwarnings("ignore:gamma_n", "ignore:dt")
@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(sorted(RUNNERS)),
    r=st.integers(1, 3),
    steps=st.integers(0, 6),
    record_every=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_every_record_is_a_symmetric_unit_kernel_on_the_schedule(kind, r, steps, record_every,
                                                                 seed):
    got, states = RUNNERS[kind](random_init(r, seed), steps, record_every, seed)
    assert got == schedule(steps, record_every)
    for x in states:
        assert np.array_equal(x, x.T)
        assert np.all((0.0 <= x) & (x <= 1.0))

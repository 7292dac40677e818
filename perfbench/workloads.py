"""The four workloads: seeded inputs, the timed work, and the checks of its outputs.

Each workload is a class whose constructor is set-up (it generates every
input from the seed and writes each config or kernel file the program
reads), whose parts() are the fixed work that is timed, one program call
each, and whose check() inspects the outputs of the last repetition.  The
parts call graphdyn only through module attributes, so the traced run sees
the wrappers tracing.py installs.  The same classes drive the baseline copy
of graphdyn (see run.py), so they may only use entry points it has too.
"""
from __future__ import annotations

import math
from pathlib import Path
from typing import Callable

import numpy as np

import graphdyn.cli as cli
import graphdyn.metropolis as metropolis
import graphdyn.mvg as mvg
import graphdyn.sde as sde
import graphdyn.stepkernel as stepkernel
from graphdyn.hamiltonian import Hamiltonian, named_term_graph

from checks import (
    Checker,
    chain_summary,
    check_chain,
    check_esbm,
    check_mvg_metrics,
    check_stepkernel_metrics,
    check_symmetric_finite,
    check_unit_states,
    compare_reference,
    flip_one_count,
    load_json,
    metrics_summary,
    moved_metrics,
    nondecreasing,
    read_csv,
    sampler_band,
    selftest,
    trajectory_states,
)

TRIANGLE_EDGE = {"triangle": 1.0, "edge": -0.25}
# the six named term graphs with mixed signs, plus entropy, for the flow
SIX_TERMS = {"edge": -0.25, "path2": 0.3, "path3": -0.1, "triangle": 1.0,
             "cycle4": 0.2, "star3": -0.15}
FLOW_ENTROPY = 0.5

# the mantel preset's shape: n = r = 16, gamma_n = 1/64, so s_n = 16, l_nr = 1
MANTEL = {"n": 16, "r": 16, "beta": 0.25, "sigma": 1.0, "gamma_n": 1 / 64}
MANTEL_HORIZON = 370_000 * MANTEL["gamma_n"] / MANTEL["r"] ** 4
CHAIN_ITERATIONS = 2000
CHAIN_RECORD_EVERY = 100


def _hamiltonian(terms: dict, entropy: float = 0.0) -> Hamiltonian:
    return Hamiltonian(tuple((c, named_term_graph(g)) for g, c in terms.items()), entropy)


def _symmetric(rng: np.random.Generator, r: int, lo: float, hi: float) -> np.ndarray:
    v = np.triu(rng.uniform(lo, hi, (r, r)))
    return v + np.triu(v, 1).T


def _random_measure(rng: np.random.Generator, lo: float, hi: float):
    k = int(rng.integers(1, 4))
    return mvg.DiscreteMeasure(np.sort(rng.uniform(lo, hi, k)), rng.dirichlet(np.ones(k)))


def _random_mvg(rng: np.random.Generator, r: int, lo: float, hi: float):
    return mvg.MvgKernel.from_upper(
        r, {(i, j): _random_measure(rng, lo, hi) for i in range(r) for j in range(i, r)})


def _write_config(path: Path, sections: dict) -> Path:
    """INI text; [hamiltonian] terms are given as {'term.<graph>': coeff}."""
    lines = []
    for name, body in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}"
                     for k, v in body.items())
        lines.append("")
    path.write_text("\n".join(lines))
    return path


def _terms(terms: dict) -> dict:
    return {f"term.{g}": float(c) for g, c in terms.items()}


def _cli(ck: Checker, label: str, code: int) -> None:
    ck.expect(f"{label}: the CLI exits 0", code == 0, f"exit code {code}")


class Workload:
    """The constructor is set-up; parts() is the timed work, as named steps in order."""

    def parts(self) -> list[tuple[str, Callable[[], None]]]:
        raise NotImplementedError

    def run(self) -> None:
        for _, part in self.parts():
            part()


class Chain(Workload):
    """cli metropolis on a generated mantel-shaped config, a fixed slice of iterations."""

    name = "chain"

    def __init__(self, seed: int, work: Path) -> None:
        self.out = work / "chain_out"
        self.h = _hamiltonian(TRIANGLE_EDGE)
        self.config = _write_config(work / "chain.ini", {
            "metropolis": {**MANTEL,
                           "iterations": CHAIN_ITERATIONS, "seed": seed,
                           "record_every": CHAIN_RECORD_EVERY, "init": 0.5},
            "hamiltonian": _terms(TRIANGLE_EDGE),
            "output": {"heatmaps": "false"},
        })

    def parts(self) -> list:
        return [("metropolis", self._metropolis)]

    def _metropolis(self) -> None:
        self.code = cli.main(["metropolis", "--config", str(self.config), "--out", str(self.out)])

    def outputs(self) -> list[Path]:
        return [self.out]

    def _check_text(self, ck: Checker, text: str, ref: dict | None) -> None:
        check_chain(ck, text, self.h, MANTEL["n"], MANTEL["r"], CHAIN_ITERATIONS,
                    CHAIN_RECORD_EVERY, ref)

    def summary(self) -> dict:
        return {"trajectory": chain_summary((self.out / "trajectory.csv").read_text())}

    def check(self, ck: Checker, ref: dict | None) -> None:
        _cli(ck, "chain", self.code)
        text = (self.out / "trajectory.csv").read_text()
        self._check_text(ck, text, ref and ref["trajectory"])
        selftest(ck, lambda c, t: self._check_text(c, t, chain_summary(text)),
                 lambda: flip_one_count(text, MANTEL["n"]))


class Diffusion(Workload):
    """cli sde at the mantel horizon, a 16-replica run_sde, and a six-term cli flow."""

    name = "diffusion"

    SDE_DT = 1e-4
    REPLICA = {"r": 4, "beta": 1.0, "sigma": 0.5, "dt": 0.004, "horizon_t": 1.0}
    REPLICAS = 16
    FLOW = {"r": 16, "beta": 0.25, "dt": 0.001, "horizon": 0.4}

    def __init__(self, seed: int, work: Path) -> None:
        self.sde_out = work / "sde_out"
        self.codes: dict[str, int] = {}
        self.flow_out = work / "flow_out"
        self.sde_config = _write_config(work / "sde.ini", {
            "sde": {"r": MANTEL["r"], "beta": MANTEL["beta"], "sigma": MANTEL["sigma"],
                    "dt": self.SDE_DT, "seed": seed, "horizon_t": MANTEL_HORIZON,
                    "drift": "closed_form", "init": 0.5, "record_every": 10},
            "hamiltonian": _terms(TRIANGLE_EDGE),
            "output": {"heatmaps": "false"},
        })
        self.replica_cfg = sde.SdeConfig(h=_hamiltonian(TRIANGLE_EDGE), seed=seed,
                                         drift="limit", **self.REPLICA)
        self.replica_init = stepkernel.StepKernel.constant(self.REPLICA["r"], 0.5)
        rng = np.random.default_rng(seed)
        init_path = work / "flow_init.txt"
        stepkernel.save_kernel_text(
            stepkernel.StepKernel(_symmetric(rng, self.FLOW["r"], 0.1, 0.9)), init_path)
        self.flow_config = _write_config(work / "flow.ini", {
            "flow": {**self.FLOW, "init": str(init_path), "record_every": 10},
            "hamiltonian": {**_terms(SIX_TERMS), "entropy_gamma": FLOW_ENTROPY},
            "output": {"heatmaps": "false"},
        })

    def parts(self) -> list:
        return [("sde", self._sde), ("replicas", self._replicas), ("flow", self._flow)]

    def _sde(self) -> None:
        self.codes["sde"] = cli.main(["sde", "--config", str(self.sde_config),
                                      "--out", str(self.sde_out)])

    def _replicas(self) -> None:
        self.replica_records = sde.run_sde(self.replica_cfg, self.replica_init,
                                           replicas=self.REPLICAS)

    def _flow(self) -> None:
        self.codes["flow"] = cli.main(["flow", "--config", str(self.flow_config),
                                       "--out", str(self.flow_out)])

    def outputs(self) -> list[Path]:
        return [self.sde_out, self.flow_out]

    def summary(self) -> dict:
        r = MANTEL["r"]
        _, _, sde_states = trajectory_states((self.sde_out / "trajectory.csv").read_text(), r, 5)
        _, _, flow_states = trajectory_states((self.flow_out / "trajectory.csv").read_text(),
                                              self.FLOW["r"], 3)
        return {"final_states": {
            "sde": sde_states[-1].ravel().tolist(),
            "replicas": self.replica_records[-1].x.values.ravel().tolist(),
            "flow": flow_states[-1].ravel().tolist(),
        }}

    def check(self, ck: Checker, ref: dict | None) -> None:
        for code in self.codes.values():
            _cli(ck, "diffusion", code)
        header, rows, states = trajectory_states(
            (self.sde_out / "trajectory.csv").read_text(), MANTEL["r"], 5)
        steps = math.ceil(MANTEL_HORIZON / self.SDE_DT - 1e-12)
        ck.expect("sde: trajectory ends at the mantel horizon", int(rows[-1][0]) == steps,
                  f"last step {rows[-1][0]} != {steps}")
        check_unit_states(ck, "sde", states)
        for col in ("L0_fro", "L1_fro"):
            k = header.index(col)
            ck.expect(f"sde: {col} never decreases", nondecreasing([float(row[k]) for row in rows]))

        recs = self.replica_records
        want = math.ceil(self.REPLICA["horizon_t"] / self.REPLICA["dt"] - 1e-12) + 1
        ck.expect("run_sde: one record per step", len(recs) == want, f"{len(recs)} != {want}")
        check_unit_states(ck, "run_sde", (rec.x.values for rec in recs))
        ck.expect("run_sde: local times never decrease",
                  nondecreasing([rec.l0_norm for rec in recs])
                  and nondecreasing([rec.l1_norm for rec in recs]))

        header, rows, states = trajectory_states(
            (self.flow_out / "trajectory.csv").read_text(), self.FLOW["r"], 3)
        check_unit_states(ck, "flow", states)
        energy = [float(row[2]) for row in rows]
        ck.expect("flow: energy never rises",
                  all(b <= a + 1e-12 for a, b in zip(energy, energy[1:])))
        _, report = read_csv((self.flow_out / "rate_report.csv").read_text())
        ck.expect("flow: rate report has one row", len(report) == 1)
        if ref is not None:
            compare_reference(ck, "diffusion final states", self.summary()["final_states"],
                              ref["final_states"])


class Metrics(Workload):
    """cli metrics: step kernels at r = 7 (exhaustive) and r = 9 (annealed),
    a relabeled copy at r = 6, and measure-valued kernels at r = 4, eps = 1."""

    name = "metrics"

    EPSILON = 1.0
    MVG_R = 4  # eps = 1 builds the 6561-function net whatever r is
    # label -> (kind, r); each label has <label>.ini and an output directory
    # of the same name.  r = 7 and r = 9 sit on both sides of
    # PERM_EXHAUSTIVE_LIMIT (8), so both search branches run
    RUNS = {"pair_r7": ("stepkernel", 7), "pair_r9": ("stepkernel", 9),
            "relabeled_r6": ("stepkernel", 6), "mvg_r4": ("mvg", MVG_R)}

    def __init__(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng(seed)
        self.work = work
        self.seed = seed
        self.projection = None
        self.codes: dict[str, int] = {}

        def kernel_file(name: str, values: np.ndarray) -> Path:
            path = work / f"{name}.txt"
            stepkernel.save_kernel_text(stepkernel.StepKernel(values), path)
            return path

        def config(label: str, a: Path, b: Path) -> None:
            _write_config(work / f"{label}.ini", {
                "metrics": {"kind": self.RUNS[label][0], "a": str(a), "b": str(b),
                            "epsilon": self.EPSILON, "seed": seed},
            })

        for r in (7, 9):
            config(f"pair_r{r}", kernel_file(f"a{r}", _symmetric(rng, r, 0.0, 1.0)),
                   kernel_file(f"b{r}", _symmetric(rng, r, 0.0, 1.0)))
        base = _symmetric(rng, 6, 0.0, 1.0)
        perm = rng.permutation(6)
        config("relabeled_r6", kernel_file("c6", base),
               kernel_file("c6_relabeled", base[np.ix_(perm, perm)]))
        self.mvg_pair = (_random_mvg(rng, self.MVG_R, -1.0, 1.0),
                         _random_mvg(rng, self.MVG_R, -1.0, 1.0))
        for name, w in zip(("mvg_a", "mvg_b"), self.mvg_pair):
            mvg.save_mvg_text(w, work / f"{name}.txt")
        config("mvg_r4", work / "mvg_a.txt", work / "mvg_b.txt")

    def parts(self) -> list:
        return [(label, lambda label=label: self._metrics(label)) for label in self.RUNS]

    def _metrics(self, label: str) -> None:
        self.codes[label] = cli.main(["metrics", "--config", str(self.work / f"{label}.ini"),
                                      "--out", str(self.work / label)])

    def outputs(self) -> list[Path]:
        return [self.work / label for label in self.RUNS]

    def summary(self) -> dict:
        return {label: metrics_summary(load_json(self.work / label / "metrics.json"))
                for label in self.RUNS}

    def _check_mvg(self, ck: Checker, doc: dict, ref: dict | None) -> None:
        check_mvg_metrics(ck, doc, self.projection, ref)

    def check(self, ck: Checker, ref: dict | None) -> None:
        if self.projection is None:
            a, b = self.mvg_pair
            self.projection = stepkernel.cut_metric_upper(a.project(), b.project(), seed=self.seed)
        for label, (kind, r) in self.RUNS.items():
            _cli(ck, label, self.codes[label])
            doc = load_json(self.work / label / "metrics.json")
            sub = ref and ref[label]
            if kind == "mvg":
                self._check_mvg(ck, doc, sub)
                selftest(ck, lambda c, d: self._check_mvg(c, d, metrics_summary(doc)),
                         lambda: moved_metrics(doc))
            else:
                check_stepkernel_metrics(ck, label, doc, r <= stepkernel.PERM_EXHAUSTIVE_LIMIT,
                                         label.startswith("relabeled"), sub)


class Ensemble(Workload):
    """Many short independent trials: empirical_drift near the faces, empirical_qv,
    and the two samplers."""

    name = "ensemble"

    DRIFT = {"n": 32, "r": 4, "beta": 0.5, "sigma": 0.0, "gamma_n": 1 / 32}
    DRIFT_TRIALS = 1024
    QV = {"n": 32, "r": 2, "beta": 0.0, "sigma": 1.0, "gamma_n": 1 / 2048}
    QV_HORIZON = 0.025
    SAMPLE_R, SAMPLE_N = 4, 200
    ESBM = {"n": 64, "r": 8}

    def __init__(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.drift_cfg = metropolis.ChainConfig(h=_hamiltonian(TRIANGLE_EDGE), seed=seed,
                                                **self.DRIFT)
        self.drift_start = _symmetric(rng, self.DRIFT["r"], 0.06, 0.94)
        self.qv_cfg = metropolis.ChainConfig(h=_hamiltonian({"edge": 0.0}), seed=seed, **self.QV)
        self.sample_kernel = _random_mvg(rng, self.SAMPLE_R, 0.0, 1.0)
        self.esbm_cfg = metropolis.ChainConfig(beta=0.0, sigma=0.0, gamma_n=1.0, h=Hamiltonian(()),
                                               seed=seed, **self.ESBM)
        self.esbm_density = stepkernel.StepKernel(_symmetric(rng, self.ESBM["r"], 0.0, 1.0))
        self.sample_seed, self.esbm_seed = np.random.SeedSequence(seed).spawn(2)
        mvg.save_mvg_text(self.sample_kernel, work / "sample_kernel.txt")
        stepkernel.save_kernel_text(self.esbm_density, work / "esbm_density.txt")

    def parts(self) -> list:
        return [("drift", self._drift), ("qv", self._qv), ("sample", self._sample),
                ("esbm", self._esbm)]

    def _drift(self) -> None:
        self.drift = metropolis.empirical_drift(self.drift_cfg, self.drift_start, self.DRIFT_TRIALS)

    def _qv(self) -> None:
        self.qv = metropolis.empirical_qv(self.qv_cfg, self.QV_HORIZON)

    def _sample(self) -> None:
        self.sample = mvg.sample_weighted_graph(self.sample_kernel, self.SAMPLE_N,
                                                np.random.default_rng(self.sample_seed))

    def _esbm(self) -> None:
        self.esbm = metropolis.esbm_sample(self.esbm_cfg, self.esbm_density,
                                           np.random.default_rng(self.esbm_seed))

    def outputs(self) -> list[Path]:
        return []

    def summary(self) -> dict:
        mean, se = self.drift
        return {"drift": {"mean": mean.ravel().tolist(), "se": se.ravel().tolist()},
                "qv": {"qv": self.qv.ravel().tolist()}}

    def check(self, ck: Checker, ref: dict | None) -> None:
        mean, se = self.drift
        check_symmetric_finite(ck, "drift mean", mean)
        check_symmetric_finite(ck, "drift standard error", se)
        check_symmetric_finite(ck, "quadratic variation", self.qv)

        w = self.sample_kernel
        cells = [[w.cells[i][j] for j in range(w.r)] for i in range(w.r)]
        f = np.array([[c.mean() for c in row] for row in cells])
        v = np.array([[c.integrate(np.square) - c.mean() ** 2 for c in row] for row in cells])
        want, sd = sampler_band(f, v, self.SAMPLE_N)
        got = float(self.sample.values.mean())
        ck.expect("sampler: edge density within 4 standard errors of the kernel mean",
                  abs(got - want) <= 4 * sd, f"{got} vs {want} +- 4 * {sd}")
        check_symmetric_finite(ck, "sampler", self.sample.values)

        edges, realized = self.esbm
        caps = self.esbm_cfg.capacities()
        counts = metropolis.quantize_density(self.esbm_cfg, self.esbm_density)
        check_esbm(ck, edges, realized.values, counts, caps, self.ESBM["n"])
        if ref is not None:
            got = self.summary()
            compare_reference(ck, "drift", got["drift"], ref["drift"])
            compare_reference(ck, "quadratic variation", got["qv"], ref["qv"])


WORKLOADS = {cls.name: cls for cls in (Chain, Diffusion, Metrics, Ensemble)}

"""Span tracing of graphdyn's public entry points, installed from outside.

The traced run replaces each public name listed in TARGETS with a timing
wrapper, at every graphdyn module that binds it (so `minimize_over_permutations`
is wrapped both where stepkernel defines it and where mvg imports it), and
methods on their class.  Nothing under src/ changes, and the untraced run
never imports this module.

A span is [name, start, end, parent index, time covered by children]; spans
stay in memory and are written out when the run ends.  A span's self time is
its duration minus the time its direct children cover (children of one span
never overlap: the program is single-threaded).
"""
from __future__ import annotations

import sys
import time
from collections import Counter

import numpy as np

# (defining module, attribute or Class.method, span name); the span name's
# first component is the layer the time is charged to
TARGETS = (
    ("graphdyn.cli", "main", "cli.main"),
    ("graphdyn.metropolis", "run_chain", "metropolis.run_chain"),
    ("graphdyn.metropolis", "metropolis_step", "metropolis.metropolis_step"),
    ("graphdyn.metropolis", "empirical_drift", "metropolis.empirical_drift"),
    ("graphdyn.metropolis", "empirical_qv", "metropolis.empirical_qv"),
    ("graphdyn.metropolis", "esbm_sample", "metropolis.esbm_sample"),
    ("graphdyn.hamiltonian", "Hamiltonian.evaluate", "hamiltonian.evaluate"),
    ("graphdyn.hamiltonian", "Hamiltonian.frechet_derivative", "hamiltonian.frechet_derivative"),
    ("graphdyn.stepkernel", "StepKernel.__post_init__", "stepkernel.StepKernel"),
    ("graphdyn.stepkernel", "cut_norm", "stepkernel.cut_norm"),
    ("graphdyn.stepkernel", "minimize_over_permutations", "stepkernel.minimize_over_permutations"),
    ("graphdyn.stepkernel", "cut_metric_upper", "stepkernel.cut_metric_upper"),
    ("graphdyn.stepkernel", "delta2_upper", "stepkernel.delta2_upper"),
    ("graphdyn.mvg", "build_net", "mvg.build_net"),
    ("graphdyn.mvg", "delta_black", "mvg.delta_black"),
    ("graphdyn.mvg", "wass_cut", "mvg.wass_cut"),
    ("graphdyn.mvg", "delta2_mvg_upper", "mvg.delta2_mvg_upper"),
    ("graphdyn.mvg", "sample_weighted_graph", "mvg.sample_weighted_graph"),
    ("graphdyn.sde", "run_sde", "sde.run_sde"),
    ("graphdyn.sde", "em_step", "sde.em_step"),
    ("graphdyn.sde", "drift_b", "sde.drift_b"),
    ("graphdyn.sde", "limit_drift", "sde.limit_drift"),
    ("graphdyn.flow", "run_flow", "flow.run_flow"),
    ("graphdyn.flow", "flow_step", "flow.flow_step"),
    ("graphdyn.flow", "active_mask", "flow.active_mask"),
    ("graphdyn.flow", "measure_rates", "flow.measure_rates"),
)

LAYERS = ("cli", "metropolis", "hamiltonian", "stepkernel", "mvg", "sde", "flow")

# calls whose arguments carry callables that deserve their own span
_OBSERVER_CALLS = {"metropolis.run_chain", "sde.run_sde", "flow.run_flow"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.kept: list = []  # result references, reduced after the rep
        self.finished: list[list[list]] = []  # spans of every traced rep

    def clear(self) -> None:
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.kept = []

    def wrap(self, name: str, fn, post=None):
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0.0]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec[2] = end
                if rec[3] >= 0:
                    spans[rec[3]][4] += end - rec[1]
            if post is not None:
                post(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every TARGETS name, at every graphdyn module binding it."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "graphdyn" or k.startswith("graphdyn."))]
        for mod_name, attr, span in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(span, getattr(cls, meth), _POST.get(span)))
                continue
            orig = getattr(owner, attr)
            wrapper = self._pre_wrap(span, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)

    def _pre_wrap(self, span: str, orig):
        inner = self.wrap(span, orig, _POST.get(span))
        if span in _OBSERVER_CALLS:
            def with_observers(*args, **kwargs):
                if kwargs.get("observers"):
                    kwargs["observers"] = [self.wrap("cli.observer", o)
                                           for o in kwargs["observers"]]
                return inner(*args, **kwargs)
            return with_observers
        if span == "stepkernel.minimize_over_permutations":
            def with_objective(objective, *args, **kwargs):
                layer = objective.__module__.rsplit(".", 1)[-1]
                return inner(self.wrap(f"{layer}.perm_objective", objective), *args, **kwargs)
            return with_objective
        return inner

    def collect(self, wall_s: float, bytes_written: int) -> dict:
        """Per-layer metrics of the rep just traced; keeps its spans."""
        spans, self.spans = self.spans, []  # the checks that follow trace into a fresh list
        agg: dict[str, list] = {}
        covered = 0.0
        for name, start, end, _parent, child in spans:
            dur = end - start
            a = agg.setdefault(name, [0, 0.0, 0.0])
            a[0] += 1
            a[1] += dur
            a[2] += dur - child
            covered += dur - child
        self.finished.append(spans)
        out = _layer_metrics(agg, self.counts, self.kept)
        out["cli.bytes_written"] = float(bytes_written)
        out["trace.wall_s"] = wall_s
        out["trace.coverage_frac"] = covered / wall_s if wall_s > 0 else 0.0
        out["trace.spans"] = float(len(spans))
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("rep,id,parent,name,start_s,end_s\n")
            for rep, spans in enumerate(self.finished):
                for idx, (name, start, end, parent, _child) in enumerate(spans):
                    fh.write(f"{rep},{idx},{parent},{name},{start!r},{end!r}\n")


def _count_accepted(tracer, args, kwargs, result) -> None:
    tracer.counts["metropolis.accepted"] += bool(result[1])


def _keep(kind):
    def post(tracer, args, kwargs, result) -> None:
        tracer.kept.append((kind, args, result))
    return post


def _count_trials(tracer, args, kwargs, result) -> None:
    tracer.counts["metropolis.drift_trials"] += kwargs.get("trials", args[2] if len(args) > 2 else 0)


def _count_pairs(tracer, args, kwargs, result) -> None:
    n = kwargs.get("n", args[1] if len(args) > 1 else 0)
    tracer.counts["mvg.sampled_pairs"] += n * (n + 1) // 2


def _count_net(tracer, args, kwargs, result) -> None:
    tracer.counts["mvg.net_size"] += len(result)


_POST = {
    "metropolis.metropolis_step": _count_accepted,
    "metropolis.run_chain": _keep("chain_records"),
    "metropolis.empirical_drift": _count_trials,
    "mvg.sample_weighted_graph": _count_pairs,
    "mvg.build_net": _count_net,
    "sde.em_step": _keep("em_step"),
    "flow.active_mask": _keep("active_mask"),
}


def _layer_metrics(agg: dict, counts: Counter, kept: list) -> dict:
    def calls(name):
        return float(agg.get(name, (0, 0.0, 0.0))[0])

    def incl(*names):
        return sum(agg.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_s(*names):
        return sum(agg.get(n, (0, 0.0, 0.0))[2] for n in names)

    def frac(num, den):
        return num / den if den else 0.0

    boundary = recorded = 0
    reflected = entry_steps = 0
    frozen = masked = 0
    for kind, args, result in kept:
        if kind == "chain_records":
            for rec in result:
                vals = rec.density.values[np.triu_indices(rec.density.r)]
                boundary += int(np.count_nonzero((vals == 0.0) | (vals == 1.0)))
                recorded += vals.size
        elif kind == "em_step":
            before = args[0]
            hit = (result.l0 != before.l0) | (result.l1 != before.l1)
            reflected += int(np.count_nonzero(hit))
            entry_steps += hit.size
        elif kind == "active_mask":
            frozen += int(result.size - np.count_nonzero(result))
            masked += result.size

    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for name, (_c, _i, s) in agg.items():
        out[name.split(".", 1)[0] + ".self_s"] += s
    iterations = calls("metropolis.metropolis_step")
    out.update({
        "metropolis.iterations": iterations,
        "metropolis.step_self_s": self_s("metropolis.metropolis_step"),
        "metropolis.accept_ratio": frac(counts["metropolis.accepted"], iterations),
        "metropolis.boundary_frac": frac(boundary, recorded),
        "metropolis.drift_s": incl("metropolis.empirical_drift"),
        "metropolis.drift_trials": float(counts["metropolis.drift_trials"]),
        "metropolis.qv_s": incl("metropolis.empirical_qv"),
        "metropolis.esbm_s": incl("metropolis.esbm_sample"),
        "hamiltonian.evaluate_calls": calls("hamiltonian.evaluate"),
        "hamiltonian.evaluate_s": incl("hamiltonian.evaluate"),
        "hamiltonian.gradient_calls": calls("hamiltonian.frechet_derivative"),
        "hamiltonian.gradient_s": incl("hamiltonian.frechet_derivative"),
        "stepkernel.kernels_built": calls("stepkernel.StepKernel"),
        "stepkernel.cut_norm_calls": calls("stepkernel.cut_norm"),
        "stepkernel.cut_norm_s": incl("stepkernel.cut_norm"),
        "stepkernel.perm_evals": calls("stepkernel.perm_objective") + calls("mvg.perm_objective"),
        "stepkernel.perm_search_self_s": self_s("stepkernel.minimize_over_permutations"),
        "stepkernel.cut_metric_s": incl("stepkernel.cut_metric_upper"),
        "stepkernel.delta2_s": incl("stepkernel.delta2_upper"),
        "mvg.net_size": float(counts["mvg.net_size"]),
        "mvg.net_build_s": incl("mvg.build_net"),
        "mvg.delta_black_s": incl("mvg.delta_black"),
        "mvg.wass_cut_s": incl("mvg.wass_cut"),
        "mvg.delta2_s": incl("mvg.delta2_mvg_upper"),
        "mvg.sample_s": incl("mvg.sample_weighted_graph"),
        "mvg.sampled_pairs": float(counts["mvg.sampled_pairs"]),
        "sde.steps": calls("sde.em_step"),
        "sde.em_step_self_s": self_s("sde.em_step"),
        "sde.drift_s": incl("sde.drift_b", "sde.limit_drift"),
        "sde.reflect_frac": frac(reflected, entry_steps),
        "flow.steps": calls("flow.flow_step"),
        "flow.step_self_s": self_s("flow.flow_step"),
        "flow.frozen_frac": frac(frozen, masked),
        "flow.rates_s": incl("flow.measure_rates"),
    })
    return out

"""Command-line experiment runner.

Subcommands mirror the run modes: metropolis, sde, flow, metrics, sample,
and oracle.  Configs are flat INI-style sections of key = value pairs; every
run writes a manifest with the derived scaling constants and a content hash
of the config so outputs can be reproduced byte-for-byte.
"""
from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .hamiltonian import Hamiltonian, named_term_graph
from .metropolis import ChainConfig, esbm_sample, run_chain
from .mvg import (
    build_net,
    delta_black,
    delta2_mvg_upper,
    load_mvg_text,
)
from .sde import SdeConfig, explicit_drift_formula, gaussian_tail, run_sde, skorokhod_1d
from .stepkernel import (
    StepKernel,
    cut_metric_upper,
    delta2_upper,
    load_kernel_text,
    save_kernel_pgm,
    save_kernel_text,
)
from .flow import measure_rates, run_flow

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_IO = 3

MANTEL_MILESTONES = (0, 350, 930, 20_000, 100_000, 370_000)

MANTEL_CONFIG = """\
[metropolis]
n = 16
r = 16
beta = 0.25
sigma = 1.0
gamma_n = 0.015625
iterations = 370000
seed = 0
record_every = 1000
init = 0.5

[hamiltonian]
term.triangle = 1.0
term.edge = -0.25
"""


class ConfigError(Exception):
    """Carries one message per config problem, each tagged with its location."""

    def __init__(self, errors) -> None:
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class ExperimentConfig:
    mode: str
    options: dict
    hamiltonian: Hamiltonian
    output_dir: Path
    heatmaps: bool
    config_text: str


_SECTION_KEYS = {
    "metropolis": {
        "n", "r", "beta", "sigma", "gamma_n", "iterations", "seed",
        "record_every", "init",
    },
    "sde": {
        "r", "beta", "sigma", "dt", "seed", "horizon_t", "drift",
        "replicas", "init", "record_every",
    },
    "flow": {"r", "beta", "dt", "horizon", "init", "record_every"},
    "metrics": {"kind", "a", "b", "epsilon", "seed"},
    "sample": {"what", "n", "r", "p", "kernel", "seed"},
    "hamiltonian": {"entropy_gamma"},
    "output": {"dir", "heatmaps"},
}


def _convert(section: str, key: str, raw: str, kind, errors):
    try:
        if kind is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError:
        errors.append(f"[{section}] {key}: cannot read {raw!r} as {kind.__name__}")
        return None


def parse_config(text: str, mode: str) -> ExperimentConfig:
    """Validate a config document for one run mode.

    Raises ConfigError carrying every problem found, each message naming the
    section and key (configparser supplies line numbers for syntax errors).
    """
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([str(exc)]) from None
    errors: list[str] = []
    if mode not in _SECTION_KEYS or mode == "hamiltonian":
        raise ConfigError([f"unknown mode {mode!r}"])
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            errors.append(f"[{section}]: unknown section")
            continue
        allowed = _SECTION_KEYS[section]
        for key in parser[section]:
            if section == "hamiltonian" and key.startswith("term."):
                if key[5:] not in (
                    "edge", "path2", "path3", "triangle", "cycle4", "star3",
                ):
                    errors.append(f"[hamiltonian] {key}: unknown term graph")
                continue
            if key not in allowed:
                errors.append(f"[{section}] {key}: unknown key")
    if mode != "oracle" and mode not in parser.sections() and mode in ("metropolis", "sde", "flow", "metrics", "sample"):
        errors.append(f"[{mode}]: missing section for mode {mode!r}")
    if errors:
        raise ConfigError(errors)

    get = parser[mode] if mode in parser else {}
    options: dict = {}

    def want(key: str, kind, default=None, required=False):
        if key in get:
            val = _convert(mode, key, get[key], kind, errors)
            options[key] = val
        elif required:
            errors.append(f"[{mode}] {key}: required key missing")
        else:
            options[key] = default

    if mode == "metropolis":
        want("n", int, required=True)
        want("r", int, required=True)
        want("beta", float, required=True)
        want("sigma", float, 0.0)
        want("gamma_n", float, required=True)
        want("iterations", int, 0)
        want("seed", int, 0)
        want("record_every", int, 1)
        want("init", str, "0.5")
    elif mode == "sde":
        want("r", int, required=True)
        want("beta", float, required=True)
        want("sigma", float, 0.0)
        want("dt", float, 1e-3)
        want("seed", int, 0)
        want("horizon_t", float, 1.0)
        want("drift", str, "closed_form")
        want("replicas", int, 1)
        want("init", str, "0.5")
        want("record_every", int, 1)
    elif mode == "flow":
        want("r", int, required=True)
        want("beta", float, required=True)
        want("dt", float, 1e-3)
        want("horizon", float, 1.0)
        want("init", str, "0.5")
        want("record_every", int, 1)
    elif mode == "metrics":
        want("kind", str, "stepkernel")
        want("a", str, required=True)
        want("b", str, required=True)
        want("epsilon", float, 1.0)
        want("seed", int, 0)
        for key in ("a", "b"):
            if options.get(key) and not Path(options[key]).exists():
                errors.append(f"[metrics] {key}: file {options[key]!r} does not exist")
        if options.get("kind") not in ("stepkernel", "mvg", None):
            errors.append(f"[metrics] kind: {options['kind']!r} not stepkernel|mvg")
    elif mode == "sample":
        want("what", str, "esbm")
        want("n", int, required=True)
        want("r", int, 2)
        want("p", float, 0.5)
        want("kernel", str, None)
        want("seed", int, 0)
        if options.get("kernel") and not Path(options["kernel"]).exists():
            errors.append(f"[sample] kernel: file {options['kernel']!r} does not exist")

    terms = []
    gamma = 0.0
    if "hamiltonian" in parser:
        sect = parser["hamiltonian"]
        for key in sect:
            if key.startswith("term."):
                coeff = _convert("hamiltonian", key, sect[key], float, errors)
                if coeff is not None:
                    terms.append((coeff, named_term_graph(key[5:])))
        if "entropy_gamma" in sect:
            gamma = _convert("hamiltonian", "entropy_gamma", sect["entropy_gamma"], float, errors) or 0.0

    out_dir = Path("out")
    heatmaps = True
    if "output" in parser:
        if "dir" in parser["output"]:
            out_dir = Path(parser["output"]["dir"])
        if "heatmaps" in parser["output"]:
            heatmaps = _convert("output", "heatmaps", parser["output"]["heatmaps"], bool, errors)
    if errors:
        raise ConfigError(errors)
    try:
        ham = Hamiltonian(tuple(terms), gamma)
    except ValueError as exc:
        raise ConfigError([f"[hamiltonian]: {exc}"]) from None
    return ExperimentConfig(mode, options, ham, out_dir, heatmaps, text)


def _float_csv(x: float) -> str:
    return repr(float(x))


def _load_init(spec: str, r: int) -> StepKernel | str:
    if spec == "uniform":
        return "uniform"
    try:
        level = float(spec)
    except ValueError:
        path = Path(spec)
        if not path.exists():
            raise ConfigError(
                [f"init: {spec!r} is neither a number, 'uniform', nor a file"]
            ) from None
        return load_kernel_text(path)
    return StepKernel.constant(r, level)


def _write_trajectory_csv(path: Path, header_cols, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header_cols) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _pair_labels(r: int) -> list[str]:
    return [f"q_{i}_{j}" for i in range(r) for j in range(i, r)]


def _upper_values(values: np.ndarray) -> list[float]:
    r = values.shape[0]
    return [values[i, j] for i in range(r) for j in range(i, r)]


def _manifest(cfg: ExperimentConfig, extra: dict, wall: float) -> dict:
    digest = hashlib.sha256(cfg.config_text.encode()).hexdigest()
    # config text is embedded so that a run is reproducible from the manifest
    # alone; the digest keys runs that shared a config
    return {
        "mode": cfg.mode,
        "config_sha256": digest,
        "config": cfg.config_text,
        "wall_time_s": wall,
        "package_version": __version__,
        **extra,
    }


def _run_metropolis(cfg: ExperimentConfig, out: Path) -> int:
    o = cfg.options
    chain_cfg = ChainConfig(
        n=o["n"], r=o["r"], beta=o["beta"], sigma=o["sigma"], gamma_n=o["gamma_n"],
        h=cfg.hamiltonian, seed=o["seed"], iterations=o["iterations"],
    )
    for msg in chain_cfg.validation_warnings():
        print(f"warning: {msg}")
    print(
        f"derived: beta_nr={chain_cfg.beta_nr!r} s_n={chain_cfg.s_n} "
        f"l_nr={chain_cfg.l_nr} capacities=({chain_cfg.n ** 2}, "
        f"{chain_cfg.n * (chain_cfg.n - 1) // 2})"
    )
    init = _load_init(o["init"], o["r"])
    milestones = o.get("milestones", ())
    start = time.monotonic()
    rows = []
    labels = _pair_labels(o["r"])

    def observer(rec) -> None:
        rows.append(
            [str(rec.step), _float_csv(rec.t), _float_csv(rec.energy),
             _float_csv(rec.acc_prob), str(int(rec.accepted))]
            + [_float_csv(v) for v in _upper_values(rec.density.values)]
        )
        if cfg.heatmaps and (rec.step in milestones or not milestones):
            save_kernel_pgm(rec.density, out / f"q_{rec.step}.pgm")

    run_chain(chain_cfg, init, observers=[observer],
              record_every=o["record_every"], milestones=milestones)
    wall = time.monotonic() - start
    _write_trajectory_csv(out / "trajectory.csv",
                          ["step", "t", "H", "acc_prob", "accepted"] + labels, rows)
    manifest = _manifest(cfg, {
        "seed": o["seed"], "n": o["n"], "r": o["r"], "beta": o["beta"],
        "sigma": o["sigma"], "gamma_n": o["gamma_n"],
        "iterations": o["iterations"],
        "beta_nr": chain_cfg.beta_nr, "s_n": chain_cfg.s_n, "l_nr": chain_cfg.l_nr,
        "milestones": sorted(milestones),
    }, wall)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _run_sde(cfg: ExperimentConfig, out: Path) -> int:
    o = cfg.options
    sde_cfg = SdeConfig(
        r=o["r"], beta=o["beta"], sigma=o["sigma"], dt=o["dt"], h=cfg.hamiltonian,
        seed=o["seed"], horizon_t=o["horizon_t"], drift=o["drift"],
    )
    print(f"derived: dt={o['dt']!r} steps={math.ceil(o['horizon_t'] / o['dt'] - 1e-12)}")
    init = _load_init(o["init"], o["r"])
    if isinstance(init, str):
        raise ConfigError(["[sde] init: 'uniform' is only for the chain"])
    start = time.monotonic()
    rows = []
    labels = _pair_labels(o["r"])

    def observer(rec) -> None:
        rows.append(
            [str(rec.step), _float_csv(rec.t), _float_csv(rec.energy),
             _float_csv(rec.l0_norm), _float_csv(rec.l1_norm)]
            + [_float_csv(v) for v in _upper_values(rec.x.values)]
        )
        if cfg.heatmaps:
            save_kernel_pgm(rec.x, out / f"q_{rec.step}.pgm")

    run_sde(sde_cfg, init, observers=[observer], replicas=o["replicas"],
            record_every=o["record_every"])
    wall = time.monotonic() - start
    _write_trajectory_csv(out / "trajectory.csv",
                          ["step", "t", "H", "L0_fro", "L1_fro"] + labels, rows)
    manifest = _manifest(cfg, {
        "seed": o["seed"], "r": o["r"], "beta": o["beta"], "sigma": o["sigma"],
        "dt": o["dt"], "horizon_t": o["horizon_t"], "drift": o["drift"],
        "replicas": o["replicas"],
    }, wall)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _run_flow(cfg: ExperimentConfig, out: Path) -> int:
    o = cfg.options
    print(f"derived: dt={o['dt']!r} steps={math.ceil(o['horizon'] / o['dt'] - 1e-12)}")
    init = _load_init(o["init"], o["r"])
    if isinstance(init, str):
        raise ConfigError(["[flow] init: 'uniform' is only for the chain"])
    start = time.monotonic()
    rows = []
    labels = _pair_labels(o["r"])

    def observer(rec) -> None:
        rows.append(
            [str(rec.step), _float_csv(rec.t), _float_csv(rec.energy)]
            + [_float_csv(v) for v in _upper_values(rec.w.values)]
        )
        if cfg.heatmaps:
            save_kernel_pgm(rec.w, out / f"q_{rec.step}.pgm")

    traj = run_flow(cfg.hamiltonian, o["beta"], init, o["dt"], o["horizon"],
                    observers=[observer], record_every=o["record_every"])
    report = measure_rates(traj, beta=o["beta"])
    wall = time.monotonic() - start
    _write_trajectory_csv(out / "trajectory.csv", ["step", "t", "H"] + labels, rows)
    with open(out / "rate_report.csv", "w") as fh:
        fh.write("fit_t0,fit_t1,slope,intercept,r_squared,envelope_ok,envelope_margin\n")
        fh.write(",".join([
            _float_csv(report.fit_t0), _float_csv(report.fit_t1),
            _float_csv(report.slope), _float_csv(report.intercept),
            _float_csv(report.r_squared), str(int(report.envelope_ok)),
            _float_csv(report.envelope_margin),
        ]) + "\n")
    manifest = _manifest(cfg, {
        "r": o["r"], "beta": o["beta"], "dt": o["dt"], "horizon": o["horizon"],
        "fitted_rate": report.slope,
    }, wall)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _run_metrics(cfg: ExperimentConfig, out: Path) -> int:
    o = cfg.options
    start = time.monotonic()
    if o["kind"] == "stepkernel":
        a = load_kernel_text(o["a"])
        b = load_kernel_text(o["b"])
        result = {
            "cut_metric_upper": cut_metric_upper(a, b, seed=o["seed"]),
            "delta2_upper": delta2_upper(a, b, seed=o["seed"]),
        }
    else:
        a = load_mvg_text(o["a"])
        b = load_mvg_text(o["b"])
        net = build_net(o["epsilon"])
        # wass_cut is delta_black (the two sups commute); both keys are kept
        lower, eps = delta_black(a, b, net, seed=o["seed"])
        result = {
            "delta_black_lower": lower,
            "delta_black_eps": eps,
            "wass_cut_lower": lower,
            "wass_cut_eps": eps,
            "delta2_upper": delta2_mvg_upper(a, b, seed=o["seed"]),
            "net_size": len(net),
        }
    for key, val in result.items():
        print(f"{key} = {val!r}")
    wall = time.monotonic() - start
    (out / "metrics.json").write_text(
        json.dumps(_manifest(cfg, result, wall), indent=2, sort_keys=True) + "\n"
    )
    return EXIT_OK


def _run_sample(cfg: ExperimentConfig, out: Path) -> int:
    o = cfg.options
    rng = np.random.default_rng(o["seed"])
    start = time.monotonic()
    if o["kernel"]:
        q = load_kernel_text(o["kernel"])
        r = q.r
    else:
        r = o["r"]
        q = StepKernel.constant(r, o["p"])
    chain_cfg = ChainConfig(n=o["n"], r=r, beta=0.0, sigma=0.0, gamma_n=1.0,
                            h=Hamiltonian(()), seed=o["seed"])
    edges, realized = esbm_sample(chain_cfg, q, rng)
    with open(out / "edges.csv", "w") as fh:
        fh.write("u,v\n")
        for u, v in edges:
            fh.write(f"{u},{v}\n")
    save_kernel_text(realized, out / "realized.txt")
    wall = time.monotonic() - start
    manifest = _manifest(cfg, {
        "seed": o["seed"], "n": o["n"], "r": r, "edge_total": int(len(edges)),
    }, wall)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"sampled {len(edges)} edges across {r} communities of {o['n']}")
    return EXIT_OK


def _run_oracle(out: Path, seed: int) -> int:
    """Quick self-checks of the closed forms against independent estimates."""
    rng = np.random.default_rng(seed)
    failures = 0

    def report(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1

    # Gaussian tail vs trapezoidal quadrature of the density; the grid must
    # start exactly at x or the missing sliver dominates the error
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    worst = 0.0
    for x in (0.0, 0.5, 1.0, 2.0):
        grid = np.linspace(x, 12.0, 200_001)
        dens = np.exp(-grid * grid / 2) / math.sqrt(2 * math.pi)
        worst = max(worst, abs(float(trapezoid(dens, grid)) - gaussian_tail(x)))
    report("gaussian-tail", worst < 1e-8, f"max quadrature gap {worst:.2e}")

    # closed-form drift vs Monte-Carlo surrogate at r = 3
    v = np.array([[0.4, -0.3, 0.1], [-0.3, 0.8, 0.2], [0.1, 0.2, -0.5]])
    t = 0.2
    size = 200_000
    y = rng.standard_normal((size, 3, 3))
    y = np.triu(y, 1)
    y = y + np.swapaxes(y, 1, 2)
    y[:, np.arange(3), np.arange(3)] = rng.standard_normal((size, 3)) * math.sqrt(2)
    wts = np.exp(-t * np.maximum(np.einsum("kij,ij->k", y, v), 0.0))
    est = (y * wts[:, None, None]).mean(axis=0)
    se = (y * wts[:, None, None]).std(axis=0) / math.sqrt(size)
    gap = np.abs(est - explicit_drift_formula(v, t))
    ok = bool((gap < 5 * se).all())
    report("explicit-drift", ok, f"max gap {gap.max():.2e} vs 5 SE {5 * se.max():.2e}")

    # two-sided reflection stays 4-Lipschitz on random walk pairs
    worst_ratio = 0.0
    for _ in range(200):
        p1 = np.cumsum(rng.normal(0, 0.2, size=300))
        p2 = p1 + np.cumsum(rng.normal(0, 0.05, size=300))
        p1 -= p1[0]
        p2 -= p2[0]
        x1, _, _ = skorokhod_1d(0.5 + p1 - p1[0], 0.0, 1.0)
        x2, _, _ = skorokhod_1d(0.5 + p2 - p2[0], 0.0, 1.0)
        denom = np.abs(p1 - p2).max()
        if denom > 1e-12:
            worst_ratio = max(worst_ratio, np.abs(x1 - x2).max() / denom)
    report("skorokhod-lipschitz", worst_ratio <= 4.0 + 1e-12, f"worst ratio {worst_ratio:.3f}")

    (out / "oracle.json").write_text(json.dumps({"failures": failures}) + "\n")
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="graphdyn",
                                     description="kernel-valued graph dynamics runner")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("metropolis", "sde", "flow", "metrics", "sample", "oracle"):
        p = sub.add_parser(mode)
        p.add_argument("--config", type=Path, default=None)
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", type=Path, default=None, help="override output dir")
        if mode == "metropolis":
            p.add_argument("--preset", choices=["mantel"], default=None)
    args = parser.parse_args(argv)

    try:
        if args.mode == "oracle":
            out = args.out or Path("out")
            out.mkdir(parents=True, exist_ok=True)
            return _run_oracle(out, args.seed or 0)
        if getattr(args, "preset", None) == "mantel":
            text = MANTEL_CONFIG
        elif args.config is not None:
            try:
                text = args.config.read_text()
            except OSError as exc:
                print(f"error: cannot read config: {exc}", file=sys.stderr)
                return EXIT_IO
        else:
            print("error: --config (or --preset) is required", file=sys.stderr)
            return EXIT_CONFIG
        cfg = parse_config(text, args.mode)
        if args.seed is not None and "seed" in cfg.options:
            cfg.options["seed"] = args.seed
        if args.out is not None:
            cfg.output_dir = args.out
        if getattr(args, "preset", None) == "mantel":
            cfg.options["milestones"] = MANTEL_MILESTONES
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        runner = {
            "metropolis": _run_metropolis,
            "sde": _run_sde,
            "flow": _run_flow,
            "metrics": _run_metrics,
            "sample": _run_sample,
        }[args.mode]
        return runner(cfg, cfg.output_dir)
    except ConfigError as exc:
        for msg in exc.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FloatingPointError as exc:
        print(f"numeric guard: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

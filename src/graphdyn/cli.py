"""Command-line experiment runner.

Subcommands mirror the run modes: metropolis, sde, flow, metrics, sample,
and oracle.  Configs are flat INI-style sections of key = value pairs; every
completed run gets a manifest with the derived scaling constants, its warnings
and a content hash of the config so outputs can be reproduced byte-for-byte.
"""
from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import hashlib
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from ._drive import horizon_steps
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


@dataclasses.dataclass
class ExperimentConfig:
    mode: str
    options: dict
    hamiltonian: Hamiltonian
    output_dir: Path
    heatmaps: bool
    config_text: str


# A key's spec is (type, default), with REQUIRED as the default of a key that
# must be given, or a tuple of strings: a choice whose first entry is the default.
REQUIRED = object()

# sections any mode's config may carry; [hamiltonian] also takes term.<graph> keys
_SHARED = {
    "hamiltonian": {"entropy_gamma": (float, 0.0)},
    "output": {"dir": (Path, Path("out")), "heatmaps": (bool, True)},
}

# mode -> (key specs of its section, runner, manifest file), in subcommand order; see _mode
_MODES: dict = {}


def _mode(name: str, manifest: str = "manifest.json", **keys):
    """Register a runner as the subcommand `name`, reading `keys` from [name]
    and returning the fields that `main` writes to `manifest`."""
    def register(run):
        _MODES[name] = (keys, run, manifest)
        return run
    return register


def _existing_file(raw: str) -> str:
    if not Path(raw).exists():
        raise FileNotFoundError(raw)
    return raw


def _convert(section: str, key: str, raw: str, kind, errors):
    try:
        if kind is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except FileNotFoundError:
        errors.append(f"[{section}] {key}: file {raw!r} does not exist")
    except ValueError:
        errors.append(f"[{section}] {key}: cannot read {raw!r} as {kind.__name__}")
    return None


def _section_values(parser, section: str, specs: dict, errors: list) -> dict:
    """Typed values of every key in specs, with defaults for absent keys."""
    given = parser[section] if section in parser else {}
    values = {}
    for key, spec in specs.items():
        if isinstance(spec[0], str):
            values[key] = given.get(key, spec[0])
            if values[key] not in spec:
                errors.append(f"[{section}] {key}: {values[key]!r} not {'|'.join(spec)}")
            continue
        kind, default = spec
        if key in given:
            values[key] = _convert(section, key, given[key], kind, errors)
        elif default is REQUIRED:
            errors.append(f"[{section}] {key}: required key missing")
        else:
            values[key] = default
    return values


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
    if mode not in _MODES:
        raise ConfigError([f"unknown mode {mode!r}"])
    specs = {name: keys for name, (keys, *_) in _MODES.items()} | _SHARED
    errors: list[str] = []
    for section in parser.sections():
        if section not in specs:
            errors.append(f"[{section}]: unknown section")
            continue
        for key in parser[section]:
            if section == "hamiltonian" and key.startswith("term."):
                try:
                    named_term_graph(key[5:])
                except ValueError:
                    errors.append(f"[hamiltonian] {key}: unknown term graph")
            elif key not in specs[section]:
                errors.append(f"[{section}] {key}: unknown key")
    if mode not in parser:
        errors.append(f"[{mode}]: missing section for mode {mode!r}")
    if errors:
        raise ConfigError(errors)

    options = _section_values(parser, mode, specs[mode], errors)
    terms = []
    for key, raw in parser["hamiltonian"].items() if "hamiltonian" in parser else ():
        if key.startswith("term."):
            coeff = _convert("hamiltonian", key, raw, float, errors)
            if coeff is not None:
                terms.append((coeff, named_term_graph(key[5:])))
    shared = {name: _section_values(parser, name, specs[name], errors) for name in _SHARED}
    if errors:
        raise ConfigError(errors)
    try:
        ham = Hamiltonian(tuple(terms), shared["hamiltonian"]["entropy_gamma"])
    except ValueError as exc:
        raise ConfigError([f"[hamiltonian]: {exc}"]) from None
    output = shared["output"]
    return ExperimentConfig(mode, options, ham, output["dir"], output["heatmaps"], text)


def _cell(x) -> str:
    """CSV text of a value: steps and flags as integers, the rest as round-trip floats."""
    return str(int(x)) if isinstance(x, int) else repr(float(x))


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


def _kernel_init(cfg: ExperimentConfig) -> StepKernel:
    """The start of a diffusion or flow run: a kernel of the configured size."""
    init = _load_init(cfg.options["init"], cfg.options["r"])
    if isinstance(init, str):
        raise ConfigError([f"[{cfg.mode}] init: 'uniform' is only for the chain"])
    # the trajectory header is labelled from r, its rows from the kernel
    if init.r != cfg.options["r"]:
        raise ConfigError(["init block count differs from config r"])
    return init


@contextlib.contextmanager
def _trajectory(cfg: ExperimentConfig, out: Path, kernel: str, columns=None, milestones=()):
    """Yield an observer collecting trajectory.csv rows; write them on exit,
    also when the run raises, so that the rows observed before are kept.
    With no row observed, no file is written.

    A row holds step, t and H, then the record fields named in `columns`
    (CSV header -> record attribute), then the upper triangle of the
    record's `kernel` attribute.  With heatmaps on, each record also writes
    q_<step>.pgm (only at milestone steps, when there are any).
    """
    fields = {"step": "step", "t": "t", "H": "energy", **(columns or {})}
    iu = np.triu_indices(cfg.options["r"])
    header = [*fields, *(f"q_{i}_{j}" for i, j in zip(*iu))]
    rows: list[list[str]] = []

    def observe(rec) -> None:
        w = getattr(rec, kernel)
        rows.append([_cell(getattr(rec, a)) for a in fields.values()]
                    + [repr(v) for v in w.values[iu].tolist()])
        if cfg.heatmaps and (rec.step in milestones or not milestones):
            save_kernel_pgm(w, out / f"q_{rec.step}.pgm")

    try:
        yield observe
    finally:
        if rows:
            _write_csv(out / "trajectory.csv", header, rows)


@contextlib.contextmanager
def _kept_warnings():
    """Yield a list of the warnings raised inside, each kept whatever the
    filters say.  On exit, also when the run raises, each is shown as the
    filters outside would have shown it where it was raised."""
    kept = []
    try:
        with warnings.catch_warnings(record=True) as kept:
            warnings.simplefilter("always")
            yield kept
    finally:
        # the module and its registry, as warnings.warn passes them, so that
        # module filters match and "default" shows a repeat once; a file of no
        # loaded module passes neither, as warn_explicit drops a None module
        modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
        for w in kept:
            module = modules.get(w.filename)
            where = () if module is None else (
                module.__name__, vars(module).setdefault("__warningregistry__", {}))
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, *where,
                                   source=w.source)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_manifest(cfg: ExperimentConfig, path: Path, start: float, fields: dict) -> None:
    """Write the run record: config, its digest, version, wall time since start, fields."""
    # config text is embedded so that a run is reproducible from the manifest
    # alone; the digest keys runs that shared a config
    doc = {
        "mode": cfg.mode,
        "config_sha256": hashlib.sha256(cfg.config_text.encode()).hexdigest(),
        "config": cfg.config_text,
        "wall_time_s": time.monotonic() - start,
        "package_version": __version__,
        **fields,
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _repeated(cfg: ExperimentConfig) -> dict:
    """The options a dynamics manifest repeats: all but init and record_every."""
    return {k: v for k, v in cfg.options.items() if k not in ("init", "record_every")}


@_mode("metropolis", n=(int, REQUIRED), r=(int, REQUIRED), beta=(float, REQUIRED),
       sigma=(float, 0.0), gamma_n=(float, REQUIRED), iterations=(int, 0), seed=(int, 0),
       record_every=(int, 1), init=(str, "0.5"))
def _run_metropolis(cfg: ExperimentConfig, out: Path) -> dict:
    o = cfg.options
    chain_cfg = ChainConfig(
        n=o["n"], r=o["r"], beta=o["beta"], sigma=o["sigma"], gamma_n=o["gamma_n"],
        h=cfg.hamiltonian, seed=o["seed"], iterations=o["iterations"],
    )
    print(
        f"derived: beta_nr={chain_cfg.beta_nr!r} s_n={chain_cfg.s_n} "
        f"l_nr={chain_cfg.l_nr} capacities=({chain_cfg.n ** 2}, "
        f"{chain_cfg.n * (chain_cfg.n - 1) // 2})"
    )
    init = _load_init(o["init"], o["r"])
    milestones = o.get("milestones", ())
    with _trajectory(cfg, out, "density", {"acc_prob": "acc_prob", "accepted": "accepted"},
                     milestones) as observe:
        run_chain(chain_cfg, init, observers=[observe],
                  record_every=o["record_every"], milestones=milestones)
    return _repeated(cfg) | {
        "beta_nr": chain_cfg.beta_nr, "s_n": chain_cfg.s_n, "l_nr": chain_cfg.l_nr,
        "milestones": sorted(milestones),
    }


@_mode("sde", r=(int, REQUIRED), beta=(float, REQUIRED), sigma=(float, 0.0),
       dt=(float, 1e-3), seed=(int, 0), horizon_t=(float, 1.0),
       drift=("closed_form", "limit"), replicas=(int, 1), init=(str, "0.5"),
       record_every=(int, 1))
def _run_sde(cfg: ExperimentConfig, out: Path) -> dict:
    o = cfg.options
    sde_cfg = SdeConfig(
        r=o["r"], beta=o["beta"], sigma=o["sigma"], dt=o["dt"], h=cfg.hamiltonian,
        seed=o["seed"], horizon_t=o["horizon_t"], drift=o["drift"],
    )
    print(f"derived: dt={o['dt']!r} steps={sde_cfg.steps}")
    init = _kernel_init(cfg)
    with _trajectory(cfg, out, "x", {"L0_fro": "l0_norm", "L1_fro": "l1_norm"}) as observe:
        run_sde(sde_cfg, init, observers=[observe], replicas=o["replicas"],
                record_every=o["record_every"])
    return _repeated(cfg)


@_mode("flow", r=(int, REQUIRED), beta=(float, REQUIRED), dt=(float, 1e-3),
       horizon=(float, 1.0), init=(str, "0.5"), record_every=(int, 1))
def _run_flow(cfg: ExperimentConfig, out: Path) -> dict:
    o = cfg.options
    print(f"derived: dt={o['dt']!r} steps={horizon_steps(o['dt'], o['horizon'])}")
    init = _kernel_init(cfg)
    with _trajectory(cfg, out, "w") as observe:
        records = run_flow(cfg.hamiltonian, o["beta"], init, o["dt"], o["horizon"],
                           observers=[observe], record_every=o["record_every"])
    report = measure_rates(records, beta=o["beta"])
    fields = [f.name for f in dataclasses.fields(report)]
    _write_csv(out / "rate_report.csv", fields, [[_cell(getattr(report, f)) for f in fields]])
    return _repeated(cfg) | {"fitted_rate": report.slope}


@_mode("metrics", "metrics.json", kind=("stepkernel", "mvg"), a=(_existing_file, REQUIRED),
       b=(_existing_file, REQUIRED), epsilon=(float, 1.0), seed=(int, 0))
def _run_metrics(cfg: ExperimentConfig, out: Path) -> dict:
    o = cfg.options
    load = load_kernel_text if o["kind"] == "stepkernel" else load_mvg_text
    a, b = load(o["a"]), load(o["b"])
    if o["kind"] == "stepkernel":
        result = {
            "cut_metric_upper": cut_metric_upper(a, b, seed=o["seed"]),
            "delta2_upper": delta2_upper(a, b, seed=o["seed"]),
        }
    else:
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
    return result


@_mode("sample", what=("esbm",), n=(int, REQUIRED), r=(int, 2), p=(float, 0.5),
       kernel=(_existing_file, None), seed=(int, 0))
def _run_sample(cfg: ExperimentConfig, out: Path) -> dict:
    o = cfg.options
    rng = np.random.default_rng(o["seed"])
    if o["kernel"]:
        q = load_kernel_text(o["kernel"])
        r = q.r
    else:
        r = o["r"]
        q = StepKernel.constant(r, o["p"])
    chain_cfg = ChainConfig(n=o["n"], r=r, beta=0.0, sigma=0.0, gamma_n=1.0,
                            h=Hamiltonian(()), seed=o["seed"])
    edges, realized = esbm_sample(chain_cfg, q, rng)
    _write_csv(out / "edges.csv", ["u", "v"], ([str(u), str(v)] for u, v in edges))
    save_kernel_text(realized, out / "realized.txt")
    print(f"sampled {len(edges)} edges across {r} communities of {o['n']}")
    return {"seed": o["seed"], "n": o["n"], "r": r, "edge_total": int(len(edges))}


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
    for mode in (*_MODES, "oracle"):
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
        _, run, manifest = _MODES[args.mode]
        start = time.monotonic()
        with _kept_warnings() as kept:
            fields = run(cfg, cfg.output_dir)
        # graphdyn's own warnings, each text once: not a dependency's noise
        own = [str(w.message) for w in kept if Path(w.filename).parent == Path(__file__).parent]
        _write_manifest(cfg, cfg.output_dir / manifest, start,
                        fields | {"warnings": list(dict.fromkeys(own))})
        return EXIT_OK
    except ConfigError as exc:
        for msg in exc.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FloatingPointError, OverflowError) as exc:
        print(f"numeric guard: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

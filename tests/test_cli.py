"""Config parsing, run modes, exit codes, and output files of the CLI."""

import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graphdyn
from graphdyn import cli
from graphdyn.cli import (
    MANTEL_CONFIG,
    MANTEL_MILESTONES,
    ConfigError,
    _load_init,
    main,
    parse_config,
)
from graphdyn.metropolis import ChainConfig
from graphdyn.stepkernel import StepKernel, load_kernel_text, save_kernel_text

FLOW_INI = """\
[flow]
r = 2
beta = 1.0
dt = 0.05
horizon = 0.25
init = 0.5

[hamiltonian]
term.triangle = 1.0
term.edge = -0.25
"""


def run_cli(mode, config, out):
    """`python -m graphdyn mode` in a child process, on this checkout's sources."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(graphdyn.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "graphdyn", mode, "--config", str(config), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------- parsing


def test_minimal_flow_config_fills_defaults():
    cfg = parse_config("[flow]\nr = 2\nbeta = 1.0\n", "flow")
    assert cfg.mode == "flow"
    assert cfg.options == {
        "r": 2, "beta": 1.0, "dt": 1e-3, "horizon": 1.0,
        "init": "0.5", "record_every": 1,
    }
    assert cfg.hamiltonian.terms == ()
    assert cfg.output_dir.name == "out" and cfg.heatmaps


def test_missing_mode_section_is_reported_by_name():
    with pytest.raises(ConfigError) as exc:
        parse_config("[sde]\nr = 2\nbeta = 1.0\n", "flow")
    assert any("[flow]: missing section" in msg for msg in exc.value.errors)


def test_unknown_sections_and_keys_are_collected_together():
    text = "[flow]\nr = 2\nbeta = 1.0\nwarp = 9\n\n[plumbing]\nx = 1\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text, "flow")
    msgs = exc.value.errors
    assert any("[flow] warp: unknown key" in m for m in msgs)
    assert any("[plumbing]: unknown section" in m for m in msgs)


def test_required_and_malformed_values_name_section_and_key():
    with pytest.raises(ConfigError, match=r"\[flow\] beta: required key missing"):
        parse_config("[flow]\nr = 2\n", "flow")
    with pytest.raises(ConfigError, match=r"\[flow\] beta: cannot read 'fast' as float"):
        parse_config("[flow]\nr = 2\nbeta = fast\n", "flow")


def test_unknown_term_graph_is_rejected():
    text = "[flow]\nr = 2\nbeta = 1.0\n\n[hamiltonian]\nterm.pentagon = 1.0\n"
    with pytest.raises(ConfigError, match="term.pentagon: unknown term graph"):
        parse_config(text, "flow")


def test_builtin_reference_config_parses_to_the_documented_run():
    cfg = parse_config(MANTEL_CONFIG, "metropolis")
    o = cfg.options
    assert (o["n"], o["r"]) == (16, 16)
    assert (o["beta"], o["sigma"], o["gamma_n"]) == (0.25, 1.0, 1 / 64)
    assert o["iterations"] == 370_000 and o["record_every"] == 1000
    assert sorted(c for c, _ in cfg.hamiltonian.terms) == [-0.25, 1.0]
    chain = ChainConfig(n=16, r=16, beta=0.25, sigma=1.0, gamma_n=1 / 64,
                        h=cfg.hamiltonian)
    assert chain.beta_nr == pytest.approx(0.0625)
    assert chain.s_n == 16 and chain.l_nr == 1
    assert MANTEL_MILESTONES == (0, 350, 930, 20_000, 100_000, 370_000)


def test_init_spec_accepts_level_uniform_or_file(tmp_path):
    k = _load_init("0.25", 3)
    assert isinstance(k, StepKernel) and np.all(k.values == 0.25)
    assert _load_init("uniform", 3) == "uniform"
    save_kernel_text(StepKernel(np.array([[0.1, 0.9], [0.9, 0.1]])), tmp_path / "k.txt")
    k = _load_init(str(tmp_path / "k.txt"), 2)
    assert np.allclose(k.values, [[0.1, 0.9], [0.9, 0.1]])
    with pytest.raises(ConfigError, match="neither a number"):
        _load_init(str(tmp_path / "missing.txt"), 2)


# ---------------------------------------------------------------- exit codes


def test_missing_config_argument_is_a_usage_error(tmp_path, capsys):
    assert main(["flow"]) == 1
    assert "--config" in capsys.readouterr().err


def test_unreadable_config_exits_with_the_io_code(tmp_path, capsys):
    assert main(["flow", "--config", str(tmp_path / "none.ini")]) == 3
    assert "cannot read config" in capsys.readouterr().err


def test_bad_config_exits_with_the_config_code(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[flow]\nr = 2\nbeta = 1.0\nwarp = 9\n")
    assert main(["flow", "--config", str(path)]) == 1
    assert "config error: [flow] warp: unknown key" in capsys.readouterr().err
    path.write_text("[metropolis]\nn = 4\nr = 2\nbeta = 1.0\ngamma_n = 0.5\nfast_proposal = true\n")
    assert main(["metropolis", "--config", str(path)]) == 1
    assert "config error: [metropolis] fast_proposal: unknown key" in capsys.readouterr().err


def test_uniform_init_is_chain_only(tmp_path, capsys):
    path = tmp_path / "sde.ini"
    path.write_text("[sde]\nr = 2\nbeta = 1.0\ninit = uniform\n")
    assert main(["sde", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "only for the chain" in capsys.readouterr().err


@pytest.mark.parametrize("mode, horizon", [("sde", "horizon_t"), ("flow", "horizon")])
def test_init_kernel_must_have_the_configured_size(tmp_path, capsys, mode, horizon):
    # otherwise flow would label three pair columns over rows of six values
    save_kernel_text(StepKernel.constant(3, 0.5), tmp_path / "k.txt")
    path = tmp_path / "run.ini"
    path.write_text(f"[{mode}]\nr = 2\nbeta = 1.0\ndt = 0.1\n{horizon} = 0.2\n"
                    f"init = {tmp_path / 'k.txt'}\n")
    assert main([mode, "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "config error: init block count differs from config r\n"


@pytest.mark.parametrize("mode, horizon", [("sde", "horizon_t"), ("flow", "horizon")])
def test_init_kernel_outside_the_unit_box_is_refused(tmp_path, capsys, mode, horizon):
    # a kernel file may declare the signed range [-1, 1]; a run starts only in [0, 1]
    save_kernel_text(StepKernel(np.array([[-0.5, 0.2], [0.2, 0.5]]), (-1.0, 1.0)),
                     tmp_path / "k.txt")
    assert (tmp_path / "k.txt").read_text().startswith("2 -1.0 1.0\n-0.5 ")
    noise = "sigma = 0.0\n" if mode == "sde" else ""
    path = tmp_path / "run.ini"
    path.write_text(f"[{mode}]\nr = 2\nbeta = 1.0\n{noise}dt = 0.1\n{horizon} = 0.2\n"
                    f"init = {tmp_path / 'k.txt'}\n")
    assert main([mode, "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "config error: entries escape declared range [0.0, 1.0]\n"


@pytest.mark.filterwarnings("ignore:gamma_n")
def test_non_finite_energy_exits_with_the_numeric_code(tmp_path, capsys):
    # two huge same-sign coefficients at the all-ones start overflow the
    # energy sum to infinity, tripping the guard at the very first record
    path = tmp_path / "inf.ini"
    path.write_text(
        "[metropolis]\nn = 16\nr = 2\nbeta = 1.0\ngamma_n = 0.03125\n"
        "iterations = 0\ninit = 1.0\n\n"
        "[hamiltonian]\nterm.triangle = 1e308\nterm.edge = 1e308\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the guard names it, numpy does not
        assert main(["metropolis", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "numeric guard: non-finite energy at step 0" in capsys.readouterr().err
    assert not (tmp_path / "o" / "trajectory.csv").exists()  # no record was taken


def test_a_flow_at_zero_beta_has_an_infinite_envelope_and_no_warning(tmp_path):
    # dist(0)^2 / (2 beta t) is +inf at beta = 0; it was computed as 0 / 0,
    # which printed numpy's "invalid value" warning on stderr
    path = tmp_path / "flow.ini"
    path.write_text(FLOW_INI.replace("beta = 1.0", "beta = 0.0"))
    proc = run_cli("flow", path, tmp_path / "o")
    assert proc.returncode == 0 and proc.stderr == ""
    assert (tmp_path / "o" / "rate_report.csv").read_text() == (
        "fit_t0,fit_t1,slope,intercept,r_squared,envelope_ok,envelope_margin\n"
        "0.0,0.25,0.0,0.0,1.0,1,inf\n")


@pytest.mark.parametrize("change, message", [
    # the gradient is finite, but its norm overflows, so the drift prefactor
    # has no finite argument
    ("term.triangle = 1e308", "non-finite drift prefactor erfcx(beta |g|_2 / r)"),
    # the gradient itself overflows
    ("term.triangle = 1e308, term.path2 = 1e308, term.cycle4 = 1e308",
     "non-finite kernel entries"),
])
def test_overflowing_drifts_exit_with_the_numeric_code(tmp_path, change, message):
    # before, the first exited 1 as an asymmetric kernel
    fields = {"r": "4", "beta": "1.0", "sigma": "0", "dt": "1e-3", "horizon_t": "0.01"}
    terms = {"term.triangle": "1.0", "term.edge": "-0.25"}
    for item in change.split(", "):
        key, value = item.split(" = ")
        (fields if key in fields else terms)[key] = value
    path = tmp_path / "run.ini"
    path.write_text("[sde]\n" + "".join(f"{k} = {v}\n" for k, v in fields.items())
                    + "\n[hamiltonian]\n" + "".join(f"{k} = {v}\n" for k, v in terms.items()))
    proc = run_cli("sde", path, tmp_path / "o")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    guards = [line for line in proc.stderr.splitlines() if line.startswith("numeric guard:")]
    assert len(guards) == 1 and message in guards[0]


@pytest.mark.parametrize("mode, fields, guard, terms, kept", [
    # a large beta alone leaves the drift finite; an overflowing gradient norm
    # does not
    ("sde", "r = 4\nbeta = 1e6\nsigma = 0\ndt = 1e-3\nhorizon_t = 0.01\n",
     "numeric guard: step 1: non-finite drift prefactor erfcx(beta |g|_2 / r) at "
     "beta = 1000000.0, |g|_2 = inf, r = 4", "term.triangle = 1e308\nterm.edge = -0.25\n", 1),
    # a finite but huge drift: every step clamps the entries to 1 and the local
    # time grows by about 4.6e153; before, L1_fro was written as inf from step 4
    # on and the run exited 0
    ("sde", "r = 16\nbeta = -1e6\nsigma = 0\ndt = 1e-3\nhorizon_t = 0.01\n",
     "numeric guard: step 4: local-time norm L1_fro = inf is not finite",
     "term.triangle = 1e-4\n", 4),
    # before, the frozen corners became inf * 0 = nan and the run exited 1
    # with "config error: values must be exactly symmetric"
    ("flow", "r = 2\nbeta = 1e308\ndt = 10\nhorizon = 20\ninit = {init}\n",
     "numeric guard: step 1: flow step beta * dt = 1e+308 * 10.0 is not finite",
     "term.triangle = 1.0\nterm.edge = -0.25\n", 1),
    # before, the chain's guard read only "numeric guard: math range error"
    ("metropolis", "n = 8\nr = 2\nbeta = -1e5\nsigma = 1\ngamma_n = 0.03125\niterations = 40\n"
     "seed = 3\n",
     "numeric guard: step 3: acceptance exp(-beta_nr dH^+) overflows at beta_nr = -800000.0, "
     "dH = 0.005087805211370255: math range error", "term.triangle = 1.0\nterm.edge = -0.25\n", 3),
])
def test_numeric_guards_name_the_step_and_the_quantity(tmp_path, mode, fields, guard, terms, kept):
    init = tmp_path / "init.txt"
    init.write_text("2 0.0 1.0\n0.0 0.5\n0.5 1.0\n")
    path = tmp_path / "run.ini"
    path.write_text(f"[{mode}]\n" + fields.format(init=init) + "\n[hamiltonian]\n" + terms)
    proc = run_cli(mode, path, tmp_path / "o")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    assert [line for line in proc.stderr.splitlines() if line.startswith("numeric guard:")] == [guard]
    # the records taken before the guard tripped are kept
    _, rows = read_csv(tmp_path / "o" / "trajectory.csv")
    assert [row[0] for row in rows] == [str(k) for k in range(kept)]
    # only a run that completes writes a manifest
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_a_regime_warning_is_shown_once(tmp_path):
    # run_chain alone raises it: shown once on stderr and kept in the manifest;
    # before, the CLI printed its own copy on stdout and the manifest kept none
    path = tmp_path / "run.ini"
    path.write_text("[metropolis]\nn = 8\nr = 2\nbeta = 0.5\nsigma = 1\ngamma_n = 0.03125\n"
                    "iterations = 3\n\n[hamiltonian]\nterm.edge = 1.0\n")
    proc = run_cli("metropolis", path, tmp_path / "o")
    assert proc.returncode == 0
    assert not [line for line in proc.stdout.splitlines() if line.startswith("warning:")]
    assert proc.stderr.count("gamma_n n^2 / log n = 0.962 < 10") == 1
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["warnings"] == [
        "gamma_n n^2 / log n = 0.962 < 10: chain is far from the diffusive regime"]


def test_a_coarse_sde_run_warns_once(tmp_path):
    # every one of the 100 steps is coarse; before, each step warned with its
    # own text, and stderr showed 46 warnings
    path = tmp_path / "run.ini"
    path.write_text("[sde]\nr = 4\nbeta = 50\nsigma = 1\ndt = 0.05\nhorizon_t = 5\n"
                    "drift = limit\nseed = 0\n\n[hamiltonian]\nterm.triangle = 1.0\n"
                    "term.edge = -0.25\n")
    proc = run_cli("sde", path, tmp_path / "o")
    assert proc.returncode == 0
    assert proc.stderr.count("Warning") == 1
    assert "UserWarning: dt * max|drift| = 1.25 at step 1 exceeds 0.1;" in proc.stderr


@pytest.mark.parametrize("rule", [{"action": "default"}, {"action": "ignore"},
                                  {"action": "ignore", "module": r"graphdyn\.sde$"}])
def test_a_coarse_sde_run_keeps_its_warning_in_the_manifest(tmp_path, capsys, rule):
    # before, the warning reached stderr only, and a filter that ignored it
    # left no trace of a run 12.5 times too coarse
    path = tmp_path / "run.ini"
    path.write_text("[sde]\nr = 4\nbeta = 50\nsigma = 1\ndt = 0.05\nhorizon_t = 5\n"
                    "drift = limit\nseed = 0\n\n[hamiltonian]\nterm.triangle = 1.0\n"
                    "term.edge = -0.25\n")
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("default")
        warnings.filterwarnings(**rule)
        assert main(["sde", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    kept = json.loads((tmp_path / "o" / "manifest.json").read_text())["warnings"]
    assert len(kept) == 1 and kept[0].startswith("dt * max|drift| = 1.25 at step 1 exceeds")
    # shown where it was raised, as the filter outside says
    assert [(str(w.message), Path(w.filename).name) for w in shown] == (
        [(kept[0], "sde.py")] if rule["action"] == "default" else [])


@pytest.mark.parametrize("action, shown", [("default", 1), ("always", 3), ("ignore", 0)])
def test_kept_warnings_are_shown_as_the_filters_outside_say(action, shown):
    with warnings.catch_warnings(record=True) as outside:
        warnings.simplefilter(action)
        with cli._kept_warnings() as kept:
            for _ in range(3):
                warnings.warn("the same warning from one line")
    assert len(kept) == 3 and len(outside) == shown


def test_a_manifest_keeps_each_text_of_graphdyn_s_own_warnings_once(tmp_path, monkeypatch):
    # a warning raised from a file outside the package, such as a dependency's
    # DeprecationWarning, is shown but not kept
    inside, outside = cli.__file__, str(tmp_path / "dependency.py")

    def run(cfg, out):
        for filename in (inside, outside, inside, inside):
            warnings.warn_explicit(f"raised in {Path(filename).name}", UserWarning, filename, 1)
        return {}

    keys, _, manifest = cli._MODES["flow"]
    monkeypatch.setitem(cli._MODES, "flow", (keys, run, manifest))
    (tmp_path / "flow.ini").write_text(FLOW_INI)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        assert main(["flow", "--config", str(tmp_path / "flow.ini"), "--out",
                     str(tmp_path / "o")]) == 0
    # all four are shown; before, one from a file of no loaded module was dropped
    assert [Path(w.filename).name for w in shown] == ["cli.py", "dependency.py", "cli.py",
                                                      "cli.py"]
    assert json.loads((tmp_path / "o" / "manifest.json").read_text())["warnings"] == [
        "raised in cli.py"]


@pytest.mark.parametrize("key, value", [
    ("beta", "inf"), ("beta", "nan"), ("sigma", "inf"), ("gamma_n", "inf"),
])
def test_non_finite_chain_parameters_exit_with_the_config_code(tmp_path, capsys, key, value):
    # before, beta = inf or nan ran to exit 0 with nan acceptance
    # probabilities, and an infinite sigma or gamma_n died in math.ceil
    fields = {"n": "16", "r": "2", "beta": "1.0", "sigma": "1.0", "gamma_n": "0.03125",
              "iterations": "40", key: value}
    path = tmp_path / "chain.ini"
    path.write_text("[metropolis]\n" + "".join(f"{k} = {v}\n" for k, v in fields.items())
                    + "\n[hamiltonian]\nterm.edge = 1.0\n")
    assert main(["metropolis", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert f"config error: {key} must be finite" in capsys.readouterr().err


def test_oversized_chain_walk_exits_with_the_config_code(tmp_path, capsys):
    # s_n ~ 6.6e64 proposal steps: refused when the config is built.  A size
    # this large is also one numpy refuses without allocating, so the test
    # stays harmless even if the guard were gone.
    path = tmp_path / "big.ini"
    path.write_text("[metropolis]\nn = 16\nr = 2\nbeta = 1.0\ngamma_n = 1e30\niterations = 1\n")
    assert main(["metropolis", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "past the limit" in capsys.readouterr().err


# a valid config per mode; each case below changes one key to a value the
# schema or the library refuses, and none may end in a traceback or a run
VALID_SECTIONS = {
    "metropolis": {"n": "16", "r": "2", "beta": "1.0", "gamma_n": "0.03125", "iterations": "4"},
    "sde": {"r": "2", "beta": "1.0", "sigma": "0.5", "dt": "0.05", "horizon_t": "0.2"},
    "flow": {"r": "2", "beta": "1.0", "dt": "0.05", "horizon": "0.2"},
    "sample": {"n": "4"},
}

MALFORMED = [
    ("sde", "horizon_t", "inf", "horizon_t must be finite"),
    ("flow", "horizon", "inf", "horizon must be finite"),
    ("flow", "dt", "0", "dt must be positive and finite"),
    ("flow", "dt", "inf", "dt must be positive and finite"),
    ("sde", "r", "0", "r must be at least 1"),
    ("sde", "replicas", "0", "replicas must be at least 1"),
    ("metropolis", "record_every", "0", "record_every must be at least 1"),
    ("sde", "record_every", "0", "record_every must be at least 1"),
    ("flow", "record_every", "0", "record_every must be at least 1"),
    ("sde", "dt", "inf", "dt must be finite"),
    ("sde", "beta", "inf", "beta must be finite"),
    ("sde", "sigma", "nan", "sigma must be finite"),
    ("flow", "beta", "nan", "beta must be finite"),
    ("flow", "r", "0", "r must be at least 1"),
    ("metropolis", "iterations", "-3", "iterations must be nonnegative"),
    ("metropolis", "n", "4000000000", "pair capacities overflow int64"),
    ("sample", "n", "4000000000", "pair capacities overflow int64"),
    ("sample", "what", "mvg", "[sample] what: 'mvg' not esbm"),
    ("sde", "drift", "fast", "[sde] drift: 'fast' not closed_form|limit"),
]


def _malformed_config(path, mode, key, value):
    fields = {**VALID_SECTIONS[mode], key: value}
    path.write_text(f"[{mode}]\n" + "".join(f"{k} = {v}\n" for k, v in fields.items()))
    return path


@pytest.mark.filterwarnings("ignore:gamma_n")
@pytest.mark.parametrize("mode, key, value, message", MALFORMED)
def test_malformed_configs_exit_with_the_config_code(tmp_path, capsys, mode, key, value, message):
    path = _malformed_config(tmp_path / "bad.ini", mode, key, value)
    assert main([mode, "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert message in err[0]


@pytest.mark.filterwarnings("ignore:gamma_n")
@pytest.mark.parametrize("mode", ["flow", "metropolis"])
@pytest.mark.parametrize("key, value, message", [
    ("term.edge", "nan", "term coefficients must be finite"),
    ("term.triangle", "-inf", "term coefficients must be finite"),
    ("entropy_gamma", "nan", "entropy weight must be finite and nonnegative"),
    ("entropy_gamma", "inf", "entropy weight must be finite and nonnegative"),
])
def test_non_finite_hamiltonian_coefficients_exit_with_the_config_code(
        tmp_path, capsys, mode, key, value, message):
    # before the check these ran and tripped the guard at step 0 (exit 2)
    path = _malformed_config(tmp_path / "bad.ini", mode, "r", "2")
    path.write_text(path.read_text() + f"[hamiltonian]\n{key} = {value}\n")
    assert main([mode, "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: [hamiltonian]: {message}"]


def test_malformed_config_never_prints_a_traceback(tmp_path):
    path = _malformed_config(tmp_path / "bad.ini", "flow", "dt", "0")
    proc = run_cli("flow", path, tmp_path / "o")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error: dt must be positive and finite")


def test_only_run_modes_are_modes():
    for mode in ("output", "hamiltonian", "oracle"):
        with pytest.raises(ConfigError, match=f"unknown mode '{mode}'"):
            parse_config("[output]\ndir = x\n", mode)


# ---------------------------------------------------------------- run modes


def test_oracle_self_checks_pass(tmp_path, capsys):
    assert main(["oracle", "--out", str(tmp_path)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 3 and all(l.startswith("PASS") for l in lines)
    assert json.loads((tmp_path / "oracle.json").read_text()) == {"failures": 0}


@pytest.mark.filterwarnings("ignore:gamma_n")
def test_metropolis_run_writes_trajectory_manifest_and_heatmaps(tmp_path, capsys):
    text = (
        "[metropolis]\nn = 16\nr = 2\nbeta = 0.5\ngamma_n = 0.03125\n"
        "iterations = 4\nrecord_every = 2\nseed = 0\n\n"
        "[hamiltonian]\nterm.triangle = 1.0\nterm.edge = -0.25\n"
    )
    path = tmp_path / "chain.ini"
    path.write_text(text)
    out = tmp_path / "run"
    assert main(["metropolis", "--config", str(path), "--seed", "9",
                 "--out", str(out)]) == 0
    assert "derived: beta_nr=" in capsys.readouterr().out

    header, rows = read_csv(out / "trajectory.csv")
    assert header == ["step", "t", "H", "acc_prob", "accepted", "q_0_0", "q_0_1", "q_1_1"]
    assert [r[0] for r in rows] == ["0", "2", "4"]
    assert all(math.isfinite(float(cell)) for r in rows for cell in r)

    # constant one-half start renders as a flat mid-gray heatmap
    assert (out / "q_0.pgm").read_text() == "P2\n2 2\n255\n128 128\n128 128\n"

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == text
    assert manifest["config_sha256"] == hashlib.sha256(text.encode()).hexdigest()
    assert manifest["seed"] == 9  # command-line override wins
    assert manifest["s_n"] == 64 and manifest["l_nr"] == 0
    assert manifest["beta_nr"] == pytest.approx(4.0)


@pytest.mark.filterwarnings("ignore:step size")
def test_sde_run_writes_trajectory_without_heatmaps_when_disabled(tmp_path):
    path = tmp_path / "sde.ini"
    path.write_text(
        "[sde]\nr = 2\nbeta = 0.5\nsigma = 0.5\ndt = 0.05\nhorizon_t = 0.2\n"
        "seed = 4\nreplicas = 2\n\n"
        "[hamiltonian]\nterm.triangle = 1.0\nterm.edge = -0.25\n\n"
        "[output]\nheatmaps = false\n"
    )
    out = tmp_path / "run"
    assert main(["sde", "--config", str(path), "--out", str(out)]) == 0
    header, rows = read_csv(out / "trajectory.csv")
    assert header == ["step", "t", "H", "L0_fro", "L1_fro", "q_0_0", "q_0_1", "q_1_1"]
    assert [r[0] for r in rows] == ["0", "1", "2", "3", "4"]
    assert all(math.isfinite(float(cell)) for r in rows for cell in r)
    assert list(out.glob("*.pgm")) == []
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["drift"] == "closed_form" and manifest["replicas"] == 2


def test_flow_runs_are_byte_deterministic(tmp_path):
    path = tmp_path / "flow.ini"
    path.write_text(FLOW_INI)
    for name in ("a", "b"):
        assert main(["flow", "--config", str(path), "--out", str(tmp_path / name)]) == 0
    for fname in ("trajectory.csv", "rate_report.csv"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()
    header, rows = read_csv(tmp_path / "a" / "rate_report.csv")
    assert header[:3] == ["fit_t0", "fit_t1", "slope"]
    assert math.isfinite(float(rows[0][2]))
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert math.isfinite(manifest["fitted_rate"])


# every option of each dynamics mode set away from its default, and the keys
# its manifest derives
MANIFEST_RUNS = {
    "metropolis": ("[metropolis]\nn = 8\nr = 2\nbeta = 0.5\nsigma = 0.5\ngamma_n = 0.0625\n"
                   "iterations = 3\nseed = 5\nrecord_every = 3\ninit = 0.25\n",
                   {"beta_nr", "s_n", "l_nr", "milestones", "warnings"}),
    "sde": ("[sde]\nr = 2\nbeta = 0.5\nsigma = 0.25\ndt = 0.05\nseed = 6\nhorizon_t = 0.1\n"
            "drift = limit\nreplicas = 2\ninit = 0.25\nrecord_every = 2\n", {"warnings"}),
    "flow": ("[flow]\nr = 2\nbeta = 0.5\ndt = 0.05\nhorizon = 0.1\ninit = 0.25\n"
             "record_every = 2\n", {"fitted_rate", "warnings"}),
}
ENVELOPE = {"mode", "config", "config_sha256", "wall_time_s", "package_version"}


@pytest.mark.filterwarnings("ignore:gamma_n", "ignore:step size")
@pytest.mark.parametrize("mode", sorted(MANIFEST_RUNS))
def test_a_dynamics_manifest_repeats_its_options_but_init_and_record_every(tmp_path, mode):
    section, derived = MANIFEST_RUNS[mode]
    text = section + "\n[hamiltonian]\nterm.triangle = 1.0\nterm.edge = -0.25\n"
    (tmp_path / "run.ini").write_text(text)
    assert main([mode, "--config", str(tmp_path / "run.ini"), "--out", str(tmp_path / "o")]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    options = parse_config(text, mode).options
    repeated = set(options) - {"init", "record_every"}
    assert set(manifest) == ENVELOPE | repeated | derived
    assert {key: manifest[key] for key in repeated} == {key: options[key] for key in repeated}
    assert manifest["mode"] == mode and manifest["config"] == text


def test_main_writes_every_manifest_and_trajectory_writes_its_rows():
    # a runner returns its manifest fields and holds no timer, no writer and
    # no try/finally: main times and writes, _trajectory's exit writes rows
    source = Path(cli.__file__).read_text().splitlines()

    def hits(pattern):
        return [k for k, line in enumerate(source, 1) if re.search(pattern, line)]

    def inside(fn, lines):
        body, first = inspect.getsourcelines(fn)
        return all(first <= k < first + len(body) for k in lines)

    for owner, pattern in ((cli.main, r"(?<!def )_write_manifest\("),
                           (cli.main, r"(?<!def )_kept_warnings\("),
                           (cli.main, r"= time\.monotonic\(\)"),
                           (cli._trajectory, r'"trajectory\.csv"')):
        assert len(hits(pattern)) == 1 and inside(owner, hits(pattern)), pattern
    for _, run, _ in cli._MODES.values():
        body = "".join(inspect.getsourcelines(run)[0])
        assert not re.search(r"\btry:|\bstart\b|\bwrite\b|monotonic", body), run.__name__


def test_metrics_mode_reports_zero_for_a_relabeled_pair(tmp_path, capsys):
    a = StepKernel(np.array([[0.8, 0.2], [0.2, 0.4]]))
    b = StepKernel(np.array([[0.4, 0.2], [0.2, 0.8]]))  # communities swapped
    save_kernel_text(a, tmp_path / "a.txt")
    save_kernel_text(b, tmp_path / "b.txt")
    path = tmp_path / "m.ini"
    path.write_text(f"[metrics]\nkind = stepkernel\na = {tmp_path/'a.txt'}\nb = {tmp_path/'b.txt'}\n")
    assert main(["metrics", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert "cut_metric_upper = 0.0" in out and "delta2_upper = 0.0" in out
    doc = json.loads((tmp_path / "o" / "metrics.json").read_text())
    assert doc["cut_metric_upper"] == 0.0 and doc["delta2_upper"] == 0.0


def test_metrics_mode_handles_measure_valued_inputs(tmp_path):
    text = "2 2\n0 0 0.0 0.5 1.0 0.5\n0 1 0.5 1.0\n1 1 0.0 1.0\n"
    (tmp_path / "a.txt").write_text(text)
    (tmp_path / "b.txt").write_text(text)
    path = tmp_path / "m.ini"
    path.write_text(
        f"[metrics]\nkind = mvg\nepsilon = 2.0\na = {tmp_path/'a.txt'}\nb = {tmp_path/'b.txt'}\n"
    )
    assert main(["metrics", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    doc = json.loads((tmp_path / "o" / "metrics.json").read_text())
    assert doc["delta_black_lower"] == 0.0 and doc["wass_cut_lower"] == 0.0
    assert doc["wass_cut_eps"] == doc["delta_black_eps"]
    assert doc["delta_black_eps"] == 0.5  # net cover radius for epsilon = 2
    assert doc["delta2_upper"] == 0.0
    assert doc["net_size"] == 81


def test_metrics_mode_rejects_an_infinite_net_resolution(tmp_path, capsys):
    text = "1 1\n0 0 0.5 1.0\n"
    (tmp_path / "a.txt").write_text(text)
    path = tmp_path / "m.ini"
    path.write_text(
        f"[metrics]\nkind = mvg\nepsilon = inf\na = {tmp_path/'a.txt'}\nb = {tmp_path/'a.txt'}\n"
    )
    assert main(["metrics", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "config error: epsilon must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon", ["1e-320", "1e-300"])
def test_metrics_mode_refuses_a_tiny_net_resolution_as_a_config_error(tmp_path, capsys, epsilon):
    # 4 / 1e-320 overflows to inf, which once escaped as a numeric guard
    (tmp_path / "a.txt").write_text("1 1\n0 0 0.5 1.0\n")
    path = tmp_path / "m.ini"
    path.write_text(
        f"[metrics]\nkind = mvg\nepsilon = {epsilon}\na = {tmp_path/'a.txt'}\n"
        f"b = {tmp_path/'a.txt'}\n"
    )
    assert main(["metrics", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: epsilon={float(epsilon)!r} needs 2 * ceil(4 / epsilon) net " \
                  "segments, more than 12; raise epsilon\n"


MVG_CELL = "0 0 0.5 1.0\n"


@pytest.mark.parametrize("kind, text, message", [
    # the header's block count never drives reads past the end of the file
    ("stepkernel", "1000000 0.0 1.0\n0.5\n", "expected 1000000 rows of 1000000 entries"),
    ("stepkernel", "0 0.0 1.0\n", "block count must be at least 1, got 0"),
    ("stepkernel", "2 0.0 1.0\n0.5 x\n0.5 0.5\n", "could not convert string to float"),
    ("mvg", "3000 1\n" + MVG_CELL, "missing cells [(0, 1), (0, 2), (0, 3), (0, 4)]"),
    ("mvg", "0 1\n", "block count must be at least 1, got 0"),
    ("mvg", "-1 1\n", "block count must be at least 1, got -1"),
    ("mvg", "1 1\n" + MVG_CELL + "0 3 0.5 1.0\n", "cell (0, 3) is outside 0 <= i <= j < 1"),
    ("mvg", "2 1\n" + MVG_CELL + "1 0 0.5 1.0\n1 1 0.5 1.0\n",
     "cell (1, 0) is outside 0 <= i <= j < 2"),
    ("mvg", "1 1\n" + MVG_CELL + MVG_CELL, "cell (0, 0) appears twice"),
    ("mvg", "1 1\n0\n", "bad cell line '0'"),
    ("mvg", "1 1\n0 0 0.5\n", "cell (0, 0): atoms and weights must be matching"),
    ("mvg", "1 1\n0 0 nan 1.0\n", "cell (0, 0): atoms and weights must be finite"),
    ("mvg", "2 1\n" + MVG_CELL + "0 1 -0.5 0.5 0.5 0.5\n1 1 0.5 1.0\n",
     "cell (0, 1) has 2 atoms, past the header's k_max of 1"),
    ("mvg", "1 x\n" + MVG_CELL, "atom bound 'x' is not an integer"),
    ("stepkernel", "1 0.0 1.0\nnan\n", "values must be finite"),
])
def test_metrics_mode_names_a_malformed_kernel_file(tmp_path, capsys, kind, text, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    path = tmp_path / "m.ini"
    path.write_text(f"[metrics]\nkind = {kind}\na = {bad}\nb = {bad}\n")
    assert main(["metrics", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {bad}: ")
    assert message in err[0]


def test_sample_mode_writes_the_edge_list_and_realized_density(tmp_path, capsys):
    path = tmp_path / "s.ini"
    path.write_text("[sample]\nwhat = esbm\nn = 4\nr = 2\np = 0.5\nseed = 3\n")
    out = tmp_path / "o"
    assert main(["sample", "--config", str(path), "--out", str(out)]) == 0
    assert "sampled 14 edges" in capsys.readouterr().out
    lines = (out / "edges.csv").read_text().splitlines()
    assert lines[0] == "u,v" and len(lines) == 15  # 3 + 8 + 3 quantized pairs
    ends = np.array([[int(x) for x in line.split(",")] for line in lines[1:]])
    assert ends.min() >= 0 and ends.max() < 8
    realized = load_kernel_text(out / "realized.txt")
    assert np.all(realized.values == 0.5)
    assert json.loads((out / "manifest.json").read_text())["edge_total"] == 14
    # a density whose count overflows int64 before clipping fills its cell
    kernel = tmp_path / "huge.txt"
    kernel.write_text("1 0.0 1e30\n1e20\n")
    path.write_text(f"[sample]\nwhat = esbm\nn = 4\nkernel = {kernel}\n")
    assert main(["sample", "--config", str(path), "--out", str(tmp_path / "huge")]) == 0
    assert "sampled 6 edges" in capsys.readouterr().out
    assert np.all(load_kernel_text(tmp_path / "huge" / "realized.txt").values == 1.0)


# ---------------------------------------------------------------- golden outputs

# One small run per mode.  Inputs are literal text and every path is relative
# to the run directory, so the embedded config (and its sha256) never names a
# temporary directory.
KERNEL_A = "3 0.0 1.0\n0.9 0.2 0.4\n0.2 0.7 0.1\n0.4 0.1 0.3\n"
KERNEL_B = "3 0.0 1.0\n0.3 0.15 0.45\n0.15 0.8 0.25\n0.45 0.25 0.6\n"
MVG_A = "2 2\n0 0 -0.5 0.25 0.75 0.75\n0 1 0.0 1.0\n1 1 -1.0 0.5 1.0 0.5\n"
MVG_B = "2 2\n0 0 0.5 1.0\n0 1 -0.25 0.5 0.25 0.5\n1 1 -0.75 0.25 0.0 0.75\n"
TERMS = "\n[hamiltonian]\nterm.triangle = 1.0\nterm.edge = -0.25\n"

GOLDEN_RUNS = {
    "metropolis": (
        ["metropolis", "--seed", "3"],
        "[metropolis]\nn = 16\nr = 2\nbeta = 0.5\nsigma = 1.0\ngamma_n = 0.03125\n"
        "iterations = 6\nrecord_every = 2\nseed = 1\n" + TERMS,
    ),
    "sde": (
        ["sde"],
        "[sde]\nr = 2\nbeta = 0.5\nsigma = 0.5\ndt = 0.05\nhorizon_t = 0.2\nseed = 4\n"
        "replicas = 2\n" + TERMS,
    ),
    "flow": (
        ["flow"],
        "[flow]\nr = 3\nbeta = 1.0\ndt = 0.05\nhorizon = 0.3\ninit = a.txt\nrecord_every = 2\n"
        + TERMS + "entropy_gamma = 0.05\n",
    ),
    # every named term graph, so every closed-form gradient is pinned
    "flow-six-terms": (
        ["flow"],
        "[flow]\nr = 3\nbeta = 0.5\ndt = 0.02\nhorizon = 0.2\ninit = b.txt\nrecord_every = 2\n"
        "\n[hamiltonian]\nterm.edge = -0.25\nterm.path2 = 0.3\nterm.path3 = -0.1\n"
        "term.triangle = 1.0\nterm.cycle4 = 0.2\nterm.star3 = -0.15\nentropy_gamma = 0.5\n",
    ),
    "metrics-stepkernel": (
        ["metrics"],
        "[metrics]\nkind = stepkernel\na = a.txt\nb = b.txt\nseed = 2\n",
    ),
    "metrics-mvg": (
        ["metrics"],
        "[metrics]\nkind = mvg\na = mvg_a.txt\nb = mvg_b.txt\nepsilon = 2.0\n",
    ),
    "sample": (
        ["sample"],
        "[sample]\nwhat = esbm\nn = 5\nkernel = a.txt\nseed = 2\n",
    ),
}


def _golden_hashes(name, tmp_path, monkeypatch, capsys):
    """sha256 of every output file and of stdout; wall_time_s reads as 0."""
    argv, text = GOLDEN_RUNS[name]
    monkeypatch.chdir(tmp_path)
    for fname, body in [("a.txt", KERNEL_A), ("b.txt", KERNEL_B),
                        ("mvg_a.txt", MVG_A), ("mvg_b.txt", MVG_B), ("run.ini", text)]:
        (tmp_path / fname).write_text(body)
    capsys.readouterr()
    assert main(argv + ["--config", "run.ini", "--out", "out"]) == 0
    hashes = {"<stdout>": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    for path in sorted((tmp_path / "out").iterdir()):
        data = re.sub(rb'"wall_time_s": [^,\n]*', b'"wall_time_s": 0', path.read_bytes())
        hashes[path.name] = hashlib.sha256(data).hexdigest()
    return hashes


# taken before the config schema and the output writer were folded together;
# sde's trajectory.csv re-recorded when the drift prefactor became erfcx; every
# manifest.json and metrics.json re-recorded when it gained warnings, and the
# metropolis stdout when its regime warning moved to stderr and the manifest
GOLDEN = {
    "metropolis": {
        "<stdout>": "ab80fd9a5c836c5caa824442518a232f57ff025d1cef4d7b2a289a8296b376eb",
        "manifest.json": "798032f5c4fae612e9fbcd808f3d561352888b096d446d5f220a483234b96fc1",
        "q_0.pgm": "a08b860a9fbe8b148853bb499514567898892b6772c211734e16e6fbde3f6b2d",
        "q_2.pgm": "e1e95814f5afa9e4fbc32e1818223c197c6af1b3edc1a0741d284a9ed056c215",
        "q_4.pgm": "1d74bd895a431563e5032f2240a25bfeb4952f10c19a5fe28dac8c6599a054ea",
        "q_6.pgm": "1f3e9be5f8b3e85e5dd168d73c0d1290471d03127eee9698a6013b087fd8adff",
        "trajectory.csv": "ab1ac57fb515084bf462d9cdded497db08a0f2a973c50400a02cc5080ab82d15",
    },
    "sde": {
        "<stdout>": "74e3674ac96cbe2df4e17f886baf700c734a8c9278ea740dfdb74d1a57daecbe",
        "manifest.json": "dbfd0d840791801419532efe308c5fb03453d60205f8edd6c5f10bb09963c253",
        "q_0.pgm": "a08b860a9fbe8b148853bb499514567898892b6772c211734e16e6fbde3f6b2d",
        "q_1.pgm": "6c3822c0f34dd0378f054202947424f082bb6ca28350cd4d20325ee168260ad6",
        "q_2.pgm": "caa53e41f97b54e910929c3bac2d441d12cb9ef248e6a6ae4d75c56e6aaa7df6",
        "q_3.pgm": "4ebbbfc9e058fce14236dd3194ad11493d86cf301c8e43e1072184edc3436e65",
        "q_4.pgm": "0f5c70315bf469e3efc05097e8208308e4f2244747f91f7a68bfe34f2a5565b4",
        "trajectory.csv": "9c9478e936826c7a21117d849b5e0ddbc2eacc6c128523e2a6c5190eeb2e720c",
    },
    "flow": {
        "<stdout>": "732235f4c4e43ae5837f5ed18aef8b5e5b2cb58ac95b3f2adcc9278ee44cda91",
        "manifest.json": "16d352c63200615fc785abee09a6636145a3241cdf148284c07be099d2b0f39b",
        "q_0.pgm": "03422ff8279abe63b0147067f0faa14c9ec419c8f8449726be9dace8a215b4a5",
        "q_2.pgm": "069b57255837fac113cf3a115cf99fd171a56b21d5098db63375027869ee0699",
        "q_4.pgm": "78c7b427f38be9a05f7c9d6a7835572a50a69759641ac95d5a6d71c5a4835ebf",
        "q_6.pgm": "8e7c9e7c33f68030b017dad962816bf2cbbb29b6cdfd194ac46972c3461ab7bc",
        "rate_report.csv": "5a359a9995cd912b6f7732945408148a6b38fbd4732e1ee2e09071770f7abfd6",
        "trajectory.csv": "3d1dc651f79e4524efa8bf42db0ad5e7a8ebabbb44e7533328767919e5582fb7",
    },
    # taken before the pinned densities of the named graphs took closed forms
    "flow-six-terms": {
        "<stdout>": "b30c672ef81ef687474f6170b9f52b28fdf4ebbb808c711fd596d0f303fcfcb6",
        "manifest.json": "44d13fd31dcab39a23c242e82e90b74c85dd2f946d7a3c558e1bfb4d0f71d416",
        "q_0.pgm": "11656fc6f7819981eb92e59ace4479cc7f90e3ccb6db5575964ad7d3aad8fde3",
        "q_10.pgm": "68dc3cbe8257ebfc65a4ead9d1e8032ef3304a4949b89b5cc4b775f379b55764",
        "q_2.pgm": "01a9544fc8b054c563317752d7aacdbabf2d248d7de2c36676bfe8c67acb12ec",
        "q_4.pgm": "4c6a827151dab4c8b48d2f4af5af9e53333ea3fe6637865a9300ab33894dde20",
        "q_6.pgm": "59041bf705a0363d24f94f26228bb0912083a1279ce813de84bdfef46c897663",
        "q_8.pgm": "1830ed592542311abf29081df80b698b0b1b5eb0ffc47a20b7944d5f953df57f",
        "rate_report.csv": "09cdf52cd22ffafbc05bf61115ef18852aa458890f1b2c4001ba1214194178f7",
        "trajectory.csv": "ce79c84bbd9b01bbbc95876977a3e626b9d04b94c7e10231bf59f61bbd40d555",
    },
    "metrics-stepkernel": {
        "<stdout>": "d5c54c2ed95e9e4ab58f1b79e5b6963ca337a847ec5bc7c786cb30dbc9f6b2b2",
        "metrics.json": "0ba3744379ad5f5b24dc52b9f8b104784b5f712d0218eaa905d806716fd8a09d",
    },
    "metrics-mvg": {
        "<stdout>": "2a9e8b6598ca263afa636600484993d4446102b60e22eb101258a8994ebd8383",
        "metrics.json": "a719fe1ad76ad6d66a07771d647d3d9517f2d07ae705fda5a071d0cd1b6d9856",
    },
    "sample": {
        "<stdout>": "c1cfa2c812d5584ce8d9f6644b1eb099e9ee3c4b5440eb02277aa29fa754d795",
        "edges.csv": "b785935ea1b4ef395d6af40af8c80f516ddcdb8b292706434c6d7f407caef745",
        "manifest.json": "f7feba5c4df4529e82108f717b33d0699b40406c13ced00338358fcc61b4d67e",
        "realized.txt": "7c56745a5b67c5f49cc19484486ef1431fc0653a6d15123594522fa066c7348a",
    },
}


@pytest.mark.filterwarnings("ignore:gamma_n", "ignore:step size")
@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_cli_outputs_match_their_golden_hashes(name, tmp_path, monkeypatch, capsys):
    assert _golden_hashes(name, tmp_path, monkeypatch, capsys) == GOLDEN[name]


# ---------------------------------------------------------------- exit codes

# per mode, each key's (valid, refused) values; None leaves the key out.  A
# generated config refuses at most two keys, so about half of them run.
# Valid runs stay small: at most 12 chain iterations and 20 diffusion or flow steps
EXIT_CASES = {
    "metropolis": {
        "n": (["2", "5", "8"], ["1", "0", "4000000000", "x", None]),
        "r": (["1", "2", "3"], ["0", "-1", None]),
        "beta": (["1.0", "0", "-1e5", "1e6"], ["nan", "inf", None]),
        "sigma": (["0", "0.5", "2", None], ["-1", "nan"]),
        "gamma_n": (["0.03125", "0.25", "1"], ["0", "-1", "inf", "1e30", None]),
        "iterations": (["0", "5", "12", None], ["-1", "2.5"]),
        "record_every": (["1", "3", None], ["0", "-2"]),
        "init": (["0.5", "0", "1", "uniform", None], ["1.5", "-0.5", "nan", "abc"]),
    },
    "sde": {
        "r": (["1", "2", "3"], ["0", "-1", None]),
        "beta": (["1.0", "0", "-3", "1e6"], ["nan", "inf", None]),
        "sigma": (["0", "0.5", None], ["-1", "nan"]),
        "dt": (["0.05", "0.2"], ["0", "-0.1", "nan", "inf"]),
        "horizon_t": (["0", "0.2", "1", "-1"], ["nan", "inf"]),
        "drift": (["closed_form", "limit", None], ["fast"]),
        "replicas": (["1", "2", None], ["0", "-1"]),
        "record_every": (["1", "3", None], ["0"]),
        "init": (["0.5", "0", "1", None], ["1.5", "uniform", "abc"]),
    },
    "flow": {
        "r": (["1", "2", "3"], ["0", "-1", None]),
        "beta": (["1.0", "0", "-3", "1e6"], ["nan", "inf", None]),
        "dt": (["0.05", "0.2"], ["0", "-0.1", "nan", "inf"]),
        "horizon": (["0", "0.2", "1", "-1"], ["nan", "inf"]),
        "record_every": (["1", "3", None], ["0"]),
        "init": (["0.5", "0", "1", None], ["1.5", "uniform", "abc"]),
    },
}
EXIT_TERMS = {
    "term.triangle": (["1.0", "-0.25", "1e308", None], ["nan"]),
    "term.edge": (["-0.25", "1e308", None], ["-inf"]),
    "entropy_gamma": (["0", "0.5", None], ["-1", "nan"]),
}
EXIT_OUTPUT = {"heatmaps": (["true", "false", None], ["maybe"])}
MESSAGE_PREFIXES = ("config error: ", "numeric guard: ", "i/o error: ", "error: ")


def _draw_config(data, mode):
    sections = {mode: EXIT_CASES[mode], "hamiltonian": EXIT_TERMS, "output": EXIT_OUTPUT}
    keys = [(name, k) for name, spec in sections.items() for k in spec]
    refused = data.draw(st.sets(st.sampled_from(keys), max_size=2), label="refused")
    text = ""
    for name, spec in sections.items():
        text += f"[{name}]\n"
        for k, choices in spec.items():
            v = data.draw(st.sampled_from(choices[(name, k) in refused]), label=f"{name}.{k}")
            text += "" if v is None else f"{k} = {v}\n"
        text += "\n"
    return text


@pytest.mark.filterwarnings("ignore")
@pytest.mark.parametrize("mode", sorted(EXIT_CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generated_configs_exit_with_a_documented_code(mode, data):
    # every run ends in 0, 1, 2 or 3, and says why on stderr, never in a traceback
    text = _draw_config(data, mode)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ini"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([mode, "--config", str(path), "--out", str(Path(tmp) / "o")])
    assert code in (0, 1, 2, 3), text
    lines = err.getvalue().splitlines()
    assert (code == 0) == (lines == []), (text, lines)
    assert all(line.startswith(MESSAGE_PREFIXES) for line in lines), (text, lines)

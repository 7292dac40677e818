"""Config parsing, run modes, exit codes, and output files of the CLI."""

import hashlib
import json
import math

import numpy as np
import pytest

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
    assert main(["metropolis", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "numeric guard: non-finite energy at step 0" in capsys.readouterr().err


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

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import microfatigue
from microfatigue import _normal, cli, stats
from microfatigue.cli import (build_curve, build_fatigue, build_parser, build_pullin,
                              build_staircase, cli_dispatch)
from microfatigue.config import default_config, parse_config
from microfatigue.electromech import (DEFAULT_CURVE_POINTS, MAX_CURVE_POINTS, SWEEP_TOL_V,
                                      pull_in_voltage_closed_form, static_equilibrium,
                                      stress_conversion_curve)
from microfatigue.errors import ConfigError, EstimationError
from microfatigue.protocols import MAX_SPECIMENS, MIN_THRESHOLD_V
from tests import reference
from tests.strategies import (EXTREMES, INF, NAN, floats_around, json_configs,
                              valid_json_configs)

TABLE_CONFIG = {"campaign": {"strengths_V": reference.PAPER_THRESHOLDS_V}}
# sha256 of the artifacts the benchmark checks, by workload and file name; the tests
# below read the digests of the artifacts they share with it from here.
BENCH_DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "reference.json").read_text())


def run_cli(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _by_argv(rows):
    """The rows, each led by its argv, as parameters named by the argv alone, each
    config dict written as its compact JSON, so a declared byte change keeps a row's id."""
    return [pytest.param(*row, id=" ".join(
        json.dumps(arg, separators=(",", ":")) if isinstance(arg, dict) else arg
        for arg in row[0])) for row in rows]


def test_unknown_subcommand_exit_1(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 1


def test_no_subcommand_exit_1(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 1


def test_show_defaults(capsys):
    code, out, _ = run_cli(capsys, "--show-defaults")
    assert code == 0
    payload = json.loads(out)
    assert payload["geometry"]["gap_um"] == 3.0
    assert payload["damage"]["calibrate_target_V_D"] == 13.0


def test_pullin_methods_agree(capsys):
    code, out, _ = run_cli(capsys, "pullin")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["closed_form_V"] - payload["sweep_V"]) < 1e-2
    assert payload["closed_form_V"] == pytest.approx(26.395, abs=5e-3)


def test_curve_stdout(capsys):
    code, out, _ = run_cli(capsys, "curve", "--vmax", "20", "--points", "11")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "voltage_V,deflection_um,stress_MPa"
    assert len(lines) == 12


def test_curve_point_defaults_are_one_constant():
    assert build_parser().parse_args(["curve"]).points == DEFAULT_CURVE_POINTS
    assert inspect.signature(stress_conversion_curve).parameters["n_points"].default == \
        DEFAULT_CURVE_POINTS


# A device whose closed-form pull-in, 58.05753654526649 V, lies one float above
# EDGE_V, where the equilibrium solve already finds no stable deflection.
EDGE_DEVICE = {"geometry": {"gap_um": 3.314910558789685,
                            "specimen_thickness_um": 2.174885110713723},
               "model": {"c_k": 2.032947392059255}}
EDGE_V = 58.05753654526648


@pytest.mark.parametrize("config, argv, code, prefix", [
    ({}, ["fatigue", "--va", repr(EDGE_V)], 3, "error: --va: drive amplitude "),
    ({}, ["fatigue", "--va", "14", "--strength-v", repr(EDGE_V)], 3,
     "error: --strength-v: threshold "),
    ({"campaign": {"levels_V": [EDGE_V], "start_level_V": EDGE_V, "step_V": 1.0}},
     ["staircase"], 2, "config error: campaign.levels_V: "),
    ({"damage": {"calibrate_immediate_V": EDGE_V}}, ["staircase"], 2,
     "config error: damage.calibrate_immediate_V: "),
    ({}, ["curve", "--vmax", repr(EDGE_V)], 3, "error: --vmax: "),
])
def test_voltage_just_below_closed_form_without_equilibrium_is_named(
        tmp_path, capsys, config, argv, code, prefix):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**EDGE_DEVICE, **config}))
    result = run_cli(capsys, "--config", str(cfg), "--out", str(tmp_path / "out"), *argv)
    assert result[:2] == (code, "")
    assert result[2].startswith(prefix)


def test_curve_rejects_vmax_above_pull_in(capsys):
    code, out, err = run_cli(capsys, "curve", "--vmax", "30")
    assert (code, out) == (3, "")
    assert err.startswith("error: --vmax: V_max 30.0 V must lie in [0, ")


def test_fatigue_rejects_va_above_pull_in(tmp_path, capsys):
    code, out, err = run_cli(capsys, "--out", str(tmp_path), "fatigue", "--va", "30")
    assert (code, out) == (3, "")
    assert err.startswith("error: --va: drive amplitude 30.0 V at or above pull-in ")
    assert not (tmp_path / "fatigue_run.csv").exists()


def test_strength_v_above_pull_in_names_the_flag(tmp_path, capsys):
    code, out, err = run_cli(capsys, "--out", str(tmp_path), "fatigue", "--va", "14",
                             "--strength-v", "30")
    assert (code, out) == (3, "")
    assert err.startswith("error: --strength-v: threshold 30.0 V at or above pull-in ")


def test_fatigue_run_survives_at_limit(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "--out", str(tmp_path), "fatigue", "--va", "13")
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "survived"
    assert (tmp_path / "fatigue_run.csv").exists()


def test_config_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"geometry": {"gap_um": -1}}))
    code, _, err = run_cli(capsys, "--config", str(bad), "pullin")
    assert code == 2
    assert "geometry.gap_um" in err


EXPLICIT_DAMAGE = {"basquin_coefficient_Pa": 1e9, "basquin_exponent": -0.3,
                   "endurance_stress_Pa": 12e6}


@pytest.mark.parametrize("name, value", [("detection_interval_cycles", 0.5),
                                         ("detection_interval_cycles", 1000.5),
                                         ("reference_cycles", 2500.5)])
def test_fatigue_rejects_fractional_cycle_counts(tmp_path, capsys, name, value):
    # Explicit damage parameters skip calibration, so the config check alone
    # makes this a config error (exit 2) rather than a failed run.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {name: value}, "damage": EXPLICIT_DAMAGE}))
    code, _, err = run_cli(capsys, "--config", str(bad), "--out", str(tmp_path),
                           "fatigue", "--va", "15")
    assert code == 2
    assert f"model.{name}" in err


def test_fatigue_whole_float_interval_same_bytes(tmp_path, capsys):
    cfg = tmp_path / "float.json"
    cfg.write_text(json.dumps({"model": {"detection_interval_cycles": 1e5}}))
    code, _, _ = run_cli(capsys, "--config", str(cfg), "--out", str(tmp_path / "float"),
                         "fatigue", "--va", "14")
    assert code == 0
    code, _, _ = run_cli(capsys, "--out", str(tmp_path / "int"), "fatigue", "--va", "14")
    assert code == 0
    assert (tmp_path / "float" / "fatigue_run.csv").read_bytes() == \
        (tmp_path / "int" / "fatigue_run.csv").read_bytes()


# sha256 of fatigue_run.csv and of stdout for runs of one detection per 1 000
# cycles (2 000 detections to the reference), recorded before the detection
# loop was written call-free. Run from tmp_path with --out out, so the "csv"
# path in stdout is the same on every run.
@pytest.mark.parametrize("argv, outcome, csv_digest, stdout_digest", _by_argv([
    (["--va", "13"], "survived",
     "edd2424a6c9c070cae48d8f3fabafde6467c5e76c5fce2d150b25ed382eac067",
     "d9c09eef18f64a7a96050d0de79b61729bb2642d5886a0eb3553a7ebc6371435"),
    (["--va", "14"], "invalid",
     "5135300c86e255affefa9eed90e525e5effda17e21e00d62911aeb04c55dbc3d",
     "80f760d6fb2b484db158639bd19e47c63cfd4ecd7200ea3c76eff261cfdab5f0"),
    (["--va", "14", "--strength-v", "12.5"], "failed",
     "35448832ff529415c763e3732b092dc634c89eac854cdd75ca7117fc3d185834",
     "bd8954cd86f4e30ebc6332c92dca501d5449f27869af35cf21f188384c1ae6d3"),
]))
def test_long_fatigue_run_bytes_pinned(tmp_path, capsys, monkeypatch, argv, outcome,
                                       csv_digest, stdout_digest):
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps({"model": {"detection_interval_cycles": 1000}}))
    code, out, _ = run_cli(capsys, "--config", "config.json", "--out", "out", "fatigue", *argv)
    assert code == 0
    assert json.loads(out)["outcome"] == outcome
    assert hashlib.sha256(Path("out/fatigue_run.csv").read_bytes()).hexdigest() == csv_digest
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest


# sha256 of fatigue_run.csv for runs at the edges of the skip over repeated
# readings, recorded before the skip existed: a device whose pristine pull-in
# spans more than 2**53 supply steps, and softening exponents whose 2/exponent
# overflows, underflows or is enormous. One detection per 1 000 cycles. Each
# config is written to the file its argv names, so the ids stay short.
EXTREME_CONFIGS = {
    "stiff.json": {"material": {"E_GPa": 1e22}, "model": {"detection_step_V": 1e-6}},
    "exp_5e-324.json": {"damage": {"softening_exponent": 5e-324}},
    "exp_1e-300.json": {"damage": {"softening_exponent": 1e-300}},
    "exp_1.7e308.json": {"damage": {"softening_exponent": 1.7e308}},
}


@pytest.mark.parametrize("argv, outcome, csv_digest", _by_argv([
    (["--config", "stiff.json", "fatigue", "--va", "14"], "failed",
     "c6a8eae43392482d1e779b39248337444143116cf0f8b99b3ce24da2ea1464ca"),
    (["--config", "stiff.json", "fatigue", "--va", "13.5"], "survived",
     "5c8ea6a9e9724ffa7ef695d6ef4a114f6310a88d2e447de9805dbad7cddc1530"),
    (["--config", "exp_5e-324.json", "fatigue", "--va", "14"], "failed",
     "0bca3c029a783f08f801bded869dcb0337c95ac2a00932c2606352e9e4fe58e7"),
    (["--config", "exp_5e-324.json", "fatigue", "--va", "13.5"], "survived",
     "4904f89a9786bfe1b1d44d172dc1d37f2493ce0b025718660e45a665b99bfc93"),
    (["--config", "exp_1e-300.json", "fatigue", "--va", "14"], "failed",
     "0bca3c029a783f08f801bded869dcb0337c95ac2a00932c2606352e9e4fe58e7"),
    (["--config", "exp_1e-300.json", "fatigue", "--va", "13.5"], "survived",
     "4904f89a9786bfe1b1d44d172dc1d37f2493ce0b025718660e45a665b99bfc93"),
    (["--config", "exp_1.7e308.json", "fatigue", "--va", "14"], "failed",
     "8544543e8abe2d3bcdb50af9061b847844e911fc32f956a60b097c17fe01f9ec"),
    (["--config", "exp_1.7e308.json", "fatigue", "--va", "13.5"], "failed",
     "05e88a037ec84f72c5500422fb81b64e154406a27699cef8aa0c9ac65f19d9c3"),
]))
def test_extreme_fatigue_run_bytes_pinned(tmp_path, capsys, monkeypatch, argv, outcome,
                                          csv_digest):
    monkeypatch.chdir(tmp_path)
    config = EXTREME_CONFIGS[argv[1]]
    config = {**config, "model": {**config.get("model", {}), "detection_interval_cycles": 1000}}
    Path(argv[1]).write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "--out", "out", *argv)
    assert code == 0
    assert json.loads(out)["outcome"] == outcome
    assert hashlib.sha256(Path("out/fatigue_run.csv").read_bytes()).hexdigest() == csv_digest


def test_missing_config_file_exit_2(capsys):
    assert run_cli(capsys, "--config", "/nonexistent/config.json", "pullin") == (
        2, "", "config error: --config: [Errno 2] No such file or directory: "
               "'/nonexistent/config.json'\n")


# Runs the CLI's main on its arguments in a fresh interpreter, each "BIG" standing for a
# path of 10**6 x: Linux passes a new process no argument of more than 128 KiB.
BIG_ARGUMENT_MAIN = """
import sys
from microfatigue.cli import main
sys.argv[1:] = ["x" * 10**6 if arg == "BIG" else arg for arg in sys.argv[1:]]
main()
"""


# A path of 1 MB once echoed whole: about 1 000 050 bytes of stderr.
@pytest.mark.parametrize("argv, flag", [
    (["--config", "BIG", "pullin"], "--config"),
    (["wohler", "--points-csv", "BIG"], "--points-csv"),
    (["--out", "BIG", "curve", "--points", "2"], "--out"),
], ids=["config", "points-csv", "out"])
def test_a_1MB_path_is_named_briefly_by_its_flag(tmp_path, argv, flag):
    src = Path(microfatigue.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-c", BIG_ARGUMENT_MAIN, *argv],
                            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
                            capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (f"config error: {flag}: [Errno 36] File name too long: "
                             f"'{'x' * 59}... (length 1000002)\n")
    assert len(result.stderr.encode()) < 300


# Config files that json.loads refuses with an exception other than JSONDecodeError,
# each run in a fresh interpreter, whose stack is the CLI's own: 100 000 nested arrays
# pass the decoder's recursion limit on every supported Python (990 already do on 3.11,
# whose limit counts the CLI's frames too), and an int of 5 000 digits passes the
# interpreter's digit limit.
@pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000,
                                  '{"model": {"c_k": 1' + "0" * 4_999 + "}}"],
                         ids=["100000-deep", "5000-digit-c_k"])
def test_a_config_json_cannot_decode_exits_2_without_a_traceback(tmp_path, text):
    result = run_fresh_pullin(tmp_path, text)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("config error: <root>: invalid JSON: ")
    assert result.stderr.count("\n") == 1


def run_fresh_pullin(tmp_path, config_text):
    """`pullin` on a config file of config_text, in a fresh interpreter."""
    cfg = tmp_path / "config.json"
    cfg.write_text(config_text)
    src = Path(microfatigue.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "microfatigue.cli", "--config", str(cfg),
                           "pullin"], env=env, capture_output=True, text=True, timeout=120)


# A fault once echoed its value or key whole: 1 000 058, 100 034 and 1 865 bytes of
# stderr for the first three rows. A key given twice ran on its last value, exit 0. A
# list once reported each item's fault: 6 088 903 bytes for the last row, now 235.
@pytest.mark.parametrize("text, fault", [
    ('{"model": {"c_k": "' + "x" * 10**6 + '"}}',
     "model.c_k: expected a finite number, got '" + "x" * 59 + "... (length 1000002)"),
    ('{"model": {"' + "k" * 100_000 + '": 1}}',
     "model." + "k" * 60 + "... (length 100000): unknown key"),
    ('{"campaign": {"levels_V": ' + "[" * 900 + "]" * 900 + "}}",
     "campaign.levels_V[0]: expected a finite number, got " + "[" * 60 + "... (length 1798)"),
    ('{"model": {"c_k": 1.0, "c_k": 2.0}}', "model.c_k: duplicate key"),
    (json.dumps({"campaign": {"levels_V": ["x"] * 100_000}}),
     "; ".join([*(f"campaign.levels_V[{i}]: expected a finite number, got 'x'" for i in range(3)),
                "campaign.levels_V: ... and 99997 more item faults"])),
], ids=["1MB-c_k", "100000-char-key", "900-deep-levels", "duplicate-c_k", "100000-bad-levels"])
def test_a_config_fault_shows_a_bounded_value_and_names_a_duplicate_key(tmp_path, text, fault):
    result = run_fresh_pullin(tmp_path, text)
    assert (result.returncode, result.stdout, result.stderr) == (2, "", f"config error: {fault}\n")


# Library faults that once echoed a value whole: 798 962 and 1 000 089 bytes of stderr.
@pytest.mark.parametrize("argv, text, fault", [
    (["--config", "FILE", "staircase"],
     json.dumps({"campaign": {"levels_V": [round(1.0 + i * 1e-4, 4) for i in range(100_000)],
                              "step_V": 1e-4, "start_level_V": 0.5}}),
     "campaign.start_level_V: 0.5 V not among levels [1.0, 1.0001, 1.0002, 1.0003, 1.0004, "
     "1.0005, 1.0006, 1.0007... (length 798900)"),
    (["wohler", "--points-csv", "FILE"], "level_V,cycles,censored\n" + "x" * 10**6 + ",1,0\n",
     "--points-csv: line 2, column level_V: expected a finite number > 0, got '"
     + "x" * 59 + "... (length 1000002)"),
], ids=["100000-levels", "1MB-points-field"])
def test_a_library_fault_shows_a_bounded_value(tmp_path, capsys, argv, text, fault):
    path = tmp_path / "input"
    path.write_text(text)
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    assert run_cli(capsys, *argv) == (2, "", f"config error: {fault}\n")


def test_staircase_published_estimate(tmp_path, capsys):
    cfg = tmp_path / "table.json"
    cfg.write_text(json.dumps(TABLE_CONFIG))
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "--config", str(cfg), "--out", str(out_dir),
                           "staircase")
    assert code == 0
    payload = json.loads(out)
    assert payload["estimate"]["mean_V"] == pytest.approx(13.0, abs=1e-12)
    assert round(payload["estimate"]["q10_V"], 1) == 12.3
    assert round(payload["estimate"]["q90_V"], 1) == 13.7
    assert (out_dir / "staircase_sequence.csv").exists()
    assert (out_dir / "staircase_estimate.json").exists()
    assert (out_dir / "config_echo.json").exists()
    assert (out_dir / "wohler_points.csv").exists()
    assert len(list(out_dir.glob("run_*.csv"))) == 6


def test_staircase_determinism(tmp_path, capsys):
    outputs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        code, _, _ = run_cli(capsys, "--seed", "77", "--out", str(out_dir), "staircase")
        assert code == 0
        outputs.append({p.name: p.read_bytes()
                        for p in sorted(out_dir.iterdir())})
    assert outputs[0] == outputs[1]


def test_config_echo_reproduces_campaign(tmp_path, capsys):
    first = tmp_path / "first"
    code, _, _ = run_cli(capsys, "--seed", "123", "--out", str(first), "staircase")
    assert code == 0
    second = tmp_path / "second"
    code, _, _ = run_cli(capsys, "--config", str(first / "config_echo.json"),
                         "--out", str(second), "staircase")
    assert code == 0
    for name in ("staircase_sequence.csv", "staircase_estimate.json",
                 "wohler_points.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_wohler_from_campaign_output(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # spread strengths so the campaign yields failures at several levels
    cfg.write_text(json.dumps(
        {"campaign": {"strengths_V": [12.5, 11.5, 12.5, 11.8, 12.2, 13.5]}}))
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(capsys, "--config", str(cfg), "--out", str(out_dir),
                         "staircase")
    assert code == 0
    code, out, _ = run_cli(capsys, "wohler", "--points-csv",
                           str(out_dir / "wohler_points.csv"))
    assert code == 0
    payload = json.loads(out)
    assert payload["exponent"] < 0


def test_wohler_degenerate_exit_3(tmp_path, capsys):
    csv = tmp_path / "points.csv"
    csv.write_text("level_V,cycles,censored\n14,1000,0\n14,2000,0\n")
    code, _, _ = run_cli(capsys, "wohler", "--points-csv", str(csv))
    assert code == 3


def test_wohler_cycle_counts_with_one_log_exit_3(tmp_path, capsys):
    # 10**15 and 10**15 + 1 are two cycle counts, but their logs are one float.
    csv = tmp_path / "points.csv"
    csv.write_text("level_V,cycles,censored\n14,1000000000000000,0\n15,1000000000000001,0\n")
    code, out, err = run_cli(capsys, "wohler", "--points-csv", str(csv))
    assert (code, out) == (3, "")
    assert err == "error: all uncensored points share one cycle count; slope is undefined\n"


@pytest.mark.parametrize("text, where", [
    ("level_V,cycles,censored\n14,1000,0\nnan,2000,0\n", "line 3, column level_V"),
    ("# note\n\n14,1000,0\n0,2000,0\n", "line 4, column level_V"),
    ("14,1000,0\n-inf,2000,0\n", "line 2, column level_V"),
    ("13,abc,0\n", "line 1, column cycles"),
    ("13,1000.5,0\n", "line 1, column cycles"),
    ("13,0,0\n", "line 1, column cycles"),
    ("13,1" + "0" * 400 + ",0\n", "line 1, column cycles"),  # overflows a float
    ("13,1000,2\n", "line 1, column censored"),
    ("13,1000,yes\n", "line 1, column censored"),
    ("14,1000,0\n13,1000\n", "line 2: expected the 3 columns"),
    ("14,1000,0,1\n", "line 1: expected the 3 columns"),
])
def test_wohler_points_faults_exit_2_naming_line_and_column(tmp_path, capsys, text, where):
    csv = tmp_path / "points.csv"
    csv.write_text(text)
    code, out, err = run_cli(capsys, "wohler", "--points-csv", str(csv))
    assert (code, out) == (2, "")
    assert f" --points-csv: {where}" in err


def test_missing_points_file_exit_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "wohler", "--points-csv", str(tmp_path / "none.csv"))
    assert (code, out) == (2, "")
    assert " --points-csv: " in err


def test_wohler_points_accept_whole_floats(tmp_path, capsys):
    outputs = []
    for rows in ("20,1000,0\n14,1000000,1\n14,2000000,0\n",
                 "20.0,1e3,0.0\n14,1000000.0,1.0\n14,2e6,0\n"):
        csv = tmp_path / "points.csv"
        csv.write_text(rows)
        code, out, _ = run_cli(capsys, "wohler", "--points-csv", str(csv))
        assert code == 0
        outputs.append(out)
    assert json.loads(outputs[0])["n_censored"] == 1
    assert outputs[1] == outputs[0]


def test_recovery_summary(capsys):
    code, out, _ = run_cli(capsys, "--seed", "42", "recovery",
                           "--replications", "50")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["mean_bias_V"]) < 0.3
    assert payload["valid_replications"] > 0


# A one-level window at a step near the float maximum: q10 = mean - Z_90 * 0.53 * step
# overflows to -inf. Like a single-outcome sequence, it admits no estimate.
OVERFLOWING_WINDOW = {"campaign": {"master_seed": 0, "step_V": 1.7e308, "levels_V": [13.0],
                                   "start_level_V": 13.0}}


def test_staircase_estimate_that_overflows_exit_3_writing_nothing(tmp_path, capsys):
    cfg = tmp_path / "window.json"
    cfg.write_text(json.dumps(OVERFLOWING_WINDOW))
    code, out, err = run_cli(capsys, "--config", str(cfg), "--out", str(tmp_path / "out"),
                             "staircase")
    assert (code, out) == (3, "")
    assert err.startswith("error: the quantiles -inf, ")
    assert not (tmp_path / "out").exists()


def test_recovery_spread_past_the_float_range_runs_without_a_warning(tmp_path, capsys):
    # std * sqrt(2) overflows to inf, which cuts every level at one half; the suite
    # turns warnings into errors, so an overflow warning would end the run with a
    # traceback.
    cfg = tmp_path / "spread.json"
    cfg.write_text(json.dumps({"campaign": {"strength_std_V": 1.7e308}}))
    code, out, err = run_cli(capsys, "--config", str(cfg), "recovery")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "00e06ad340754b33b8eb426912bb9e1de54477e1388370afdebe217da5ac3f92"


@pytest.mark.parametrize("config, bias", [
    # a one-level window whose estimates lie half of 1.7e308 V off it, where staircase
    # finds its quantiles overflow
    (OVERFLOWING_WINDOW, "8.5e+307"),
    # strengths of Normal(1e300, 1e300) fail at the default levels about one time in
    # six, and each estimate lies about 1e300 V below the true mean
    ({"campaign": {"strength_mean_V": 1e300, "strength_std_V": 1e300}}, "1e+300"),
])
def test_recovery_whose_biases_may_overflow_exits_3(tmp_path, capsys, config, bias):
    cfg = tmp_path / "far.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "--config", str(cfg), "recovery")
    assert (code, out) == (3, "")
    assert err == f"error: estimation impossible: a bias of {bias} V is past 2**500 V\n"


# sha256 of stdout. The recovery rows read one PCG64(master_seed) per trial, each
# replication's row of raw words in order, and walk the campaign's design; --show-defaults is the
# default config_echo.json, and curve's default the benchmark's conversion_curve.csv.
# A dict in argv is a config, passed as a file.
STDOUT_DIGESTS = [
    (["--seed", "42", "recovery", "--replications", "2000"],
     "d56f758c464356cebe04ab9cb939fc37613cd792e31c753dd4948436303b36b4"),
    (["--config", {"campaign": {"n_specimens": 24, "strength_std_V": 0.8}},
      "--seed", "42", "recovery", "--replications", "2000"],
     "ee892f82788109d5dcb581bf06b0f3d10bc14002db21f833076738b33110ff8f"),
    (["--show-defaults"], BENCH_DIGESTS["staircase"]["config_echo.json"]),
    (["pullin"],
     "01fe64191f5d5950d9408a3d9e6b2295815896e6696924cf4c17bd14536e47d0"),
    (["curve", "--vmax", "25", "--points", "200"],
     BENCH_DIGESTS["curve"]["conversion_curve.csv"]),
    (["--config", {"geometry": {"gap_um": 2.85, "specimen_thickness_um": 2.0},
                   "model": {"c_k": 2.5}}, "curve", "--vmax", "25", "--points", "200"],
     "ebd2c6d086cbf1df5193748c5338861ea7c199bd8c66e291998183bbe6aff1d7"),
    # the last 0.02 % below the nominal 26.395 V pull-in
    (["curve", "--vmax", "26.39", "--points", "500"],
     "b21f9633fb56ceed7658784f5ee298a31c8e912c3f863643bafb874aa8385ab9"),
    (["curve", "--vmax", "0", "--points", "2"],
     "9bca063efacf63a5dd7daa951609f55aeebf738872188badbd69c3b347263b45"),
    (["curve", "--vmax", "5e-324", "--points", "7"],
     "fa774b772cadc1697d0365a49c6cebbc782a9817816f678dc32d787661585c83"),
    # pullin at the ends of the config space; sweep_V is written by repr
    (["--config", {"geometry": {"specimen_length_um": 1e-3}, "model": {"sweep_step_V": 1000.0}},
      "pullin"],
     "0a012726880913d6d10f2d12a9faad7bbc0db45eb78db1bf6c42cc35c1e355fd"),
    (["--config", {"geometry": {"gap_um": math.nextafter(420.0, 0.0)}}, "pullin"],
     "720290de2b82c1e3da29a1cfd0118a6fdc24c469937e54fbb2d56a944921a86d"),
    (["--config", {"model": {"c_k": 1e-6}}, "pullin"],
     "1a94c69a1c34ca920a42f2da41fa0a5a72e40323bc459e668e3149418a1a3af8"),
    (["--config", {"model": {"c_k": 1e6}}, "pullin"],
     "a3423793c4f8d970ea0aad9d3a874cb23649f37cd3dc9182d6eec4a74a5dbc02"),
]


@pytest.mark.parametrize("argv, digest", _by_argv(STDOUT_DIGESTS))
def test_stdout_bytes_pinned(tmp_path, capsys, argv, digest):
    cfg = tmp_path / "config.json"
    for arg in argv:
        if isinstance(arg, dict):
            cfg.write_text(json.dumps(arg))
    code, out, _ = run_cli(capsys, *(str(cfg) if isinstance(a, dict) else a for a in argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, flag", [
    (["recovery", "--replications", "0"], "--replications"),
    (["recovery", "--replications", "abc"], "--replications"),
    (["--seed", "1.5", "staircase"], "--seed"),
    (["recovery", "--replications", "2.0"], "--replications"),
    (["curve", "--vmax", "high"], "--vmax"),
    (["curve", "--points", "many"], "--points"),
    (["fatigue", "--va", "x"], "--va"),
    (["fatigue", "--va", "14", "--strength-v", "x"], "--strength-v"),
    (["--seed", "-1", "recovery"], "--seed"),
    (["--seed", "abc", "staircase"], "--seed"),
    (["curve", "--vmax", "nan"], "--vmax"),
    (["curve", "--vmax", "-5"], "--vmax"),
    (["curve", "--vmax", "inf"], "--vmax"),
    (["curve", "--vmax", "1e400"], "--vmax"),  # overflows to inf
    (["curve", "--points", "1"], "--points"),
    (["curve", "--points", str(MAX_CURVE_POINTS + 1)], "--points"),
    (["fatigue", "--va", "nan"], "--va"),
    (["fatigue", "--va=-inf"], "--va"),
    (["fatigue", "--va", "14", "--strength-v", "nan"], "--strength-v"),
    (["fatigue", "--va", "14", "--strength-v", "0.05"], "--strength-v"),  # below MIN_THRESHOLD_V
    (["recovery", "--replications", str(stats.MAX_REPLICATIONS + 1)], "--replications"),
    (["recovery", "--replications", "1000000000"], "--replications"),
])
def test_bad_flag_values_exit_1_naming_the_flag(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert f"argument {flag}: " in err
    assert out == ""


@pytest.mark.parametrize("config, path", [
    ({"model": {"drop_fraction": "0.5"}}, "model.drop_fraction"),
    ({"damage": {"calibrate_target_V_D": "13"}}, "damage.calibrate_target_V_D"),
    ({"campaign": {"n_specimens": 2.5}}, "campaign.n_specimens"),
    ({"geometry": {"hole_count": 2.5}}, "geometry.hole_count"),
    ({"campaign": {"master_seed": 1.5}}, "campaign.master_seed"),
    ({"campaign": {"levels_V": ["x", 13]}}, "campaign.levels_V[0]"),
    ({"campaign": {"strength_std_V": NAN}}, "campaign.strength_std_V"),
    ({"material": {"E_GPa": INF}}, "material.E_GPa"),
    ({"geometry": {"gap_um": True}}, "geometry.gap_um"),
    ({"output": {"formats": "csv"}}, "output.formats"),
    ({"damage": {"basquin_exponent": -0.3}}, "damage"),
    ({"campaign": {"start_level_V": 16}}, "campaign.start_level_V"),
    ({"campaign": {"levels_V": []}}, "campaign.levels_V"),
    ({"campaign": {"strengths_V": [13, 14]}}, "campaign.strengths_V"),
    ({"campaign": {"levels_V": [12, 13, 14, 15, 30]}}, "campaign.levels_V"),
    ({"damage": {"hardening_onset": 1.5}}, "damage.hardening_onset"),
    ({"damage": {**EXPLICIT_DAMAGE, "basquin_exponent": 0.3}}, "damage.basquin_exponent"),
    ({"damage": {**EXPLICIT_DAMAGE, "endurance_stress_Pa": 0}}, "damage.endurance_stress_Pa"),
    ({"damage": {"calibrate_target_V_D": 20}}, "damage.calibrate_target_V_D"),
    ({"geometry": {"gap_um": 2.5}}, "damage.calibrate_immediate_V"),  # pull-in 20.1 V
    ({"model": {"reference_cycles": 50_000}}, "model.detection_interval_cycles"),
    ({"model": {"c_k": 1e300}}, "model.c_k"),
    ({"material": {"E_GPa": -1}}, "material.E_GPa"),
    ({"campaign": {"levels_V": [12.5, 15]}}, "campaign.levels_V"),  # off the 1 V grid from 15 V
    ({"model": {"reference_cycles": 1e300}}, "model.reference_cycles"),
    ({"model": {"detection_interval_cycles": 1}}, "model.reference_cycles"),  # 2e6 detections
    ({"geometry": {"specimen_length_um": 1e300}}, "geometry.specimen_length_um"),
    ({"geometry": {"specimen_length_um": 1e-300}}, "geometry.specimen_length_um"),
    ({"geometry": {"specimen_thickness_um": 1e300}}, "geometry.specimen_thickness_um"),
    ({"geometry": {"hole_side_um": 1e300}}, "geometry.hole_side_um"),
    ({"geometry": {"specimen_width_um": 1.7e308}}, "geometry.specimen_width_um"),
    ({"model": {"detection_step_V": 5e-324}}, "model.detection_step_V"),
    ({"campaign": {"n_specimens": MAX_SPECIMENS + 1}}, "campaign.n_specimens"),
    ({"campaign": {"strengths_V": [13.0] * (MAX_SPECIMENS + 1)}}, "campaign.strengths_V"),
    ({"model": {"reference_cycles": 0}}, "model.reference_cycles"),
    ({"campaign": {"strength_mean_V": 0}}, "campaign.strength_mean_V"),
    ({"campaign": {"strength_std_V": -0.5}}, "campaign.strength_std_V"),
    ({"campaign": {"master_seed": -1}}, "campaign.master_seed"),
    ({"model": {"drop_fraction": 1}}, "model.drop_fraction"),
    # The stress amplitude at 21 V overflows a float, so the Basquin slope is infinite.
    ({"geometry": {"specimen_length_um": 0.001, "specimen_width_um": 1e6,
                   "plate_length_um": 1e6, "gap_um": 0.001, "hole_count": 0},
      "material": {"E_GPa": 4.06730625e296}, "model": {"c_k": 1e-300}},
     "damage.calibrate_immediate_V"),
    # At this step every default level lies within 1e-9 steps of 15 V: all four on index 0.
    ({"campaign": {"master_seed": 0, "step_V": 1.7e308}}, "campaign.levels_V"),
    ({"geometry": {"hole_count": 400, "hole_side_um": 20}}, "geometry.hole_count"),
    # A step below half the float spacing at 15 V: no level of the window can move.
    ({"campaign": {"step_V": 1e-300}}, "campaign.step_V"),
    # One trial has one outcome, so Dixon-Mood could never estimate it.
    ({"campaign": {"n_specimens": 1}}, "campaign.n_specimens"),
    ([], "<root>"),
    ({"model": 3}, "model"),
])
def test_config_faults_exit_2_naming_the_field(tmp_path, capsys, config, path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    for command in ("staircase", "pullin") if path.startswith("geometry.") else ("staircase",):
        code, _, err = run_cli(capsys, "--config", str(cfg), "--out", str(tmp_path / "out"),
                               command)
        assert code == 2
        assert f" {path}: " in err


# A drop fraction of 0 fails the run at its first repeated reading; a floor
# fraction of 0 leaves the run as the default one, which fails on its drop.
@pytest.mark.parametrize("model, final_cycles", [({"drop_fraction": 0}, 100_000),
                                                 ({"min_pullin_fraction": 0}, 1_200_000)])
def test_fraction_of_zero_runs(tmp_path, capsys, model, final_cycles):
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps({"model": model}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "--out", str(tmp_path / "out"),
                           "fatigue", "--va", "14")
    assert code == 0
    summary = json.loads(out)
    assert (summary["outcome"], summary["final_cycles"]) == ("failed", final_cycles)


def test_a_bump_with_finite_readings_still_runs(tmp_path, capsys):
    # On the nominal device every reading of a bump of 1e308 stays a finite float, so
    # the run goes on; PAPER.md states no bump size to bound it by.
    cfg = tmp_path / "bump.json"
    cfg.write_text(json.dumps({"damage": {"hardening_amplitude": 1e308}}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "--out", str(tmp_path / "out"),
                           "fatigue", "--va", "14")
    assert code == 0
    summary = json.loads(out)
    assert (summary["outcome"], summary["final_cycles"], summary["final_pullin_V"]) == (
        "failed", 1_100_000, 1.5771021113553237e+155)


@pytest.mark.parametrize("config", [{"model": {"c_k": 1e300}}, {"material": {"E_GPa": 1e299}},
                                    {"model": {"c_k": 1e306}}])
@pytest.mark.parametrize("argv", [["staircase"], ["pullin"], ["fatigue", "--va", "14"],
                                  ["curve"]])
def test_overflowing_stiffness_names_c_k_and_E_GPa(tmp_path, capsys, config, argv):
    cfg = tmp_path / "stiff.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "--config", str(cfg), "--out", str(tmp_path / "out"), *argv)
    assert (code, out) == (2, "")
    assert " model.c_k: " in err and " material.E_GPa: " in err


# A 1 nm thick beam with c_k below about 1e-296: 4*I*c_k, which the
# equilibrium solve divides by, underflows to 0.
UNDERFLOWING_C_K = {
    "geometry": {"specimen_length_um": 0.001, "specimen_width_um": 1000000.0,
                 "specimen_thickness_um": 0.001, "plate_length_um": 1000000.0,
                 "plate_width_um": 0.001, "gap_um": 0.001, "hole_count": 0},
    "material": {"E_GPa": 1.0}, "model": {"c_k": 1e-297}}
# A device of pull-in 2.6e149 V read on a 1e-6 V grid: the bump's highest reading,
# pristine*sqrt(1 + 1e308), overflows the grid index.
OVERFLOWING_READINGS = {"model": {"c_k": 1e296, "detection_step_V": 1e-6},
                        "damage": {"hardening_amplitude": 1e308}}


# 12-15 V in 0.01 V steps: 301 grid levels, and drifted floats besides.
WALK_PAST_THE_BOUND = {"step_V": 0.01, "start_level_V": 13.0}


@pytest.mark.parametrize("config, argv, path", [
    ({"campaign": {"n_specimens": 0}}, ["recovery"], "campaign.n_specimens"),
    # The step is at fault only outside its range: any finite step above 0 runs.
    ({"model": {"sweep_step_V": 0}}, ["pullin"], "model.sweep_step_V"),
    ({"model": {"sweep_step_V": math.inf}}, ["pullin"], "model.sweep_step_V"),
    # fatigue's default specimen threshold; explicit damage skips the calibration's check.
    ({"damage": {**EXPLICIT_DAMAGE, "calibrate_target_V_D": 0}}, ["fatigue", "--va", "14"],
     "damage.calibrate_target_V_D"),
    ({"damage": {**EXPLICIT_DAMAGE, "calibrate_target_V_D": 30}}, ["fatigue", "--va", "14"],
     "damage.calibrate_target_V_D"),
    ({"campaign": {"n_specimens": MAX_SPECIMENS + 1}}, ["recovery"], "campaign.n_specimens"),
    *[(UNDERFLOWING_C_K, argv, "model.c_k") for argv in (
        ["pullin"], ["curve", "--vmax", "1e-300"], ["fatigue", "--va", "0"], ["staircase"])],
    ({"campaign": {"n_specimens": 1}}, ["recovery"], "campaign.n_specimens"),
    *[(OVERFLOWING_READINGS, argv, "damage.hardening_amplitude")
      for argv in (["fatigue", "--va", "14"], ["staircase"])],
    # recovery and staircase refuse one design at one path
    *[({"campaign": campaign}, argv, path) for campaign, path in (
        ({"step_V": 0}, "campaign.step_V"),
        ({"start_level_V": 12.5}, "campaign.start_level_V"),
        ({"levels_V": [12.0, 13.5, 15.0]}, "campaign.levels_V"),
        ({"levels_V": [13.0, 28.0]}, "campaign.levels_V"),  # past the 26.4 V pull-in
    ) for argv in (["recovery"], ["staircase"])],
    # a walk past stats.MAX_WALK_LEVELS, which staircase runs
    ({"campaign": WALK_PAST_THE_BOUND}, ["recovery"], "campaign.levels_V"),
    # Calibrations that pass every check made before calibrate_defaults builds its
    # Basquin line and fail one made on it. Targets this high on a stiff device
    # move the stress by a few ulps per volt: at 1e16 V, target + 1 V rounds to
    # the target, so the life one step above is unbounded; a few ulps apart, the
    # line's rounding puts the life at the immediate target past the interval, or
    # the life one step above past the reference. The targets are at fault, not
    # the interval or the reference the config never set.
    *[({"model": {"c_k": 1e30}, "damage": {"calibrate_target_V_D": target,
                                           "calibrate_immediate_V": immediate}},
       ["fatigue", "--va", "1"], path) for target, immediate, path in (
        (1e16, 2e16, "damage.calibrate_target_V_D"),
        (2323805324657110, 2323805324657112, "damage.calibrate_immediate_V"),
        (7903374192332598, 7903374192332600, "damage.calibrate_target_V_D"))],
    # Half an interval of 500 000 cycles against 60 % of 833 334: the slope is
    # about -1e6, so N**b underflows and the coefficient sigma/N**b is not finite.
    ({"model": {"detection_interval_cycles": 1_000_000, "reference_cycles": 833_334}},
     ["fatigue", "--va", "1"], "model.detection_interval_cycles"),
    # a negative level that is neither the first nor the top one
    ({"campaign": {"levels_V": [0, -1, 1], "step_V": 1, "start_level_V": 1}}, ["staircase"],
     "campaign.levels_V"),
])
def test_command_faults_exit_2_naming_the_field(tmp_path, capsys, config, argv, path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "--config", str(cfg), *argv)
    assert (code, out) == (2, "")
    assert f" {path}: " in err


def test_staircase_runs_a_design_whose_walk_passes_the_recovery_bound(tmp_path, capsys):
    cfg = tmp_path / "fine.json"
    cfg.write_text(json.dumps({"campaign": WALK_PAST_THE_BOUND}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "--out", str(tmp_path / "out"),
                           "staircase")
    assert code == 0
    assert [t["level_V"] for t in json.loads(out)["trials"]][:2] in ([13.0, 12.99], [13.0, 13.01])


@pytest.mark.parametrize("config", [
    {"model": {"sweep_step_V": 1e-6}},
    # The pull-in rises to about 835 kV, 1.7e7 sweep steps of 0.05 V.
    {"geometry": {"specimen_length_um": 0.05}},
], ids=["fine-step", "high-pull-in"])
def test_pullin_reads_a_sweep_of_any_step_count(tmp_path, capsys, config):
    # The sweep reads its supply level off the step grid, so no step count is too many.
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "--config", str(cfg), "pullin")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert abs(payload["sweep_V"] - payload["closed_form_V"]) <= SWEEP_TOL_V


# Each command that writes files, run from a directory holding the file "afile". A
# directory 3 000 deep makes os.makedirs recurse past the interpreter's stack.
WRITING_COMMANDS = {"staircase": ["staircase"], "fatigue": ["fatigue", "--va", "13"],
                    "curve": ["curve"], "wohler": ["wohler", "--points-csv", "points.csv"]}


@pytest.mark.parametrize("command, directory", [
    *(pytest.param(c, None, id=f"{c}-out-file") for c in WRITING_COMMANDS),
    *(pytest.param(c, d, id=f"{c}-{label}") for c in ("fatigue", "staircase")
      for d, label in (("afile", "directory-file"), ("a\u0000b", "directory-nul"),
                       ("a/" * 3000, "directory-3000-deep"))),
])
def test_output_directory_faults_exit_2_naming_the_setting(tmp_path, capsys, monkeypatch,
                                                           command, directory):
    monkeypatch.chdir(tmp_path)
    Path("afile").write_text("")
    Path("points.csv").write_text("20,1000,0\n14,1000000,1\n14,2000000,0\n")
    if directory is None:
        argv, setting = ["--out", "afile"], "--out"
    else:
        Path("config.json").write_text(json.dumps({"output": {"directory": directory}}))
        argv, setting = ["--config", "config.json"], "output.directory"
    code, out, err = run_cli(capsys, *argv, *WRITING_COMMANDS[command])
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: {setting}: ")


# How a written file's path is spelled on stdout: as given, joined by os.path.join. The
# first five spellings print what a pathlib.Path printed; pathlib spelled the last four
# x/f, f, x/y/f and x/y/f. "ABS" stands for the absolute path of the run's directory.
OUT_SPELLINGS = [("out", "out/{}"), ("x/", "x/{}"), ("../x", "../x/{}"), ("", "{}"),
                 ("ABS/x/", "ABS/x/{}"), ("./x", "./x/{}"), (".", "./{}"), ("x//y", "x//y/{}"),
                 ("x/./y", "x/./y/{}")]


@pytest.mark.parametrize("out, spelled", OUT_SPELLINGS, ids=[
    f"out={out!r}" for out, _ in OUT_SPELLINGS])
def test_a_written_path_is_printed_as_given(tmp_path, capsys, monkeypatch, out, spelled):
    (tmp_path / "run").mkdir()
    monkeypatch.chdir(tmp_path / "run")
    out, spelled = (text.replace("ABS", str(tmp_path)) for text in (out, spelled))
    code, stdout, _ = run_cli(capsys, "--out", out, "curve", "--points", "2")
    assert (code, stdout) == (0, f"wrote {spelled.format('conversion_curve.csv')}\n")
    code, stdout, _ = run_cli(capsys, "--out", out, "fatigue", "--va", "13")
    assert code == 0 and json.loads(stdout)["csv"] == spelled.format("fatigue_run.csv")
    assert os.path.isfile(spelled.format("conversion_curve.csv"))
    assert os.path.isfile(spelled.format("fatigue_run.csv"))


# An empty directory is the working one: os.makedirs refuses "", so it is not made.
@pytest.mark.parametrize("directory", ["", "./x"])
def test_output_directory_is_printed_as_given(tmp_path, capsys, monkeypatch, directory):
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps({"output": {"directory": directory}}))
    code, stdout, _ = run_cli(capsys, "--config", "config.json", "fatigue", "--va", "13")
    path = os.path.join(directory, "fatigue_run.csv")
    assert code == 0 and json.loads(stdout)["csv"] == path and os.path.isfile(path)


# Designs besides the default: a wider one with a finer step, and one whose 0.3 V step
# drifts off its levels in floats.
RECOVERY_DESIGNS = [
    {"levels_V": [11.0, 11.5, 12.0, 12.5, 13.0, 13.5, 14.0, 14.5, 15.0, 15.5, 16.0],
     "step_V": 0.5, "start_level_V": 16.0},
    {"levels_V": [13.1, 13.4, 14.0, 14.3], "step_V": 0.3, "start_level_V": 14.3},
]


def test_recovery_draws_the_campaign_population(tmp_path, capsys):
    campaign = {"strength_mean_V": 14.0, "strength_std_V": 0.3, "n_specimens": 12,
                "master_seed": 5}
    default = default_config().campaign
    for design in [{}, *RECOVERY_DESIGNS]:
        outputs = []
        for mean in (14.0, 14):  # a whole mean may be spelled as an int
            cfg = tmp_path / "campaign.json"
            cfg.write_text(json.dumps({"campaign": {**campaign, **design,
                                                    "strength_mean_V": mean}}))
            code, out, _ = run_cli(capsys, "--config", str(cfg), "recovery",
                                   "--replications", "50")
            assert code == 0
            outputs.append(out)
        payload = json.loads(outputs[0])
        assert [payload[key] for key in ("true_mean_V", "true_std_V", "n_specimens", "seed")] \
            == [14.0, 0.3, 12, 5]
        assert outputs[1] == outputs[0]
        expected = reference.recovery_by_replication(
            14.0, 0.3, 12, 50, 5, design.get("levels_V", default.levels_V),
            design.get("step_V", default.step_V),
            design.get("start_level_V", default.start_level_V))
        assert {key: payload[key] for key in expected} == expected, design


def test_cli_surface_is_pinned():
    # Every run setting other than these flags comes from the config file.
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))

    def options(p):
        return {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}

    assert options(parser) == {"--config", "--seed", "--out", "--show-defaults"}
    assert {name: options(p) for name, p in subparsers.choices.items()} == {
        "pullin": set(), "curve": {"--vmax", "--points"}, "fatigue": {"--va", "--strength-v"},
        "staircase": set(), "wohler": {"--points-csv"}, "recovery": {"--replications"}}
    sources = (Path(__file__).resolve().parents[1] / "src" / "microfatigue").glob("*.py")
    assert not [p.name for p in sources
                if "os.environ" in p.read_text() or "getenv" in p.read_text()]


def test_off_grid_step_is_clamped_onto_the_window(tmp_path, capsys):
    # 13.0 - 3*0.3 drifts below 12.1 in floats; the clamp puts it back on the window end.
    cfg = tmp_path / "drift.json"
    cfg.write_text(json.dumps({"campaign": {"step_V": 0.3, "levels_V": [12.1, 13.0],
                                            "start_level_V": 13.0,
                                            "strengths_V": [10, 10, 10, 20, 20, 20]}}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "--out", str(tmp_path / "out"),
                           "staircase")
    assert code == 0
    levels = [t["level_V"] for t in json.loads(out)["trials"]]
    assert levels[3] == 12.1
    assert all(12.1 <= v <= 13.0 for v in levels)


# sha256 of every staircase artifact, read from the benchmark's reference digests.
STAIRCASE_DIGESTS = BENCH_DIGESTS["staircase"]
PAPER_STAIRCASE_DIGESTS = BENCH_DIGESTS["paper_staircase"]


@pytest.mark.parametrize("config, digests", [(None, STAIRCASE_DIGESTS),
                                             (TABLE_CONFIG, PAPER_STAIRCASE_DIGESTS)],
                         ids=["default", "paper"])
def test_staircase_artifact_bytes_pinned(tmp_path, capsys, config, digests):
    argv = ["--out", str(tmp_path / "out"), "staircase"]
    if config is not None:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        argv = ["--config", str(cfg), *argv]
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((tmp_path / "out").iterdir())} == digests


# The default campaign's wohler_points.csv, whose bytes STAIRCASE_DIGESTS pins.
DEFAULT_WOHLER_POINTS = ("level_V,cycles,censored\n15,900000,0\n14,1100000,0\n13,2000000,0\n"
                         "12,2000000,1\n13,1700000,0\n12,2000000,1\n")


def test_wohler_stdout_bytes_pinned(tmp_path, capsys):
    points = DEFAULT_WOHLER_POINTS.encode()
    assert hashlib.sha256(points).hexdigest() == STAIRCASE_DIGESTS["wohler_points.csv"]
    csv = tmp_path / "wohler_points.csv"
    csv.write_bytes(points)
    code, out, _ = run_cli(capsys, "wohler", "--points-csv", str(csv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == WOHLER_STDOUT_DIGEST


WOHLER_STDOUT_DIGEST = "a0171097c0837fe5019a1b649c374491ad7d6a160f7c047c0501217347edde71"


def _refuse(*args, **kwargs):
    raise AssertionError("a builder touched the file system")


def _refuse_writes(monkeypatch):
    """Make the calls the CLI writes files with, os.makedirs and open as cli sees them,
    fail the test."""
    monkeypatch.setattr(cli.os, "makedirs", _refuse)
    monkeypatch.setattr(cli, "open", _refuse, raising=False)


@pytest.mark.parametrize("config, digests", [(None, STAIRCASE_DIGESTS),
                                             (TABLE_CONFIG, PAPER_STAIRCASE_DIGESTS)],
                         ids=["default", "paper"])
def test_staircase_builder_writes_nothing(monkeypatch, config, digests):
    _refuse_writes(monkeypatch)
    run_config = default_config() if config is None else parse_config(json.dumps(config))
    files, stdout, notes = build_staircase(run_config, None)
    assert {name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in files.items()} == digests
    assert stdout == files["staircase_estimate.json"] and notes == []
    runs = [f"run_{i:02d}.csv" for i in range(6)]
    assert list(files) == ["config_echo.json", "staircase_sequence.csv", *runs,
                           "wohler_points.csv", "staircase_estimate.json"]


def test_staircase_draws_each_threshold_once(monkeypatch):
    # One seeding pass takes the uint32 entropy words of every (master_seed, i), in
    # order; then each specimen draws once.
    calls = []
    seed, draw = _normal._pcg64_seeded, _normal._standard_normal
    monkeypatch.setattr(_normal, "_pcg64_seeded", lambda e: calls.append(e) or seed(e))
    monkeypatch.setattr(_normal, "_standard_normal",
                        lambda *lane: calls.append("draw") or draw(*lane))
    build_staircase(default_config(), None)
    camp = default_config().campaign
    assert camp.master_seed < 2**32
    assert calls == [[[camp.master_seed, i] for i in range(camp.n_specimens)],
                     *["draw"] * camp.n_specimens]


@pytest.mark.parametrize("argv, digest", _by_argv(
    row for row in STDOUT_DIGESTS if row[0][-1] == "pullin" or "curve" in row[0]))
def test_pullin_and_curve_builders_write_nothing(monkeypatch, argv, digest):
    _refuse_writes(monkeypatch)
    if argv[0] == "--config":
        config, argv = parse_config(json.dumps(argv[1])), argv[2:]
    else:
        config = default_config()
    args = build_parser().parse_args(argv)
    if args.command == "pullin":
        files, stdout, notes = build_pullin(config, None)
    else:
        files, stdout, notes = build_curve(config, None, vmax=args.vmax, points=args.points)
    assert files == {} and notes == []
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest


# Runs each argv of the JSON list in argv[1] through cli_dispatch, "OUT" standing for a
# fresh directory, and prints per argv its exit code, the sha256 of its stdout and the
# sha256 of each file it wrote, by name.
DIGEST_SCRIPT = """
import contextlib, hashlib, io, json, os, sys, tempfile
from microfatigue.cli import cli_dispatch
rows = []
for argv in json.loads(sys.argv[1]):
    with tempfile.TemporaryDirectory() as out:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli_dispatch([out if arg == "OUT" else arg for arg in argv])
        rows.append([code, hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
                     {name: hashlib.sha256(open(os.path.join(out, name), "rb").read()).hexdigest()
                      for name in sorted(os.listdir(out))}])
print(json.dumps(rows))
"""


def _supported_interpreters():
    """Each ~/.pyenv/versions/3.*/bin/python at or above the declared Python floor, by
    path: the pyenv shims answer only for the selected version."""
    floor = reference.python_floor()
    found = []
    for python in sorted(Path.home().glob(".pyenv/versions/3.*/bin/python")):
        version = tuple(int(part) for part in python.parents[1].name.split(".")[:2]
                        if part.isdigit())
        if version >= floor:
            found.append(pytest.param(python, id=python.parents[1].name))
    return found or [pytest.param(None, id="none", marks=pytest.mark.skip(
        reason="no interpreter found at ~/.pyenv/versions/3.*/bin/python"))]


@pytest.mark.parametrize("python", _supported_interpreters())
def test_every_supported_python_writes_the_pinned_bytes(tmp_path, python):
    # The numpy-free commands whose bytes are pinned above, in one fresh process per
    # interpreter: repr, json, argparse and the math wrappers are per-interpreter code.
    (tmp_path / "points.csv").write_text(DEFAULT_WOHLER_POINTS)
    rows = []
    for i, (argv, digest) in enumerate(STDOUT_DIGESTS):
        if "recovery" in argv:  # numpy is not installed for every interpreter
            continue
        cfg = tmp_path / f"config_{i}.json"
        for arg in argv:
            if isinstance(arg, dict):
                cfg.write_text(json.dumps(arg))
        rows.append(([str(cfg) if isinstance(a, dict) else a for a in argv], digest, {}))
    table = tmp_path / "table.json"
    table.write_text(json.dumps(TABLE_CONFIG))
    rows += [(["--out", "OUT", "staircase"], STAIRCASE_DIGESTS["staircase_estimate.json"],
              STAIRCASE_DIGESTS),
             (["--config", str(table), "--out", "OUT", "staircase"],
              PAPER_STAIRCASE_DIGESTS["staircase_estimate.json"], PAPER_STAIRCASE_DIGESTS),
             (["wohler", "--points-csv", str(tmp_path / "points.csv")], WOHLER_STDOUT_DIGEST, {})]
    assert sum("curve" in argv for argv, _, _ in rows) == 5
    src = Path(microfatigue.__file__).resolve().parents[1]
    result = subprocess.run(
        [str(python), "-c", DIGEST_SCRIPT, json.dumps([argv for argv, _, _ in rows])],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[0, digest, files] for _, digest, files in rows]


def test_whole_float_specimen_count_runs(tmp_path, capsys):
    cfg = tmp_path / "six.json"
    cfg.write_text(json.dumps({"campaign": {"n_specimens": 6.0}}))
    code, _, _ = run_cli(capsys, "--config", str(cfg), "--out", str(tmp_path / "out"),
                         "staircase")
    assert code == 0
    echo = json.loads((tmp_path / "out" / "config_echo.json").read_text())
    assert echo["campaign"]["n_specimens"] == 6 and isinstance(echo["campaign"]["n_specimens"], int)


FUZZ_DETECTIONS = 20_000  # detections a fuzzed run may take, bounding its time
FUZZ_SPECIMENS = 50  # specimens a fuzzed campaign may run, bounding its time


def _resolved(config, section, name):
    return config.get(section, {}).get(name, getattr(getattr(default_config(), section), name))


def _finite_number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def assume_fuzz_bounds(config):
    """Reject a drawn config whose runs would pass FUZZ_DETECTIONS or FUZZ_SPECIMENS."""
    interval = _resolved(config, "model", "detection_interval_cycles")
    cycles = _resolved(config, "model", "reference_cycles")
    n = _resolved(config, "campaign", "n_specimens")
    if _finite_number(interval) and _finite_number(cycles) and interval >= 1:
        assume(cycles / interval <= FUZZ_DETECTIONS)
    if _finite_number(n):
        assume(n <= FUZZ_SPECIMENS)


# The commands run on every drawn config, besides the drawn curve and fatigue ones.
FUZZED_COMMANDS = (["staircase"], ["recovery", "--replications", "5"], ["pullin"])
VOLTAGE_FLAGS = ("--vmax=", "--va=", "--strength-v=")
# Text of a voltage or point-count flag: typical, near the ends of the float range,
# special, or no number at all.
VOLTS = st.one_of(st.floats(0.0, 30.0), st.sampled_from([*EXTREMES, 0.0, -1.0, NAN, INF, -INF]),
                  st.sampled_from(["", "x", "1e400", "14 V"])).map(str)
POINTS = st.one_of(st.integers(2, 300), st.sampled_from(
    [0, 1, -5, MAX_CURVE_POINTS + 1, 10**400, "2.0", "nan", "x"])).map(str)
EXAMPLE_SECONDS = 20  # wall-clock bound of one fuzz example (they take under 0.2 s)


@st.composite
def flag_commands(draw, config):
    """A curve and a fatigue command line with drawn flag values. A voltage may be one
    of the 3 floats either side of the closed-form pull-in of config's device, where
    the closed form and the equilibrium solve can disagree."""
    volts = VOLTS
    try:
        device = parse_config(json.dumps(config)).device()
    except (ConfigError, ValueError):
        pass  # no device: no pull-in to draw around
    else:
        v_pi = pull_in_voltage_closed_form(device.mechanics, device.geometry).pull_in_voltage_V
        volts = st.one_of(VOLTS, st.sampled_from(floats_around(v_pi, 3)).map(repr))
    curve = ["curve", f"--vmax={draw(volts)}", f"--points={draw(POINTS)}"]
    fatigue = ["fatigue", f"--va={draw(volts)}"]
    if draw(st.booleans()):
        fatigue.append(f"--strength-v={draw(volts)}")
    return [curve, fatigue]


def _at_or_above_pull_in(config, argv):
    """Whether a voltage flag of argv has no stable equilibrium on config's device: a
    value the device cannot take, which the run reports as exit 3."""
    device = parse_config(json.dumps(config)).device()
    return any(static_equilibrium(float(arg.partition("=")[2]), device.mechanics,
                                  device.geometry) is None
               for arg in argv if arg.startswith(VOLTAGE_FLAGS))


# A points file field that breaks its column's rule, or is no number at all.
FAULTY_POINT_FIELDS = st.sampled_from(["", "x", "nan", "inf", "-inf", "0", "-1", "1.5", "2",
                                       "1e400", "1" + "0" * 400, "5e-324", "14 V"])


@st.composite
def points_files(draw):
    """A Wohler points CSV: valid rows of typical or extreme values, at times a
    header, comments, and rows with a faulty field or column count."""
    levels = st.floats(5.0, 30.0) | st.sampled_from([e for e in EXTREMES if e > 0])
    cycles = st.integers(1, 10**7) | st.sampled_from([1, 10**15, 10**300])
    rows = draw(st.lists(st.tuples(levels.map(repr), cycles.map(str), st.sampled_from("01")),
                         max_size=8))
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        row = list(draw(st.sampled_from(rows))) if rows else ["14", "1000", "0"]
        if draw(st.booleans()):
            row[draw(st.integers(0, 2))] = draw(FAULTY_POINT_FIELDS)
        else:
            row = row[:draw(st.sampled_from([1, 2]))] if draw(st.booleans()) else [*row, "0"]
        lines.insert(draw(st.integers(0, len(lines))), ",".join(row))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "# comment")
    if draw(st.booleans()):
        lines.insert(0, "level_V,cycles,censored")
    return "\n".join(lines) + "\n"


def _reject_constant(name):
    raise ValueError(f"not valid JSON: {name}")


class ExampleTimeout(Exception):
    """Raised in a fuzz example that runs past EXAMPLE_SECONDS; the CLI catches no such error."""


def _expire(signum, frame):
    raise ExampleTimeout(f"example ran past {EXAMPLE_SECONDS} s")


@given(config=json_configs(), points=points_files(), data=st.data())
@example(config={"campaign": {"master_seed": 0, "step_V": 1.7e308}},
         points=DEFAULT_WOHLER_POINTS, data=None)
@example(config=OVERFLOWING_WINDOW, points=DEFAULT_WOHLER_POINTS, data=None)
@example(config=OVERFLOWING_READINGS, points=DEFAULT_WOHLER_POINTS, data=None)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_any_json_config_runs_or_names_its_fault(config, points, data):
    flag_argvs = data.draw(flag_commands(config)) if data else []  # an @example draws none
    assume_fuzz_bounds(config)

    # Exit 3 is a result of the run only when the sequences admit no estimate.
    estimation_failed = []

    def recording(estimator):
        def estimate(*args):
            try:
                return estimator(*args)
            except EstimationError:
                estimation_failed.append(True)
                raise
        return estimate

    estimators = {name: recording(getattr(stats, name))
                  for name in ("dixon_mood", "estimator_recovery_trial", "fit_basquin")}
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, EXAMPLE_SECONDS)
    try:
        with tempfile.TemporaryDirectory() as tmp, mock.patch.multiple(stats, **estimators):
            cfg = Path(tmp) / "config.json"
            cfg.write_text(json.dumps(config))
            csv = Path(tmp) / "points.csv"
            csv.write_text(points)
            wohler = ["wohler", "--points-csv", str(csv)]
            for argv in (*FUZZED_COMMANDS, *flag_argvs, wohler):
                estimation_failed.clear()
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = cli_dispatch(["--config", str(cfg), "--out", str(Path(tmp) / "out"),
                                         *argv])
                assert code in (0, 1, 2) or (code == 3 and (
                    estimation_failed or _at_or_above_pull_in(config, argv))), \
                    (argv, code, config, points)
                assert code != 1 or argv in flag_argvs, (argv, code, config)
                if code == 0 and stdout.getvalue().startswith("{"):
                    json.loads(stdout.getvalue(), parse_constant=_reject_constant)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@given(config=valid_json_configs())
@example({"campaign": {"strengths_V": [30.0, 0.05, 13.0, 13.0, 13.0, 13.0]}})
@example({"campaign": {"levels_V": [13.0], "start_level_V": 13.0,
                       "strengths_V": [20, 20, 1, 1, 20, 1]}})
@example({"model": {"detection_interval_cycles": 1000},
          "campaign": {"strengths_V": [12.0, 12.0, 25.0, 12.0, 12.0, 12.0]}})
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
def test_staircase_notes_each_campaign_event_once_on_stderr(config):
    assume_fuzz_bounds(config)
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(config))
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_dispatch(["--config", str(cfg), "--out", str(out), "staircase"])
        assume(code == 0)
        artifacts = [p.read_text() for p in sorted(out.iterdir())]
    events = reference.campaign_events(parse_config(json.dumps(config)),
                                       json.loads(stdout.getvalue()))
    assert stderr.getvalue() == "".join(f"note: {event}\n" for event in events)
    assert not [event for event in events for text in [*artifacts, stdout.getvalue()]
                if event in text]


# Each fast internal of the staircase, fatigue and curve builders, and its reference.
REFERENCE_PATHS = {
    "protocols.population_thresholds": reference.reference_thresholds,
    "protocols.specimens_from_thresholds": reference.reference_specimens,
    "protocols.run_stair_case": reference.reference_stair_case,
    "protocols.run_fatigue_test": reference.reference_fatigue_run,
    "electromech.stress_conversion_curve": reference.per_point_curve,
    "cli.dump_json": reference.json_text,
    "cli.serialize_config": reference.asdict_dump,
}


@given(config=valid_json_configs(), vmax=st.floats(0.0, 1.05), points=st.integers(2, 200),
       va=st.floats(0.0, 1.0), strength_v=st.none() | st.floats(0.0, 1.0))
@example(config={"model": {"detection_interval_cycles": 1000}}, vmax=0.9, points=200, va=0.55,
         strength_v=None)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_builders_equal_their_reference_paths(config, vmax, points, va, strength_v):
    # Voltages are drawn as fractions of the device's closed-form pull-in.
    assume_fuzz_bounds(config)
    try:
        parsed = parse_config(json.dumps(config))
        device = parsed.device()
    except (ConfigError, ValueError):
        assume(False)
    v_pi = pull_in_voltage_closed_form(device.mechanics, device.geometry).pull_in_voltage_V
    builds = [(build_staircase, {}),
              (build_fatigue, {"va": va * v_pi, "strength_v": None if strength_v is None
                               else max(MIN_THRESHOLD_V, strength_v * v_pi)}),
              (build_curve, {"vmax": vmax * v_pi, "points": points})]
    fast = [reference.result_or_fault(lambda: build(parsed, "out", **flags))
            for build, flags in builds]
    with contextlib.ExitStack() as stack:
        for name, slow in REFERENCE_PATHS.items():
            stack.enter_context(mock.patch(f"microfatigue.{name}", slow))
        assert [reference.result_or_fault(lambda: build(parsed, "out", **flags))
                for build, flags in builds] == fast

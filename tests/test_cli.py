import json

import pytest

from microfatigue.cli import cli_dispatch

TABLE_CONFIG = {
    "campaign": {"strengths_V": [14.5, 13.5, 13.2, 13.5, 12.8, 12.5]},
}


def run_cli(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_curve_rejects_vmax_above_pull_in(capsys):
    code, _, err = run_cli(capsys, "curve", "--vmax", "30")
    assert code == 3


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


def test_missing_config_file_exit_2(capsys):
    code, _, _ = run_cli(capsys, "--config", "/nonexistent/config.json", "pullin")
    assert code == 2


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


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MICROFATIGUE_SEED", "77")
    out_env = tmp_path / "env"
    code, _, _ = run_cli(capsys, "--out", str(out_env), "staircase")
    assert code == 0
    out_flag = tmp_path / "flag"
    code, _, _ = run_cli(capsys, "--seed", "77", "--out", str(out_flag), "staircase")
    assert code == 0
    assert (out_env / "staircase_sequence.csv").read_bytes() == \
        (out_flag / "staircase_sequence.csv").read_bytes()


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


def test_recovery_summary(capsys):
    code, out, _ = run_cli(capsys, "--seed", "42", "recovery",
                           "--replications", "50")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["mean_bias_V"]) < 0.3
    assert payload["valid_replications"] > 0

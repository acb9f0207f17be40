"""Command-line surface tying the virtual fatigue rig together.

Exit codes: 0 success, 1 usage error, 2 configuration error,
3 runtime/solver error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import electromech, protocols, stats
from .config import default_config, parse_config, serialize_config
from .damage import DamageState, SpecimenStrength
from .emit import (TOOL_STAMP, dump_json, emit_conversion_curve, emit_fatigue_run,
                   emit_staircase_sequence, emit_wohler_points, estimate_to_dict,
                   fit_to_dict, parse_wohler_points, wohler_points_from_records)
from .errors import ConfigError, MicrofatigueError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

SEED_ENV_VAR = "MICROFATIGUE_SEED"


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _number(kind, low=-math.inf):
    """argparse type: a finite ``kind`` (int or float) >= low."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and value >= low):
            bound = f" >= {low}" if low > -math.inf else ""
            raise argparse.ArgumentTypeError(
                f"expected a finite {kind.__name__}{bound}, got {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="microfatigue",
                     description="Virtual MEMS fatigue rig: pull-in physics, "
                                 "fatigue runs and stair-case statistics.")
    parser.add_argument("--config", type=Path, help="JSON run-config file")
    parser.add_argument("--seed", type=_number(int, 0),
                        help=f"campaign master seed (fallback: ${SEED_ENV_VAR})")
    parser.add_argument("--out", type=Path, help="output directory")
    parser.add_argument("--show-defaults", action="store_true",
                        help="print the fully resolved default config and exit")

    sub = parser.add_subparsers(dest="command")

    sub.add_parser("pullin", help="pristine pull-in voltage, closed form and sweep")

    p_curve = sub.add_parser("curve", help="voltage-to-stress conversion curve CSV")
    p_curve.add_argument("--vmax", type=float, default=20.0)
    p_curve.add_argument("--points", type=int, default=41)

    p_fat = sub.add_parser("fatigue", help="one constant-amplitude fatigue run")
    p_fat.add_argument("--va", type=float, required=True, help="drive amplitude (V)")
    p_fat.add_argument("--strength-v", type=float,
                       help="specimen threshold strength in volts (default: calibration target)")

    sub.add_parser("staircase", help="stair-case campaign with estimate JSON")

    p_woh = sub.add_parser("wohler", help="Basquin fit from a Wohler points CSV")
    p_woh.add_argument("--points-csv", type=Path, required=True,
                       help="CSV with level_V,cycles,censored (e.g. the staircase output)")

    p_rec = sub.add_parser("recovery", help="Dixon-Mood estimator validation trials")
    p_rec.add_argument("--true-mean", type=_number(float), default=13.0)
    p_rec.add_argument("--true-std", type=_number(float, 0.0), default=0.55)
    p_rec.add_argument("--n-specimens", type=_number(int, 1), default=6)
    p_rec.add_argument("--replications", type=_number(int, 1), default=200)

    return parser


def _load_config(args):
    if args.config is not None:
        config = parse_config(Path(args.config).read_text())
    else:
        config = default_config()
    seed = args.seed
    if seed is None and os.environ.get(SEED_ENV_VAR):
        try:
            seed = _number(int, 0)(os.environ[SEED_ENV_VAR])
        except argparse.ArgumentTypeError as exc:
            raise ConfigError([(SEED_ENV_VAR, str(exc))]) from None
    if seed is not None:
        from dataclasses import replace
        config = replace(config, campaign=replace(config.campaign, master_seed=seed))
    return config


def _out_dir(args, config) -> Path:
    out = args.out if args.out is not None else Path(config.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_pullin(args, config) -> int:
    device = config.device()
    closed = electromech.pull_in_voltage_closed_form(device.mechanics, device.geometry)
    sweep = electromech.pull_in_voltage_sweep(device.mechanics, device.geometry,
                                             step_V=config.model.sweep_step_V)
    print(dump_json({
        "closed_form_V": closed.pull_in_voltage_V,
        "sweep_V": sweep.pull_in_voltage_V,
        "deflection_at_instability_um": sweep.deflection_at_instability_m * 1e6,
        "gap_thirds_um": device.geometry.gap_um / 3.0,
        "tool": TOOL_STAMP,
    }), end="")
    return EXIT_OK


def _cmd_curve(args, config) -> int:
    device = config.device()
    points = electromech.stress_conversion_curve(device.mechanics, device.geometry,
                                                 V_max=args.vmax, n_points=args.points)
    text = emit_conversion_curve(points)
    if args.out is not None:
        out = _out_dir(args, config)
        (out / "conversion_curve.csv").write_text(text)
        print(f"wrote {out / 'conversion_curve.csv'}")
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_fatigue(args, config) -> int:
    device = config.device()
    params = config.damage_params(device)
    threshold = args.strength_v if args.strength_v is not None \
        else config.damage.calibrate_target_V_D
    specimen = SpecimenStrength(
        protocols.strength_scale_from_threshold(threshold, device, params))
    record = protocols.run_fatigue_test(args.va, specimen, device, params,
                                        **config.model.run_kwargs())
    out = _out_dir(args, config)
    path = out / "fatigue_run.csv"
    path.write_text(emit_fatigue_run(record))
    print(dump_json({
        "drive_amplitude_V": record.drive_amplitude_V,
        "outcome": record.outcome,
        "final_cycles": record.detections[-1][0],
        "final_pullin_V": record.detections[-1][1],
        "csv": str(path),
        "tool": TOOL_STAMP,
    }), end="")
    return EXIT_OK


def _cmd_staircase(args, config) -> int:
    device = config.device()
    params = config.damage_params(device)
    config.check_campaign(device)
    camp = config.campaign
    population = protocols.build_population(
        camp.master_seed, camp.strength_mean_V, camp.strength_std_V,
        camp.n_specimens, device, params,
        thresholds_V=list(camp.strengths_V) if camp.strengths_V else None)
    sequence, records = protocols.run_stair_case(
        list(camp.levels_V), camp.step_V, camp.start_level_V,
        camp.n_specimens, population, device, params, **config.model.run_kwargs())
    estimate = stats.dixon_mood(sequence)

    out = _out_dir(args, config)
    (out / "config_echo.json").write_text(serialize_config(config))
    (out / "staircase_sequence.csv").write_text(emit_staircase_sequence(sequence))
    for record, trial in zip(records, sequence.trials):
        (out / f"run_{trial.specimen_id:02d}.csv").write_text(emit_fatigue_run(record))
    points = wohler_points_from_records(records)
    (out / "wohler_points.csv").write_text(emit_wohler_points(points))
    summary = {
        "estimate": estimate_to_dict(estimate),
        "estimator_convention": "Dixon-Mood over the less frequent outcome; "
                                "0.53*step dispersion fallback below validity ratio 0.3",
        "trials": [{"specimen_id": t.specimen_id, "level_V": t.level_V,
                    "outcome": 1 if t.failure else 0} for t in sequence.trials],
        "run_outcomes": [r.outcome for r in records],
        "master_seed": camp.master_seed,
        "tool": TOOL_STAMP,
    }
    (out / "staircase_estimate.json").write_text(dump_json(summary))
    print(dump_json(summary), end="")
    return EXIT_OK


def _cmd_wohler(args, config) -> int:
    points = parse_wohler_points(Path(args.points_csv).read_text())
    fit = stats.fit_basquin(points)
    payload = {**fit_to_dict(fit), "n_points": len(points),
               "n_censored": sum(p.censored for p in points), "tool": TOOL_STAMP}
    if args.out is not None:
        out = _out_dir(args, config)
        (out / "basquin_fit.json").write_text(dump_json(payload))
    print(dump_json(payload), end="")
    return EXIT_OK


def _cmd_recovery(args, config) -> int:
    seed = config.campaign.master_seed
    summary = stats.estimator_recovery_trial(
        args.true_mean, args.true_std, args.n_specimens, args.replications, seed)
    print(dump_json({**summary, "seed": seed, "tool": TOOL_STAMP}), end="")
    return EXIT_OK


_COMMANDS = {
    "pullin": _cmd_pullin,
    "curve": _cmd_curve,
    "fatigue": _cmd_fatigue,
    "staircase": _cmd_staircase,
    "wohler": _cmd_wohler,
    "recovery": _cmd_recovery,
}


def cli_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _load_config(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.show_defaults:
        print(serialize_config(default_config()), end="")
        return EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MicrofatigueError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    raise SystemExit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

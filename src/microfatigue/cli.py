"""Command-line surface tying the virtual fatigue rig together.

Exit codes: 0 success, 1 usage error, 2 configuration error,
3 runtime/solver error.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

from . import electromech, protocols, stats
from .config import _located, default_config, parse_config, serialize_config
from .damage import SpecimenStrength
from .emit import (TOOL_STAMP, dump_json, emit_conversion_curve, emit_fatigue_run,
                   emit_staircase_sequence, emit_wohler_points, estimate_to_dict,
                   fit_to_dict, parse_wohler_points, wohler_points_from_records)
from .errors import SHOWN_CHARS, ConfigError, MicrofatigueError, shown

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is 1. The message may echo
    # an argument (a flag's value, a subcommand, an unrecognized argument): each run of
    # more than SHOWN_CHARS characters without whitespace is shown as ``shown`` does.
    def error(self, message):
        self.print_usage(sys.stderr)
        message = re.sub(rf"\S{{{SHOWN_CHARS + 1},}}", lambda run: shown(run[0]), message)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _number(kind: type, low: float, high: float = math.inf):
    """argparse type: a finite int or float (kind) within [low, high]."""
    noun, spec = ("an integer", "d") if kind is int else ("a finite number", "g")
    rule = f"in [{low:{spec}}, {high:{spec}}]" if high < math.inf else f">= {low:{spec}}"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        # NaN fails the comparison; an int is never infinite, and never overflows here.
        if value is None or not low <= value <= high or abs(value) == math.inf:
            raise argparse.ArgumentTypeError(f"expected {noun} {rule}, got {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="microfatigue",
                     description="Virtual MEMS fatigue rig: pull-in physics, "
                                 "fatigue runs and stair-case statistics.")
    parser.add_argument("--config", help="JSON run-config file")
    parser.add_argument("--seed", type=_number(int, 0),
                        help="campaign master seed (overrides campaign.master_seed)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--show-defaults", action="store_true",
                        help="print the fully resolved default config and exit")

    sub = parser.add_subparsers(dest="command")

    sub.add_parser("pullin", help="pristine pull-in voltage, closed form and sweep")

    p_curve = sub.add_parser("curve", help="voltage-to-stress conversion curve CSV")
    p_curve.add_argument("--vmax", type=_number(float, 0.0), default=20.0,
                         help="top of the curve (V), below pull-in")
    p_curve.add_argument("--points", default=electromech.DEFAULT_CURVE_POINTS, type=_number(
        int, electromech.MIN_CURVE_POINTS, electromech.MAX_CURVE_POINTS))

    p_fat = sub.add_parser("fatigue", help="one constant-amplitude fatigue run")
    p_fat.add_argument("--va", type=_number(float, 0.0), required=True,
                       help="drive amplitude (V), below pull-in")
    p_fat.add_argument("--strength-v", type=_number(float, protocols.MIN_THRESHOLD_V),
                       help="specimen threshold strength in volts (default: calibration target)")

    sub.add_parser("staircase", help="stair-case campaign with estimate JSON")

    p_woh = sub.add_parser("wohler", help="Basquin fit from a Wohler points CSV")
    p_woh.add_argument("--points-csv", required=True,
                       help="CSV with level_V,cycles,censored (e.g. the staircase output)")

    p_rec = sub.add_parser("recovery", help="Dixon-Mood estimator validation trials "
                                            "on the campaign's strength population")
    p_rec.add_argument("--replications", default=200, type=_number(
        int, stats.MIN_REPLICATIONS, stats.MAX_REPLICATIONS))

    return parser


def _fault(exc: Exception) -> str:
    """The text of a file fault: an OSError's file name shown bounded, and the
    RecursionError of os.makedirs as the depth that caused it."""
    if isinstance(exc, RecursionError):
        return "too many missing directories to make"
    if isinstance(exc, OSError) and exc.filename is not None:
        return f"[Errno {exc.errno}] {exc.strerror}: {shown(repr(exc.filename))}"
    return str(exc)


def _read(path: str, flag: str) -> str:
    """The text of the file at path, given by flag; a fault is a ConfigError naming flag."""
    try:
        with open(path) as file:
            return file.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or bytes not text
        raise ConfigError([(flag, _fault(exc))]) from exc


def _load_config(args):
    config = (parse_config(_read(args.config, "--config")) if args.config is not None
              else default_config())
    return config if args.seed is None else config.with_seed(args.seed)


def _directory(out, config) -> str:
    return out if out is not None else config.output.directory


def _write(files: dict[str, str], out, config) -> None:
    """Write files under out, else config.output.directory; a fault names that setting."""
    directory = _directory(out, config)
    try:
        if directory:  # "" is the cwd, which os.makedirs refuses
            os.makedirs(directory, exist_ok=True)
        for name, text in files.items():
            with open(os.path.join(directory, name), "w") as file:
                file.write(text)
    # ValueError: a NUL in the path; RecursionError: os.makedirs recurses once per
    # missing directory, so a path of about 1 000 of them or more runs out of stack.
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError([("--out" if out is not None else "output.directory",
                            _fault(exc))]) from exc


# Each build_* returns (files, stdout, notes): each file's text by name, in write order,
# the stdout text, and the lines for stderr (the campaign notes of staircase, else none).
# out is the --out path or None; the keywords are the argparse dests.
def build_pullin(config, out) -> tuple[dict[str, str], str, list[str]]:
    device = config.device()
    sweep = electromech.pull_in_voltage_sweep(device.mechanics, device.geometry,
                                             step_V=config.model.sweep_step_V)
    closed = electromech.pull_in_voltage_closed_form(device.mechanics, device.geometry)
    return {}, dump_json({
        "closed_form_V": closed.pull_in_voltage_V,
        "sweep_V": sweep.pull_in_voltage_V,
        "deflection_at_instability_um": sweep.deflection_at_instability_m * 1e6,
        "gap_thirds_um": device.geometry.gap_um / 3.0,
        "tool": TOOL_STAMP,
    }), []


def build_curve(config, out, vmax, points) -> tuple[dict[str, str], str, list[str]]:
    device = config.device()
    try:
        curve = electromech.stress_conversion_curve(device.mechanics, device.geometry,
                                                    V_max=vmax, n_points=points)
    except ValueError as exc:  # --points is bounded by argparse; only --vmax is left
        raise ValueError(f"--vmax: {exc}") from exc
    text = emit_conversion_curve(curve)
    if out is None:
        return {}, text, []
    return ({"conversion_curve.csv": text},
            f"wrote {os.path.join(out, 'conversion_curve.csv')}\n", [])


def build_fatigue(config, out, va, strength_v) -> tuple[dict[str, str], str, list[str]]:
    device = config.device()
    params = config.damage_params(device)
    threshold = strength_v if strength_v is not None else config.damage.calibrate_target_V_D
    try:
        specimen = SpecimenStrength(
            protocols.strength_scale_from_threshold(threshold, device, params))
    except ValueError as exc:
        if strength_v is not None:
            raise ValueError(f"--strength-v: {exc}") from exc
        # The calibration target, which explicit damage parameters leave unchecked.
        raise ConfigError([("damage.calibrate_target_V_D", str(exc))]) from exc
    try:
        record = protocols.run_fatigue_test(va, specimen, device, params,
                                            **config.model.run_kwargs())
    except ValueError as exc:  # the config checks every run setting but the amplitude
        raise ValueError(f"--va: {exc}") from exc
    return {"fatigue_run.csv": emit_fatigue_run(record)}, dump_json({
        "drive_amplitude_V": record.drive_amplitude_V,
        "outcome": record.outcome,
        "final_cycles": record.final_cycles,
        "final_pullin_V": record.values[-1],
        "csv": os.path.join(_directory(out, config), "fatigue_run.csv"),
        "tool": TOOL_STAMP,
    }), []


def build_staircase(config, out) -> tuple[dict[str, str], str, list[str]]:
    device = config.device()
    params = config.damage_params(device)
    config.check_campaign(device)
    camp = config.campaign
    thresholds = protocols.population_thresholds(
        camp.master_seed, camp.strength_mean_V, camp.strength_std_V, camp.n_specimens,
        device, strengths_V=camp.strengths_V)
    population = protocols.specimens_from_thresholds(
        [clamped for _, clamped in thresholds], device, params)
    sequence, records = protocols.run_stair_case(
        list(camp.levels_V), camp.step_V, camp.start_level_V,
        camp.n_specimens, population, device, params, **config.model.run_kwargs())
    estimate = stats.dixon_mood(sequence)

    files = {"config_echo.json": serialize_config(config),
             "staircase_sequence.csv": emit_staircase_sequence(sequence)}
    for record, trial in zip(records, sequence.trials):
        files[f"run_{trial.specimen_id:02d}.csv"] = emit_fatigue_run(record)
    files["wohler_points.csv"] = emit_wohler_points(wohler_points_from_records(records))
    files["staircase_estimate.json"] = text = dump_json({
        "estimate": estimate_to_dict(estimate),
        "estimator_convention": "Dixon-Mood over the less frequent outcome; "
                                f"{stats.DISPERSION_FALLBACK_FACTOR:g}*step dispersion fallback "
                                f"below validity ratio {stats.DISPERSION_VALIDITY_RATIO:g}",
        "trials": [{"specimen_id": t.specimen_id, "level_V": t.level_V,
                    "outcome": 1 if t.failure else 0} for t in sequence.trials],
        "run_outcomes": [r.outcome for r in records],
        "master_seed": camp.master_seed,
        "tool": TOOL_STAMP,
    })
    return files, text, protocols.campaign_notes(thresholds, sequence, records)


def build_wohler(config, out, points_csv) -> tuple[dict[str, str], str, list[str]]:
    csv = _read(points_csv, "--points-csv")
    try:
        points = parse_wohler_points(csv)
    except ValueError as exc:
        raise ConfigError([("--points-csv", str(exc))]) from exc
    fit = stats.fit_basquin(points)
    text = dump_json({**fit_to_dict(fit), "n_points": len(points),
                      "n_censored": sum(p.censored for p in points), "tool": TOOL_STAMP})
    return ({"basquin_fit.json": text} if out is not None else {}), text, []


def build_recovery(config, out, replications) -> tuple[dict[str, str], str, list[str]]:
    config.check_campaign(config.device())
    camp = config.campaign
    try:  # float(): a config may spell the mean and spread as ints; the summary prints floats
        summary = stats.estimator_recovery_trial(
            float(camp.strength_mean_V), float(camp.strength_std_V), camp.n_specimens,
            replications, camp.master_seed, camp.levels_V, camp.step_V, camp.start_level_V)
    except ValueError as exc:  # the config checks all but the walk and float-range bounds
        raise ConfigError(_located("campaign", str(exc).split("; "))) from exc
    return {}, dump_json({**summary, "seed": camp.master_seed, "tool": TOOL_STAMP}), []


_COMMANDS = {
    "pullin": build_pullin,
    "curve": build_curve,
    "fatigue": build_fatigue,
    "staircase": build_staircase,
    "wohler": build_wohler,
    "recovery": build_recovery,
}
# The top-level dests of the parser; every other dest is a subcommand flag.
_GLOBAL_DESTS = ("config", "seed", "out", "show_defaults", "command")


def cli_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.show_defaults:
        print(serialize_config(default_config()), end="")
        return EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    flags = {k: v for k, v in vars(args).items() if k not in _GLOBAL_DESTS}
    try:
        files, stdout, notes = _COMMANDS[args.command](config, args.out, **flags)
        if files:
            _write(files, args.out, config)
        print(stdout, end="")
        for note in notes:
            print(f"note: {note}", file=sys.stderr)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MicrofatigueError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def main() -> None:
    raise SystemExit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

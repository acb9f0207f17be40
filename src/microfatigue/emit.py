"""Deterministic serialization of results: CSV curve/run artifacts and JSON
summaries, byte-identical on repeated emission. CSV numbers use
locale-independent 6-significant-digit formatting (``%.6g``); JSON numbers
are written as ``json`` writes them, floats by ``repr``.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .electromech import EquilibriumPoint
from .protocols import OUTCOME_FAILED, OUTCOME_SURVIVED, FatigueRunRecord, StairCaseSequence
from .stats import BasquinFit, StairCaseEstimate, WohlerPoint

TOOL_STAMP = f"microfatigue {__version__}"


def _num(x: float) -> str:
    return "%.6g" % x


def emit_fatigue_run(record: FatigueRunRecord) -> str:
    parts = [f"# drive_amplitude_V={_num(record.drive_amplitude_V)} "
             f"outcome={record.outcome} reference_cycles={record.reference_cycles}\n"
             "load_cycles,pullin_V\n"]
    append = parts.append
    # A run repeats each reading over consecutive rows: format a row's tail only
    # when its reading differs from the row before. Zero is always formatted,
    # since 0.0 == -0.0 but "0" != "-0"; NaN re-formats, since NaN != NaN.
    last = tail = None
    for cycles, v in record.detections:
        if v != last or not v:
            last, tail = v, f",{_num(v)}\n"
        append(str(cycles))
        append(tail)
    return "".join(parts)


def emit_conversion_curve(points: list[EquilibriumPoint]) -> str:
    flat = [f for v, d, s in points for f in (v, d * 1e6, s * 1e-6)]
    return ("voltage_V,deflection_um,stress_MPa\n"
            + ("%.6g,%.6g,%.6g\n" * len(points)) % tuple(flat))


def emit_staircase_sequence(seq: StairCaseSequence) -> str:
    lines = [
        f"# step_V={_num(seq.step_V)} levels_V={';'.join(_num(v) for v in seq.levels_V)}",
        "specimen_id,level_V,outcome",
    ]
    for t in seq.trials:
        lines.append(f"{t.specimen_id},{_num(t.level_V)},{1 if t.failure else 0}")
    return "\n".join(lines) + "\n"


# The columns of a Wohler points CSV: name, rule, and the check of the field's float value.
_WOHLER_COLUMNS = (
    ("level_V", "a finite number > 0", lambda v: 0 < v < math.inf),
    ("cycles", "a whole number >= 1", lambda v: v.is_integer() and v >= 1),
    ("censored", "0 or 1", lambda v: v in (0.0, 1.0)),
)
_WOHLER_HEADER = ",".join(name for name, _, _ in _WOHLER_COLUMNS)


def emit_wohler_points(points: list[WohlerPoint]) -> str:
    lines = [_WOHLER_HEADER]
    for p in points:
        lines.append(f"{_num(p.level_V)},{p.cycles},{1 if p.censored else 0}")
    return "\n".join(lines) + "\n"


def parse_wohler_points(text: str) -> list[WohlerPoint]:
    """Points of a level_V,cycles,censored CSV, skipping blank lines, '#'
    comments and a leading header. Raises ValueError naming the line number
    and column of the first field that breaks its rule in _WOHLER_COLUMNS,
    or the line of a row without exactly 3 columns."""
    lines = [(number, line) for number, line in enumerate(text.splitlines(), 1)
             if line.strip() and not line.startswith("#")]
    if lines and lines[0][1] == _WOHLER_HEADER:
        lines = lines[1:]
    points = []
    for number, line in lines:
        fields = line.split(",")
        if len(fields) != len(_WOHLER_COLUMNS):
            raise ValueError(f"line {number}: expected the {len(_WOHLER_COLUMNS)} columns "
                             f"{_WOHLER_HEADER}, got {len(fields)}")
        values = []
        for (name, rule, ok), field in zip(_WOHLER_COLUMNS, fields):
            try:
                value = float(field)
            except ValueError:
                value = math.nan
            if not ok(value):
                raise ValueError(f"line {number}, column {name}: expected {rule}, got {field!r}")
            values.append(value)
        level, cycles, censored = values
        points.append(WohlerPoint(level_V=level, cycles=int(cycles), censored=bool(censored)))
    return points


def estimate_to_dict(est: StairCaseEstimate) -> dict:
    return {
        "mean_V": est.mean_V,
        "std_V": est.std_V,
        "q10_V": est.quantile_10_V,
        "q90_V": est.quantile_90_V,
        "basis_event": est.basis_event,
        "dispersion_valid": est.dispersion_formula_valid,
    }


def fit_to_dict(fit: BasquinFit) -> dict:
    return fit._asdict()


# json's spellings of the floats that repr writes as nan, inf and -inf.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


# The JSON text of each scalar type, looked up by exact type.
_SCALARS = {str: _quote, float: _float_text, int: int.__repr__,
            bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null"}


def _json_text(value, indent: str) -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) writes it, nested
    at indent; a non-str key or a value of another type raises TypeError.
    A container writes its scalar items without calling back into here."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key in sorted(value):
            item = value[key]
            scalar = _SCALARS.get(type(item))
            items.append(f"{inner}{_quote(key)}: "
                         f"{scalar(item) if scalar else _json_text(item, inner)}")
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = []
        for item in value:
            scalar = _SCALARS.get(type(item))
            items.append(inner + (scalar(item) if scalar else _json_text(item, inner)))
        return "[\n" + ",\n".join(items) + "\n" + indent + "]"
    for kind in (str, float, int):  # a subclass, such as an IntEnum
        if isinstance(value, kind):
            return _SCALARS[kind](value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dump_json(payload: dict) -> str:
    """The bytes of json.dumps(payload, indent=2, sort_keys=True) + "\\n", written
    here because json's C encoder does not run when indent is set."""
    return _json_text(payload, "") + "\n"


def wohler_points_from_records(records: list[FatigueRunRecord]) -> list[WohlerPoint]:
    """S-N points from fatigue runs: failures carry their failure cycle count,
    survivors the reference count as censored run-outs; invalid runs are dropped.
    """
    points = []
    for r in records:
        if r.outcome == OUTCOME_FAILED:
            points.append(WohlerPoint(level_V=r.drive_amplitude_V,
                                      cycles=r.detections[-1][0], censored=False))
        elif r.outcome == OUTCOME_SURVIVED:
            points.append(WohlerPoint(level_V=r.drive_amplitude_V,
                                      cycles=r.reference_cycles, censored=True))
    return points

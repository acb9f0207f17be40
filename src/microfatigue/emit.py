"""Deterministic serialization of results: CSV curve/run artifacts and JSON
summaries, byte-identical on repeated emission. CSV numbers use
locale-independent 6-significant-digit formatting (``%.6g``); JSON numbers
are written as ``json`` writes them, floats by ``repr``.

A run CSV takes its load-count texts from the grid of its own interval and
reference: the text of ``min(j*interval, reference)`` for every detection a run
on that grid can make, the last grid written kept for the next record. It holds
at most ``protocols.MAX_DETECTIONS + 1`` texts: about 130 KB for a
2 000-detection run at a 1 000-cycle interval, about 6.5 MB at the bound.
Each non-zero reading's row tail comes from a memo shared across records, as
runs read the same values of their detection grid: it holds at most 1 024
texts, about 150 KB when first full and about 190 KB once it evicts
(``tracemalloc``). Zero is formatted in place, so ``-0.0`` keeps its sign.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter, index

from . import __version__
from .electromech import EquilibriumPoint
from .protocols import (OUTCOME_FAILED, OUTCOME_SURVIVED, FatigueRunRecord, StairCaseSequence,
                        _checked_settings)
from .stats import BasquinFit, StairCaseEstimate, WohlerPoint

TOOL_STAMP = f"microfatigue {__version__}"


def _num(x: float) -> str:
    return "%.6g" % x


@functools.lru_cache(maxsize=1)
def _count_texts(interval: int, reference: int) -> tuple[str, ...]:
    """str(min(j*interval, reference)) for each detection j a run on this grid can
    make; a grid that no run can have raises the run-settings ValueError."""
    _checked_settings(detection_interval=interval, reference_cycles=reference)
    reference = int(reference)
    return (*map(str, range(0, reference, interval)), str(reference))


@functools.lru_cache(maxsize=1024)
def _reading_text(v: float) -> str:
    """The row tail of a non-zero reading, shared across records."""
    return f",{_num(v)}\n"


def emit_fatigue_run(record: FatigueRunRecord) -> str:
    # index: a float interval must fail as range fails, not take the texts of the
    # equal int, which the cache would find under the same key.
    counts = _count_texts(index(record.detection_interval), record.reference_cycles)
    readings = record.readings
    n = len(readings)
    if not 0 < n <= len(counts):
        raise ValueError(f"readings: a run record holds 1 to {len(counts)} readings on its "
                         f"grid, got {n}")
    # A run repeats each reading over consecutive rows: take a row's tail afresh only
    # when its reading differs from the row before. Zero is formatted in place, since
    # 0.0 == -0.0 but "0" != "-0", so no zero is a memo key; NaN != NaN, so a NaN is
    # looked up each row, and finds only the entry of its own object.
    tails = []
    append = tails.append
    last = tail = None
    for v in readings:
        if v != last or not v:
            last = v
            tail = _reading_text(v) if v else f",{_num(v)}\n"
        append(tail)
    # The header, then each count followed by its row's tail.
    rows = [f"# drive_amplitude_V={_num(record.drive_amplitude_V)} "
            f"outcome={record.outcome} reference_cycles={record.reference_cycles}\n"
            "load_cycles,pullin_V\n"] * (2 * n + 1)
    rows[1::2] = counts[:n]
    rows[2::2] = tails
    return "".join(rows)


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
    return est._asdict()


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


# A leaf of a writer's shape while its template is laid out: _quote writes it as
# "\u0000", which no key of a shape writes.
_SLOT = "\0"


def attribute_writer(shape: dict) -> Callable[[object], str]:
    """The writer of dump_json's text for objects read into a payload of this shape:
    each leaf of shape is the dotted attribute path (operator.attrgetter) of its
    value, two leaves or more. The keys and layout are written once, here, as a
    %-format template; a call writes each value as _json_text does at its depth."""
    paths, indents = [], []

    def slotted(node: dict, indent: str) -> dict:  # the leaves in the order dump_json writes them
        inner = indent + "  "
        out = {}
        for key in sorted(node):
            if isinstance(node[key], dict):
                out[key] = slotted(node[key], inner)
            else:
                paths.append(node[key])
                indents.append(inner)
                out[key] = _SLOT
        return out

    template = dump_json(slotted(shape, "")).replace("%", "%%").replace(_quote(_SLOT), "%s")
    if len(paths) < 2:
        raise ValueError(f"a writer reads two leaves or more, got {len(paths)}")
    read = attrgetter(*paths)

    def write(obj) -> str:
        return template % tuple(map(_json_text, read(obj), indents))
    return write


def wohler_points_from_records(records: list[FatigueRunRecord]) -> list[WohlerPoint]:
    """S-N points from fatigue runs: failures carry their failure cycle count,
    survivors the reference count as censored run-outs; invalid runs are dropped.
    """
    points = []
    for r in records:
        if r.outcome == OUTCOME_FAILED:
            points.append(WohlerPoint(level_V=r.drive_amplitude_V,
                                      cycles=r.final_cycles, censored=False))
        elif r.outcome == OUTCOME_SURVIVED:
            points.append(WohlerPoint(level_V=r.drive_amplitude_V,
                                      cycles=r.reference_cycles, censored=True))
    return points

import dataclasses
import enum
import importlib
import itertools
import json
import math
import os
import pkgutil
import re
import sys
import tempfile
import threading
import types
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import microfatigue
from microfatigue import config as config_module, emit as emit_module
from microfatigue.cli import build_wohler
from microfatigue.config import (CampaignConfig, DamageConfig, RunConfig, default_config,
                                 parse_config, serialize_config)
from microfatigue.damage import DamageModelParams, SpecimenStrength
from microfatigue.device import DeviceGeometry, Material, derive_mechanics
from microfatigue.electromech import EquilibriumPoint, PullInResult, pull_in_voltage_sweep
from microfatigue.emit import (TOOL_STAMP, attribute_writer, dump_json, emit_conversion_curve,
                               emit_fatigue_run, emit_staircase_sequence, emit_wohler_points, _num,
                               fit_to_dict, parse_wohler_points,
                               wohler_points_from_records)
from microfatigue.errors import (SHOWN_CHARS, SHOWN_FAULTS, ConfigError, EstimationError,
                                 MicrofatigueError)
from microfatigue.loading import FatigueParameters, LoadCycleSpec
from microfatigue.protocols import (DEFAULT_DETECTION_INTERVAL, MAX_DETECTIONS, MAX_SPECIMENS,
                                    FatigueRunRecord, StairCaseSequence, StairCaseTrial,
                                    build_population, run_fatigue_test)
from microfatigue.stats import (BasquinFit, StairCaseEstimate, WohlerPoint,
                                estimator_recovery_trial)
from tests.reference import (PAPER_THRESHOLDS_V, asdict_dump, json_text,
                             reference_emit_fatigue_run, run_record)
from tests.strategies import FIELDS, valid_json_configs


def test_empty_config_gives_nominal_defaults():
    config = parse_config("")
    assert config == default_config()
    assert config.geometry.specimen_length_um == 50.0
    assert config.geometry.gap_um == 3.0
    assert config.material.E_GPa == 98.5
    assert config.damage.calibrate_target_V_D == 13.0
    device = config.device()
    assert device.mechanics.suspension_stiffness_N_m == pytest.approx(45.96, rel=1e-3)


def test_partial_config_overrides():
    config = parse_config(json.dumps({"model": {"c_k": 3.7}}))
    assert config.model.c_k == 3.7
    assert config.geometry == default_config().geometry


def test_negative_gap_reports_path():
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps({"geometry": {"gap_um": -1}}))
    assert any(path == "geometry.gap_um" for path, _ in excinfo.value.problems)


def test_unknown_key_reported():
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps({"geometry": {"gap_nm": 3}}))
    assert any(path == "geometry.gap_nm" for path, _ in excinfo.value.problems)


def test_unknown_section_reported():
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps({"geom": {}}))
    assert any(path == "geom" for path, _ in excinfo.value.problems)


def test_multiple_errors_collected():
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps({"geometry": {"gap_um": -1},
                                 "material": {"nu": 0.7}}))
    paths = {path for path, _ in excinfo.value.problems}
    assert {"geometry.gap_um", "material.nu"} <= paths


@pytest.mark.parametrize("name", ["detection_interval_cycles", "reference_cycles"])
@pytest.mark.parametrize("value", [0.5, 1000.5, float("inf"), float("nan")])
def test_cycle_counts_must_be_whole(name, value):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps({"model": {name: value}}))
    assert [path for path, _ in excinfo.value.problems] == [f"model.{name}"]


def test_whole_float_cycle_counts_accepted():
    config = parse_config(json.dumps({"model": {"detection_interval_cycles": 1e5,
                                                "reference_cycles": 2e6}}))
    assert config.model.detection_interval_cycles == 100_000
    assert config.model.reference_cycles == 2_000_000


def test_invalid_json():
    with pytest.raises(ConfigError):
        parse_config("{not json")


# Texts that json.loads refuses with an exception other than JSONDecodeError: nesting
# past the decoder's recursion (on Python 3.10 to 3.13), whole or in a field, and an
# int past the interpreter's digit limit.
@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,
    '{"campaign": {"levels_V": ' + "[" * 100_000 + "]" * 100_000 + "}}",
    '{"model": {"c_k": 1' + "0" * 4_999 + "}}",
], ids=["nested", "nested-levels", "5000-digit-c_k"])
def test_a_text_json_cannot_decode_is_invalid_json_at_the_root(text):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    [(path, message)] = excinfo.value.problems
    assert path == "<root>" and message.startswith("invalid JSON: ")


# Config text from a JSON-like grammar: keys from the sections and fields or not, so
# that some are given twice; nesting to 10**5, strings to 10**6 characters, ints to
# 10**4 digits, lists of 10**5 strings, objects of 10**5 unknown keys or sections and
# the literals json reads beyond JSON; then a BOM, a lone surrogate or a cut anywhere.
SECTION_KEYS = sorted({section for section, _ in FIELDS})
FIELD_KEYS = sorted({name for _, name in FIELDS})
GRAMMAR_KEYS = st.one_of(st.sampled_from(["", *SECTION_KEYS, *FIELD_KEYS]), st.text(max_size=4),
                         st.integers(1, 10**5).map(lambda n: "k" * n))
GRAMMAR_SCALARS = st.one_of(
    st.sampled_from(["true", "false", "null", "NaN", "Infinity", "-Infinity", "1e999999",
                     "-0", "13.5", "2e5"]),
    st.integers(1, 10**4).map(lambda n: "-" * (n % 2) + "9" * n),
    st.floats().map(json.dumps),
    st.text(max_size=6).map(json.dumps),
    st.tuples(st.characters(), st.integers(0, 10**6)).map(
        lambda p: '"' + json.dumps(p[0])[1:-1] * p[1] + '"'),
    st.integers(1, 10**5).map(lambda d: "[" * d + "]" * d),
    st.integers(1, 10**5).map(lambda n: "[" + ",".join(['"x"'] * n) + "]"),
)


def _json_object(pairs):
    return "{" + ",".join(f"{json.dumps(key)}:{value}" for key, value in pairs) + "}"


GRAMMAR_VALUES = st.recursive(GRAMMAR_SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=3).map(lambda items: "[" + ",".join(items) + "]"),
    st.lists(st.tuples(GRAMMAR_KEYS, children), max_size=3).map(_json_object)), max_leaves=5)
GRAMMAR_UNKNOWN_KEYS = st.integers(1, 10**5).map(
    lambda n: _json_object((f"k{i}", "0") for i in range(n)))
GRAMMAR_SECTIONS = st.lists(st.tuples(
    st.one_of(st.sampled_from(SECTION_KEYS), GRAMMAR_KEYS),
    st.one_of(st.lists(st.tuples(st.one_of(st.sampled_from(FIELD_KEYS), GRAMMAR_KEYS),
                                 GRAMMAR_VALUES), max_size=3).map(_json_object),
              GRAMMAR_UNKNOWN_KEYS, GRAMMAR_VALUES)), max_size=3).map(_json_object)


@st.composite
def config_texts(draw):
    text = draw(st.one_of(GRAMMAR_SECTIONS, GRAMMAR_UNKNOWN_KEYS, GRAMMAR_VALUES))
    at = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(["none", "bom", "surrogate", "cut"]))
    return {"none": text, "bom": "\ufeff" + text, "cut": text[:at],
            "surrogate": text[:at] + "\udcff" + text[at:]}[edit]


# The longest text a fault shows of a key, a value's repr or a whole number: its first
# errors.SHOWN_CHARS characters, then its length, here of at most 8 digits.
SHOWN_MAX = SHOWN_CHARS + len("... (length 12345678)")
# The longest fault: at most two such texts (hole_count's check shows the count and the
# area it covers) in at most 130 characters of its own.
FAULT_CHARS = 130 + 2 * SHOWN_MAX
# The most a grammar text's faults take together: at most three sections of three
# fields, each field's list reporting at most SHOWN_FAULTS item faults and one count.
# An object of unknown keys, as a section or as the root, reports as many: at most
# SHOWN_FAULTS unknown keys or sections and one count.
TEXT_CHARS = 3 * 3 * (SHOWN_FAULTS + 1) * (FAULT_CHARS + len("; "))
# The grammar's largest object of unknown keys, as the root and as a section.
UNKNOWN_KEYS = _json_object((f"k{i}", "0") for i in range(10**5))


@given(config_texts())
@example('{"model": {"c_k": 1.0, "c_k": 2.0}}')
@example('{"campaign": {"master_seed": -' + "9" * 308 + "}}")
@example(UNKNOWN_KEYS)
@example('{"model": ' + UNKNOWN_KEYS + "}")
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_any_config_text_parses_or_names_its_faults_briefly(text):
    try:
        config = parse_config(text)
    except ConfigError as exc:
        faults = [f"{path}: {message}" for path, message in exc.problems]
        assert faults and max(map(len, faults)) <= FAULT_CHARS
        assert len(str(exc)) <= TEXT_CHARS
    else:
        assert isinstance(config, RunConfig)


# Points-file bytes: rows of fields that parse or not (long ones, NUL bytes, any short
# text), rows of up to 10**5 columns, a header and comments; then a BOM, a byte that is
# not UTF-8, or a cut anywhere.
POINTS_FIELDS = st.one_of(
    st.sampled_from(["14", "13.5", "1000", "2e6", "0", "1", "nan", "-inf", "level_V", "",
                     "\x00"]),
    st.integers(1, 10**6).map(lambda n: "9" * n),
    st.integers(1, 10**6).map(lambda n: "x" * n),
    st.text(max_size=4))
POINTS_ROWS = st.one_of(st.lists(POINTS_FIELDS, max_size=4).map(",".join),
                        st.integers(4, 10**5).map(lambda n: ",".join(["1"] * n)),
                        st.sampled_from(["level_V,cycles,censored", "# note"]))


@st.composite
def points_bytes(draw):
    data = "\n".join(draw(st.lists(POINTS_ROWS, max_size=6))).encode()
    at = draw(st.integers(0, len(data)))
    edit = draw(st.sampled_from(["none", "bom", "not-utf-8", "cut"]))
    return {"none": data, "bom": b"\xef\xbb\xbf" + data, "cut": data[:at],
            "not-utf-8": data[:at] + b"\xff" + data[at:]}[edit]


@given(points_bytes())
@example(b"level_V,cycles,censored\n14,1000,0\n15,500,0\n")
@example(b"\xef\xbb\xbflevel_V,cycles,censored\n")
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_any_points_file_fits_or_names_its_fault_briefly(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "points.csv")
        with open(path, "wb") as file:
            file.write(data)
        try:
            files, stdout, notes = build_wohler(default_config(), None, points_csv=path)
        except ConfigError as exc:
            [(flag, message)] = exc.problems
            assert flag == "--points-csv" and len(f"{flag}: {message}") <= FAULT_CHARS
        except EstimationError:  # points that parse but admit no fit: the run's exit 3
            with open(path) as file:
                parse_wohler_points(file.read())
        else:
            assert (files, notes) == ({}, []) and "exponent" in json.loads(stdout)


@pytest.mark.parametrize("n_faults", [SHOWN_FAULTS, SHOWN_FAULTS + 1, 100_000])
def test_a_list_reports_its_first_item_faults_and_counts_the_rest(n_faults):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps({"campaign": {"levels_V": [13.0, *["x"] * n_faults]}}))
    faults = [(f"campaign.levels_V[{i}]", "expected a finite number, got 'x'")
              for i in range(1, SHOWN_FAULTS + 1)]
    more = n_faults - SHOWN_FAULTS
    assert excinfo.value.problems == faults + (
        [("campaign.levels_V", f"... and {more} more item faults")] if more else [])


# A library check echoes a whole number, which a config may give within the float
# range: 309 digits once printed whole.
@pytest.mark.parametrize("config, fault", [
    ({"campaign": {"master_seed": -10**308}},
     ("campaign.master_seed", "must be an integer >= 0, got -1" + "0" * 59 + "... (length 309)")),
    ({"campaign": {"n_specimens": 10**308}},
     ("campaign.n_specimens", "must be an integer <= 10000, got 1" + "0" * 59
      + "... (length 309)")),
    ({"geometry": {"hole_count": -10**308}},
     ("geometry.hole_count", "must be >= 0, got -1" + "0" * 59 + "... (length 309)")),
    ({"geometry": {"gap_um": 10**308}},
     ("geometry.gap_um", "must lie in [0.001, 1e+06] um, got 1" + "0" * 59
      + "... (length 309)")),
    ({"campaign": {"master_seed": -10**59}},
     ("campaign.master_seed", "must be an integer >= 0, got -1" + "0" * 59)),
], ids=["master_seed", "n_specimens", "hole_count", "gap_um", "60-digits-whole"])
def test_a_whole_number_is_echoed_briefly(config, fault):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(config))
    assert excinfo.value.problems == [fault]


@pytest.mark.parametrize("text, problems", [
    ('{"model": {}, "model": {"c_k": 2.0}}', [("model", "duplicate key")]),
    ('{"model": {"c_k": 1.0, "c_k": 1.0}}', [("model.c_k", "duplicate key")]),
    ('{"model": {"c_k": {"a": 1, "a": 2}}}',
     [("model.c_k", "expected a finite number, got {'a': <duplicate key>}")]),
], ids=["section", "field", "nested"])
def test_a_key_given_twice_is_refused(text, problems):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert excinfo.value.problems == problems


def test_a_bom_is_refused_by_name():
    with pytest.raises(ConfigError) as excinfo:
        parse_config("\ufeff{}")
    assert excinfo.value.problems == [
        ("<root>", "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
                   "line 1 column 1 (char 0)")]


def test_round_trip_default():
    config = default_config()
    assert parse_config(serialize_config(config)) == config


@given(gap=st.floats(min_value=1.0, max_value=10.0),
       ck=st.floats(min_value=0.5, max_value=5.0),
       seed=st.integers(min_value=0, max_value=2**31),
       std=st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_round_trip_randomized(gap, ck, seed, std):
    config = dataclasses.replace(
        default_config(),
        geometry=default_config().geometry._replace(gap_um=gap),
        model=default_config().model._replace(c_k=ck),
        campaign=dataclasses.replace(default_config().campaign,
                                     master_seed=seed, strength_std_V=std))
    assert parse_config(serialize_config(config)) == config


def test_explicit_strengths_round_trip():
    camp = dataclasses.replace(CampaignConfig(), n_specimens=3,
                               strengths_V=tuple(PAPER_THRESHOLDS_V[:3]))
    config = dataclasses.replace(default_config(), campaign=camp)
    assert parse_config(serialize_config(config)) == config


def test_explicit_damage_block():
    config = parse_config(json.dumps({"damage": {
        "basquin_coefficient_Pa": 1e9, "basquin_exponent": -0.3,
        "endurance_stress_Pa": 12e6}}))
    params = config.damage_params(config.device())
    assert params.basquin_coefficient_Pa == 1e9
    assert params.basquin_exponent == -0.3


def test_damage_config_takes_its_shape_defaults_from_the_damage_model():
    # DamageConfig reads these defaults off DamageModelParams; on a NamedTuple the
    # class attribute would be the field's accessor, not its default.
    params = DamageModelParams(basquin_coefficient_Pa=1e9, basquin_exponent=-0.3,
                               endurance_stress_Pa=12e6)
    shape = ("hardening_amplitude", "hardening_onset", "collapse_threshold",
             "softening_exponent")
    assert [getattr(DamageConfig(), name) for name in shape] == [
        getattr(params, name) for name in shape]


def test_each_field_name_belongs_to_one_section():
    # Owners' messages name a value by its field alone, and config._located finds
    # the section by that name, so no two sections may share a field name.
    paths = {name: f"{section}.{name}" for section, name in FIELDS}
    assert len(paths) == len(FIELDS)
    assert config_module._PATHS == {
        **paths, "detection_interval": "model.detection_interval_cycles"}


def test_material_faults_name_the_config_key():
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps({"material": {"E_GPa": -1, "rho_kg_per_um3": 0}}))
    assert [path for path, _ in excinfo.value.problems] == ["material.E_GPa",
                                                            "material.rho_kg_per_um3"]


# The library entries that take a bounded config field. Each gets the device,
# the calibrated parameters and the config section holding the value.
def _mechanics(d, p, model):
    return derive_mechanics(DeviceGeometry(), Material(), c_k=model.c_k)


def _sweep(d, p, model):
    return pull_in_voltage_sweep(d.mechanics, d.geometry, step_V=model.sweep_step_V)


def _run(d, p, model):
    return run_fatigue_test(14.0, SpecimenStrength(), d, p, **model.run_kwargs())


def _population(d, p, camp):
    return build_population(camp.master_seed, camp.strength_mean_V, camp.strength_std_V,
                            camp.n_specimens, d, p, strengths_V=camp.strengths_V)


def _recovery(d, p, camp):
    return estimator_recovery_trial(camp.strength_mean_V, camp.strength_std_V,
                                    camp.n_specimens, 20, camp.master_seed, camp.levels_V,
                                    camp.step_V, camp.start_level_V)


# (section, field, the name the entries give the value, entries). The entries name
# each value by its field, but for two keywords that bench/workloads.py passes:
# pull_in_voltage_sweep's step_V and run_fatigue_test's detection_interval.
BOUNDED_FIELDS = [
    ("model", "c_k", "c_k", [_mechanics]),
    ("model", "sweep_step_V", "step_V", [_sweep]),
    ("model", "detection_step_V", "detection_step_V", [_run]),
    ("model", "detection_interval_cycles", "detection_interval", [_run]),
    ("model", "reference_cycles", "reference_cycles", [_run]),
    ("model", "drop_fraction", "drop_fraction", [_run]),
    ("model", "min_pullin_fraction", "min_pullin_fraction", [_run]),
    ("campaign", "n_specimens", "n_specimens", [_population, _recovery]),
    ("campaign", "strength_mean_V", "strength_mean_V", [_population, _recovery]),
    ("campaign", "strength_std_V", "strength_std_V", [_population, _recovery]),
    ("campaign", "master_seed", "master_seed", [_population, _recovery]),
    ("campaign", "step_V", "step_V", [_recovery]),
    ("campaign", "start_level_V", "start_level_V", [_recovery]),
]
EDGE_VALUES = [0, -0.0, math.nextafter(0.0, 1.0), 1, math.nextafter(1.0, 0.0)]
# One past each MAX_* bound, by field.
PAST_MAX = {"n_specimens": [MAX_SPECIMENS + 1],
            "reference_cycles": [MAX_DETECTIONS * DEFAULT_DETECTION_INTERVAL + 1]}


def _names(call, name) -> bool:
    """Whether call raises a ValueError whose message has a "name: " fault."""
    try:
        call()
    except ValueError as exc:
        return re.search(f"(^|: |; ){name}: ", str(exc)) is not None
    except MicrofatigueError:  # a run or estimate that fails, naming no value
        pass
    return False


@pytest.mark.parametrize("section, field, name, entries, value", [
    *[pytest.param(section, field, name, entries, value, id=f"{section}.{field}={value!r}")
      for section, field, name, entries in BOUNDED_FIELDS
      for value in [*EDGE_VALUES, *PAST_MAX.get(field, [])]],
    pytest.param("campaign", "strengths_V", "strengths_V", [_population],
                 [13.0] * (MAX_SPECIMENS + 1), id="campaign.strengths_V=MAX_SPECIMENS+1"),
    # Fewer thresholds than the 6 default specimens; none at all draws them.
    pytest.param("campaign", "strengths_V", "strengths_V", [_population], [13.0, 14.0],
                 id="campaign.strengths_V=2 of 6"),
    pytest.param("campaign", "strengths_V", "strengths_V", [_population], [],
                 id="campaign.strengths_V=[]"),
])
def test_config_and_library_bounds_agree(nominal_device, calibrated_params, section, field,
                                         name, entries, value):
    # The config (parse_config, then check_campaign on the device) names section.field
    # exactly when the library entries taking the value raise naming it. The entries
    # get the value as the config reads it: a whole float in an int field as an int.
    try:
        parse_config(json.dumps({section: {field: value}})).check_campaign(nominal_device)
        config_names = False
    except ConfigError as exc:
        config_names = f"{section}.{field}" in [path for path, _ in exc.problems]
    default = getattr(default_config(), section)
    if isinstance(getattr(default, field), int) and float(value).is_integer():
        value = int(value)
    values = (dataclasses.replace(default, **{field: value}) if dataclasses.is_dataclass(default)
              else default._replace(**{field: value}))
    for entry in entries:
        assert _names(lambda: entry(nominal_device, calibrated_params, values), name) \
            == config_names


def test_tool_stamp_carries_the_package_version():
    assert TOOL_STAMP == f"microfatigue {microfatigue.__version__}" == "microfatigue 0.1.0"


def make_record(readings=(26.4, 26.15, 25.9), **fields):
    """A failed 14 V run at a 100 000-cycle interval to 2 000 000 cycles, built through
    run_record, with these per-detection readings and fields."""
    return run_record(readings, **{"drive_amplitude_V": 14.0, "detection_interval": 100_000,
                                   "outcome": "failed", "reference_cycles": 2_000_000,
                                   **fields})


RECORD = make_record()


def test_emit_fatigue_run_layout():
    text = emit_fatigue_run(RECORD)
    lines = text.splitlines()
    assert lines[0].startswith("# drive_amplitude_V=14")
    assert "outcome=failed" in lines[0]
    assert lines[1] == "load_cycles,pullin_V"
    assert lines[2] == "0,26.4"


def test_emit_fatigue_run_deterministic():
    assert emit_fatigue_run(RECORD) == emit_fatigue_run(RECORD)


# A few readings, each repeated over many rows, among them those where comparing
# with the row before and looking up a dict key disagree: 0.0 and -0.0 (equal, but
# written apart), +-inf, and NaN as one object and as distinct ones (never equal,
# but the same object is found as a dict key).
READINGS = st.lists(st.floats(), max_size=4).map(
    lambda values: [0.0, -0.0, math.inf, -math.inf, math.nan, float("nan"), -math.nan,
                    *values])


@given(data=st.data(), pool=READINGS)
@settings(max_examples=200, deadline=None)
def test_emit_fatigue_run_formats_every_row_as_its_own_reading(data, pool):
    readings = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))
    record = make_record(readings, detection_interval=1000)
    lines = emit_fatigue_run(record).split("\n")
    assert lines[2:] == [f"{cycles},{_num(v)}" for cycles, v in record.detections] + [""]


@given(data=st.data(), pool=READINGS)
@settings(max_examples=200, deadline=None)
def test_stretch_emission_equals_the_row_by_row_oracle(data, pool):
    # Readings drawn per detection and grouped by the oracle's rule, which keeps the
    # zeros of two signs and each NaN apart; and stretches drawn as they stand, which
    # may split equal readings or join 0.0 with a -0.0 after it. Both read back their
    # rows, and write what the row-by-row reference emitter writes of those rows.
    readings = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))
    grouped = make_record(readings, detection_interval=1000)
    assert grouped.readings == tuple(readings)
    assert [*map(repr, grouped.readings)] == [*map(repr, readings)]
    values = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20))
    repeats = data.draw(st.lists(st.integers(1, 5), min_size=len(values),
                                 max_size=len(values)))
    drawn = RECORD._replace(values=tuple(values), repeats=tuple(repeats),
                            detection_interval=1000)
    assert [*map(repr, drawn.readings)] == [
        repr(v) for v, m in zip(values, repeats) for _ in range(m)]
    for record in (grouped, drawn):
        assert emit_fatigue_run(record) == reference_emit_fatigue_run(record)


@given(data=st.data(), pool=READINGS,
       fault=st.sampled_from(["value", "repeat", 0, -1, 2.5]))
@settings(max_examples=200, deadline=None)
def test_a_record_of_malformed_stretches_is_refused_before_a_row_is_written(data, pool, fault):
    # One value or one repeat too many, or a repeat that counts no detection, or not
    # a whole one: the emitter formats no row of such a record.
    readings = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    record = make_record(readings, detection_interval=1000)
    values, repeats = [*record.values], [*record.repeats]
    if fault == "value":
        values.insert(data.draw(st.integers(0, len(values))), 26.4)
    elif fault == "repeat":
        repeats.insert(data.draw(st.integers(0, len(repeats))), 1)
    else:
        repeats[data.draw(st.integers(0, len(repeats) - 1))] = fault
    record = record._replace(values=tuple(values), repeats=tuple(repeats))
    formatted = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(emit_module, "_num", formatted.append)
        patch.setattr(emit_module, "_reading_text", formatted.append)
        with pytest.raises(ValueError, match=rf"^repeats: a run record holds an int >= 1 for "
                                             rf"each of its {len(values)} values, got \("):
            emit_fatigue_run(record)
    assert formatted == []


@given(data=st.data(), pool=READINGS, case=st.sampled_from(["multiple", "clipped", "below"]),
       as_float=st.booleans())
@settings(max_examples=200, deadline=None)
def test_emit_fatigue_run_writes_the_counts_the_grid_implies(data, pool, case, as_float):
    # Detection j of a record took place at min(j*interval, reference) cycles: on the
    # grid to a reference the interval divides, clipped to one it does not, and at the
    # reference itself for the one detection after the pristine reading when the
    # reference lies below the interval. A whole float reference still counts in ints.
    interval = data.draw(st.integers(1 if case == "multiple" else 2, 10**6))
    if case == "below":
        reference, batches = data.draw(st.integers(1, interval - 1)), 1
    else:
        batches = data.draw(st.integers(1, 50))
        reference = batches * interval if case == "multiple" else \
            (batches - 1) * interval + data.draw(st.integers(1, interval - 1))
    detected = batches if case == "below" else data.draw(st.integers(1, batches))
    readings = data.draw(st.lists(st.sampled_from(pool), min_size=detected + 1,
                                  max_size=detected + 1))
    record = make_record(readings, detection_interval=interval,
                         reference_cycles=float(reference) if as_float else reference)
    counts = [min(j * interval, reference) for j in range(detected + 1)]
    assert [c for c, _ in record.detections] == counts
    assert {type(c) for c, _ in record.detections} == {int}
    assert record.final_cycles == counts[-1]
    lines = emit_fatigue_run(record).split("\n")
    assert lines[2:] == [f"{c},{_num(v)}" for c, v in record.detections] + [""]


def _assert_emitted(record):
    """record's CSV rows are its detections, and the count texts kept for the next
    record are its own grid's: one text per detection a run on it can make."""
    lines = emit_fatigue_run(record).split("\n")
    assert lines[2:] == [f"{c},{_num(v)}" for c, v in record.detections] + [""]
    interval, reference = record.detection_interval, int(record.reference_cycles)
    hits = emit_module._count_texts.cache_info().hits
    texts = emit_module._count_texts(interval, reference)
    assert emit_module._count_texts.cache_info().hits == hits + 1
    assert texts == tuple(str(min(j * interval, reference))
                          for j in range(1 - (-reference // interval)))


@given(data=st.data(), pool=READINGS)
@settings(max_examples=100, deadline=None)
def test_emit_fatigue_run_shares_count_texts_across_records(data, pool):
    # Records of two intervals in a drawn order, each on the grid of its own
    # reference. The plan's four records keep their order among extras inserted at
    # drawn places: at interval a, a short record and then a longer one; a clipped
    # record at b (a switch); then one at a again (a switch back) whose reference is
    # a float. The extras draw their interval, length, clipping and float reference.
    a = data.draw(st.integers(1, 10**6))
    b = data.draw(st.integers(2, 10**6).filter(lambda b: b != a))

    def record(interval, n, clipped, as_float):
        readings = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        if clipped and interval > 1 and n > 1:
            reference = (n - 2) * interval + data.draw(st.integers(1, interval - 1))
        else:
            reference = (n - 1) * interval + data.draw(st.integers(0 if n > 1 else 1, interval))
        return make_record(readings, detection_interval=interval,
                           reference_cycles=float(reference) if as_float else reference)

    plan = [record(a, data.draw(st.integers(1, 30)), False, False),
            record(a, data.draw(st.integers(31, 60)), False, False),
            record(b, data.draw(st.integers(2, 60)), True, False),
            record(a, data.draw(st.integers(1, 60)), data.draw(st.booleans()), True)]
    extras = data.draw(st.lists(st.tuples(st.sampled_from((a, b)), st.integers(1, 30),
                                          st.booleans(), st.booleans()), max_size=6))
    sequence = plan
    for extra in extras:
        sequence.insert(data.draw(st.integers(0, len(sequence))), record(*extra))
    for item in sequence:
        _assert_emitted(item)


def test_an_over_long_record_is_refused():
    # Only a hand-built record holds more readings than its grid has detections:
    # five at a 1 000-cycle interval to 2 500 cycles, whose grid ends at the
    # clipped count after four, and one reading past the bound of detections.
    for interval, reference, n in ((1000, 2500, 5), (7, 7 * MAX_DETECTIONS, MAX_DETECTIONS + 2)):
        record = make_record((26.4, 26.15) * (n // 2) + (26.4,) * (n % 2),
                             detection_interval=interval, reference_cycles=reference)
        assert len(record.readings) == n
        with pytest.raises(ValueError, match=f"^readings: a run record holds 1 to {n - 1} "
                                             f"readings on its grid, got {n}$"):
            emit_fatigue_run(record)
        _assert_emitted(make_record(record.readings[:-1], detection_interval=interval,
                                    reference_cycles=reference))


@pytest.mark.parametrize("fields, error, message", [
    ({"values": (), "repeats": ()}, ValueError,
     "^readings: a run record holds 1 to 2001 readings on its grid, got 0$"),
    # Equal to the interval the count texts hold, but no interval a grid can step by.
    ({"detection_interval": 1000.0}, TypeError, "'float' object cannot be interpreted"),
    ({"detection_interval": 0}, ValueError, "^detection_interval: must be a whole number >= 1"),
    ({"reference_cycles": 0}, ValueError, "^reference_cycles: must be a whole number >= 1"),
    ({"reference_cycles": 2_000_000.5}, ValueError,
     "^reference_cycles: must be a whole number >= 1, got 2000000.5$"),
    ({"detection_interval": 1, "reference_cycles": MAX_DETECTIONS + 1}, ValueError,
     f"^reference_cycles: a run may take at most {MAX_DETECTIONS} detections$"),
])
def test_emit_fatigue_run_refuses_a_record_it_cannot_write(fields, error, message):
    emit_fatigue_run(RECORD._replace(detection_interval=1000))
    with pytest.raises(error, match=message):
        emit_fatigue_run(RECORD._replace(**{"detection_interval": 1000, **fields}))


def test_threads_emitting_other_intervals_each_write_their_own_counts():
    # Each thread writes records of its own interval, so each of its calls swaps
    # the shared count texts from another thread's interval; a thread that read the
    # texts before another swapped them must keep writing its own counts.
    wrong = []

    def emit_all(interval):
        records = [make_record((26.4, 26.15) * n, detection_interval=interval,
                               reference_cycles=2 * n * interval) for n in (3, 200, 9)]
        expected = ["".join(f"{c},{_num(v)}\n" for c, v in record.detections)
                    for record in records]
        for _ in range(40):
            for record, rows in zip(records, expected):
                if not emit_fatigue_run(record).endswith(rows):
                    wrong.append(record)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=emit_all, args=(interval,))
                   for interval in (1, 7, 1000, 999_983)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


@pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0)])
def test_a_zero_record_after_one_of_the_other_zero_writes_its_own_sign(zeros):
    # 0.0 == -0.0, so a memo keyed on the reading would hand the second record the
    # first one's text; a zero is formatted in place and never becomes a key.
    emit_module._reading_text.cache_clear()
    for zero in zeros:
        text = "-0" if math.copysign(1.0, zero) < 0 else "0"
        lines = emit_fatigue_run(make_record((zero,) * 3)).split("\n")
        assert lines[2:] == ["0," + text, "100000," + text, "200000," + text, ""]
    assert emit_module._reading_text.cache_info().currsize == 0


def test_distinct_nan_objects_each_write_nan():
    # A NaN equals nothing, itself included: the memo finds only the entry of the
    # same object, and each object, whatever its sign, writes nan.
    nans = [float("nan"), math.nan, -math.nan, float("-nan"), math.inf - math.inf]
    record = make_record(nans * 2, detection_interval=1000)
    lines = emit_fatigue_run(record).split("\n")
    assert lines[2:] == [f"{1000 * j},nan" for j in range(len(nans) * 2)] + [""]


def test_a_record_of_more_readings_than_the_memo_holds_writes_its_own_rows():
    maxsize = emit_module._reading_text.cache_info().maxsize
    readings = tuple(10.0 + j / 1000 for j in range(maxsize + 300))
    record = make_record(readings, detection_interval=1,
                         reference_cycles=len(readings) - 1)
    lines = emit_fatigue_run(record).split("\n")
    assert lines[2:] == [f"{j},{_num(v)}" for j, v in enumerate(readings)] + [""]
    assert emit_module._reading_text.cache_info().currsize <= maxsize


def test_a_record_emitted_again_formats_only_its_amplitude_and_zeros(monkeypatch):
    formatted = []

    def counting_num(x):
        formatted.append(x)
        return "%.6g" % x

    monkeypatch.setattr(emit_module, "_num", counting_num)
    emit_module._reading_text.cache_clear()
    record = make_record((26.4, 26.4, 26.15, 0.0, 0.0, -0.0, 26.15, 25.9, 0.0),
                         detection_interval=1000)
    first = emit_fatigue_run(record)
    # The amplitude, each stretch of zeros, each other reading.
    assert record.repeats == (2, 1, 2, 1, 1, 1, 1) and len(formatted) == 1 + 3 + 3
    del formatted[:]
    assert emit_fatigue_run(record) == first
    assert sorted(map(repr, formatted)) == ["-0.0", "0.0", "0.0", "14.0"]


def test_emit_conversion_curve(nominal_device):
    from microfatigue.electromech import stress_conversion_curve
    d = nominal_device
    points = stress_conversion_curve(d.mechanics, d.geometry, 20.0, 5)
    text = emit_conversion_curve(points)
    lines = text.splitlines()
    assert lines[0] == "voltage_V,deflection_um,stress_MPa"
    assert lines[1] == "0,0,0"
    assert len(lines) == 6


SPECIAL_FLOATS = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1e-300, 0.5, 999999.5, 123456789.0, -26.395)


@given(st.floats())
@example(math.nan)
@example(-math.nan)
@example(math.inf)
@example(-math.inf)
@example(-0.0)
@example(5e-324)
@example(2.2250738585072014e-308)
@example(9999995.0)
@settings(max_examples=2000, deadline=None)
def test_num_equals_format_6g(x):
    assert _num(x) == format(x, ".6g")


def test_emit_conversion_curve_equals_per_field_format():
    points = [EquilibriumPoint(*fields) for fields in itertools.product(SPECIAL_FLOATS, repeat=3)]
    # Every special float in every field, no point at all, and a single point.
    for case in (points, [], [EquilibriumPoint(13.0, 2.5e-7, -0.0)]):
        rows = [",".join(format(x, ".6g") for x in (p.voltage_V, p.deflection_m * 1e6,
                                                    p.stress_Pa * 1e-6)) for p in case]
        assert emit_conversion_curve(case) == \
            "\n".join(["voltage_V,deflection_um,stress_MPa", *rows]) + "\n"


@given(st.lists(st.tuples(st.floats(), st.floats(), st.floats()), max_size=8))
@settings(max_examples=300, deadline=None)
def test_emit_conversion_curve_equals_per_field_format_on_drawn_points(drawn):
    # Arbitrary floats, non-finite ones included: kept apart from the test above, whose
    # 2 197-point case would rerun with each drawn example.
    rows = [f"{format(v, '.6g')},{format(d * 1e6, '.6g')},{format(s * 1e-6, '.6g')}\n"
            for v, d, s in drawn]
    assert emit_conversion_curve([EquilibriumPoint(*fields) for fields in drawn]) == \
        "".join(["voltage_V,deflection_um,stress_MPa\n", *rows])


def test_wohler_points_round_trip():
    points = [WohlerPoint(15.0, 700000), WohlerPoint(13.0, 2_000_000, censored=True)]
    assert parse_wohler_points(emit_wohler_points(points)) == points


def test_wohler_points_from_records_names_a_record_without_readings():
    # Its final count would read -interval: the record is at fault, not the point.
    with pytest.raises(ValueError, match="^readings: a run record holds at least its "
                                         "pristine reading$"):
        wohler_points_from_records([make_record(())])


def test_wohler_points_from_records():
    survived = make_record((26.4,) * 21, drive_amplitude_V=13.0, outcome="survived")
    invalid = make_record((26.4, 23.5), drive_amplitude_V=24.0, detection_interval=1000,
                          outcome="invalid")
    points = wohler_points_from_records([RECORD, survived, invalid])
    assert len(points) == 2
    assert points[0] == WohlerPoint(14.0, 200000, censored=False)
    assert points[1] == WohlerPoint(13.0, 2_000_000, censored=True)


def test_emit_staircase_sequence(nominal_device, calibrated_params):
    from microfatigue.protocols import build_population, run_stair_case
    pop = build_population(0, 13.0, 0.55, 6, nominal_device, calibrated_params,
                           strengths_V=PAPER_THRESHOLDS_V)
    seq, _ = run_stair_case([12, 13, 14, 15], 1.0, 15.0, 6, pop,
                            nominal_device, calibrated_params)
    text = emit_staircase_sequence(seq)
    lines = text.splitlines()
    assert lines[1] == "specimen_id,level_V,outcome"
    assert lines[2] == "0,15,1"
    assert lines[-1] == "5,12,0"


class _Pair(NamedTuple):
    first: object
    second: object


class _Level(enum.IntEnum):
    LOW = 1


class _Volts(float):
    pass


class _Name(str):
    pass


# Keys and strings with quotes, backslashes, control and non-ASCII characters.
JSON_STRINGS = st.one_of(st.text(), st.sampled_from(
    ["", '"', "\\", "\x00\x1f\x7f", "\n\t", "\u00e9", "\u2028", "\U0001f600", 'a"b\\c']))
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), JSON_STRINGS,
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                     math.nan, math.inf, -math.inf, 10**40, -(10**40),
                     _Level.LOW, _Volts(13.5), _Volts(math.nan), _Name("\u00e9")]))
JSON_TREES = st.recursive(JSON_SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=5), st.lists(children, max_size=5).map(tuple),
    st.builds(_Pair, children, children), st.dictionaries(JSON_STRINGS, children, max_size=5)),
    max_leaves=40)


def _nested(depth):
    tree = {"": [[], (), {}]}
    for i in range(depth):
        tree = [tree, {"level": i, "empty": {}}] if i % 2 else {"\u00e9": tree, "x": []}
    return tree


@given(JSON_TREES)
@example(_nested(60))
@example({})
@example([])
@settings(max_examples=300, deadline=None)
def test_dump_json_writes_the_bytes_of_json_dumps(tree):
    assert dump_json(tree) == json_text(tree)


@pytest.mark.parametrize("payload", [{1: "one"}, {"values": {1, 2}}])
def test_dump_json_rejects_a_non_str_key_and_an_unsupported_value(payload):
    with pytest.raises(TypeError):
        dump_json(payload)


@given(valid_json_configs())
@example({})
# Values out of their typical range that the parser still accepts.
@example({"campaign": {"master_seed": 10**300, "strength_mean_V": 1e299},
          "damage": {"hardening_amplitude": 1e299, "calibrate_immediate_V": 1e299}})
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
def test_serialize_config_equals_the_asdict_dump(raw):
    try:
        config = parse_config(json.dumps(raw))
    except ConfigError:
        assume(False)
    assert serialize_config(config) == asdict_dump(config)


@pytest.mark.parametrize("record, fields", [
    (PullInResult, ("pull_in_voltage_V", "deflection_at_instability_m")),
    (FatigueParameters, ("sigma_max_Pa", "sigma_min_Pa", "sigma_mean_Pa", "sigma_alt_Pa",
                         "stress_ratio")),
    (FatigueRunRecord, ("drive_amplitude_V", "values", "repeats", "detection_interval",
                        "outcome", "reference_cycles")),
    (StairCaseTrial, ("specimen_id", "level_V", "failure")),
    (StairCaseSequence, ("trials", "step_V", "levels_V")),
    (StairCaseEstimate, ("mean_V", "std_V", "q10_V", "q90_V", "basis_event",
                         "dispersion_valid")),
    (BasquinFit, ("coefficient", "exponent", "residual")),
])
def test_records_keep_their_field_order(record, fields):
    assert record._fields == fields


def test_serialize_config_writes_every_section_as_an_object():
    # A NamedTuple section handed to dump_json as it stands would be a JSON array.
    written = json.loads(serialize_config(default_config()))
    assert sorted(written) == sorted(f.name for f in dataclasses.fields(RunConfig))
    assert all(isinstance(section, dict) and section for section in written.values())


def _with_field(section, name, value):
    """default_config() with a new section object whose field name holds value."""
    config = default_config()
    old = getattr(config, section)
    new = (dataclasses.replace(old, **{name: value}) if dataclasses.is_dataclass(old)
           else old._replace(**{name: value}))
    return dataclasses.replace(config, **{section: new})


@pytest.mark.parametrize("section, name, values, texts", [
    ("model", "c_k", (1, 1.0), ('"c_k": 1,', '"c_k": 1.0,')),
    ("campaign", "strength_std_V", (0.0, -0.0),
     ('"strength_std_V": 0.0', '"strength_std_V": -0.0')),
    ("campaign", "levels_V", ((12.0, 13.0), (12, 13)), ("\n      12.0,", "\n      12,")),
])
def test_an_equal_section_of_other_types_writes_its_own_text(section, name, values, texts):
    # 1 == 1.0 and 0.0 == -0.0: every config shares one layout, but each writes its own values.
    configs = [_with_field(section, name, value) for value in values]
    assert getattr(configs[0], section) == getattr(configs[1], section)
    for _ in range(2):
        for config, text in zip(configs, texts):
            written = serialize_config(config)
            assert written == asdict_dump(config) and text in written


@pytest.mark.parametrize("section, name, items", [("campaign", "levels_V", (12.0, 13.0)),
                                                  ("output", "formats", ("csv",))])
def test_a_mutated_list_field_is_written_afresh(section, name, items):
    # A section built directly with a list can change under its own identity.
    value = list(items)
    config = _with_field(section, name, value)
    before = serialize_config(config)
    value.append(value[-1])
    assert serialize_config(config) == asdict_dump(config) != before
    value.clear()
    assert serialize_config(config) == asdict_dump(config)


# Keys that a %-format template must keep as they are, leaves at three depths and an
# empty object between them.
WRITER_SHAPE = {"a%": {"%s": "inner.first", "x": "inner.second"}, "b": "top", "c": {},
                "d": {"e": {"%%": "inner.deep"}}}


@given(JSON_TREES, JSON_TREES, JSON_TREES, JSON_TREES)
@settings(max_examples=200, deadline=None)
def test_an_attribute_writer_writes_the_bytes_of_dump_json(first, second, top, deep):
    obj = types.SimpleNamespace(top=top, inner=types.SimpleNamespace(
        first=first, second=second, deep=deep))
    payload = {"a%": {"%s": first, "x": second}, "b": top, "c": {},
               "d": {"e": {"%%": deep}}}
    assert attribute_writer(WRITER_SHAPE)(obj) == dump_json(payload)


@pytest.mark.parametrize("shape", [{}, {"only": "x"}, {"a": {"only": "x"}, "b": {}}])
def test_an_attribute_writer_reads_two_leaves_or_more(shape):
    with pytest.raises(ValueError, match="two leaves or more"):
        attribute_writer(shape)


# The package's types that stay dataclasses, each with the call that the benchmark
# harness (bench/workloads.py) makes on it and a NamedTuple would not take.
HARNESS_DATACLASSES = {"microfatigue.config.RunConfig": "replace",
                       "microfatigue.config.CampaignConfig": "replace",
                       "microfatigue.damage.DamageModelParams": "asdict"}


def test_only_the_types_the_harness_needs_stay_dataclasses():
    modules = [importlib.import_module(f"microfatigue.{info.name}")
               for info in pkgutil.iter_modules(microfatigue.__path__)]
    found = {f"{module.__name__}.{name}" for module in modules
             for name, obj in vars(module).items()
             if isinstance(obj, type) and obj.__module__ == module.__name__
             and dataclasses.is_dataclass(obj)}
    assert found == set(HARNESS_DATACLASSES)
    harness = (Path(__file__).resolve().parents[1] / "bench" / "workloads.py").read_text()
    assert all(f"{call}(" in harness for call in HARNESS_DATACLASSES.values())


@pytest.mark.parametrize("make, message", [
    (lambda: SpecimenStrength(0.0), "strength_scale: must be > 0, got 0.0"),
    (lambda: WohlerPoint(13.0, 0), "cycles: must be a whole number >= 1, got 0"),
    (lambda: WohlerPoint(level_V=13.0, cycles=2.5, censored=True),
     "cycles: must be a whole number >= 1, got 2.5"),
    (lambda: LoadCycleSpec(-1.0, 1.0), "drive amplitude must be >= 0, got -1.0"),
    (lambda: LoadCycleSpec(1.0, 0.0), "drive frequency must be > 0, got 0.0"),
])
def test_validated_records_raise_naming_the_value(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_fit_to_dict_holds_the_three_fit_fields():
    fit = fit_to_dict(BasquinFit(coefficient=30.0, exponent=-0.05, residual=0.01))
    assert list(fit) == ["coefficient", "exponent", "residual"]
    assert fit == {"coefficient": 30.0, "exponent": -0.05, "residual": 0.01}

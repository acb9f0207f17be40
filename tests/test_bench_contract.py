"""The names the benchmark harness reaches into the package by.

The harness under ``bench/`` traces named functions and methods and imports
named modules; a renamed or moved one breaks its runs. The names are read
from the harness sources as literals, so nothing under ``bench/`` is imported.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

from microfatigue.damage import SpecimenStrength
from tests.reference import PAPER_THRESHOLDS_V

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _literal(filename: str, name: str):
    """The literal value assigned to the top-level name in bench/filename."""
    tree = ast.parse((BENCH / filename).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not assigned in bench/{filename}")


def _module(name: str):
    return importlib.import_module(f"microfatigue.{name}")


@pytest.mark.parametrize("name", _literal("run_bench.py", "TRACED_FUNCTIONS"))
def test_traced_name_is_a_public_function_of_its_module(name):
    layer, attr = name.split(".")
    module = _module(layer)
    fn = getattr(module, attr, None)
    assert not attr.startswith("_") and inspect.isfunction(fn), name
    assert fn.__module__ == module.__name__, name


@pytest.mark.parametrize("layer,cls_name,attr", _literal("spans.py", "METHODS"))
def test_traced_method_is_defined_on_its_class(layer, cls_name, attr):
    assert attr in vars(getattr(_module(layer), cls_name))


@pytest.mark.parametrize("name", sorted(set(_literal("workloads.py", "MODULES"))
                                        | set(_literal("spans.py", "LAYERS"))))
def test_benchmarked_module_imports(name):
    assert _module(name).__name__ == f"microfatigue.{name}"


# The command builders of the CLI, which the benchmark is to call instead of
# restating their artifact code: each takes (config, out, **flags) and
# returns (files, stdout, notes).
BUILDERS = ("build_pullin", "build_curve", "build_fatigue", "build_staircase",
            "build_wohler", "build_recovery")


@pytest.mark.parametrize("name", BUILDERS)
def test_builder_is_a_public_function_of_cli(name):
    module = _module("cli")
    fn = getattr(module, name, None)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name
    assert list(inspect.signature(fn).parameters)[:2] == ["config", "out"], name


def test_with_seed_is_a_method_that_changes_only_the_master_seed():
    config_module = _module("config")
    assert inspect.isfunction(vars(config_module.RunConfig).get("with_seed"))
    config = config_module.parse_config(json.dumps(
        {"campaign": {"strengths_V": PAPER_THRESHOLDS_V, "master_seed": 3},
         "model": {"detection_interval_cycles": 1000}, "output": {"directory": "elsewhere"}}))
    seeded = config.with_seed(77)
    assert seeded.campaign.master_seed == 77 and config.campaign.master_seed == 3
    before = json.loads(config_module.serialize_config(config))
    after = json.loads(config_module.serialize_config(seeded))
    after["campaign"]["master_seed"] = 3
    assert after == before


def _keywords(filename: str, function: str) -> set[str]:
    """The keyword names of the calls in the top-level function of bench/filename."""
    tree = ast.parse((BENCH / filename).read_text())
    (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
    return {kw.arg for call in ast.walk(node) if isinstance(call, ast.Call)
            for kw in call.keywords}


def test_the_run_keywords_are_the_run_settings_fields():
    # The run functions take the settings as **run_kwargs, so a renamed field would
    # otherwise show only as a TypeError in a benchmark run.
    fields = set(_module("protocols").RunSettings._fields)
    assert set(_module("config").ModelConfig().run_kwargs()) == fields
    assert _keywords("workloads.py", "_run_kwargs") == fields


def test_an_unknown_run_keyword_is_a_type_error_naming_it(nominal_device, calibrated_params):
    protocols = _module("protocols")
    population = protocols.build_population(0, 13.0, 0.55, 6, nominal_device, calibrated_params,
                                            strengths_V=PAPER_THRESHOLDS_V)
    calls = [
        lambda: protocols.run_fatigue_test(14.0, SpecimenStrength(), nominal_device,
                                           calibrated_params, detection_intervals=1000),
        lambda: protocols.run_stair_case([12, 13, 14, 15], 1.0, 15.0, 6, population,
                                         nominal_device, calibrated_params,
                                         detection_intervals=1000),
        lambda: protocols.calibrate_defaults(nominal_device, detection_intervals=1000),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="'detection_intervals'"):
            call()


def _attributes_read(filename: str, names: set[str], function: str | None = None) -> set[str]:
    """The attributes read off the given variable names in bench/filename, or in its
    top-level function of that name."""
    tree = ast.parse((BENCH / filename).read_text())
    if function is not None:
        (tree,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in names}


def test_a_fatigue_record_offers_what_the_harness_reads(nominal_device, calibrated_params):
    # The harness reads a run's detections as (count, reading) pairs, which a record
    # derives from its readings and detection grid, and three of its fields.
    protocols, damage = _module("protocols"), _module("damage")
    read = (_attributes_read("workloads.py", {"record", "r"})
            | _attributes_read("run_bench.py", {"record"}, "_observe_fatigue_run"))
    assert read == {"detections", "outcome", "reference_cycles"}
    specimen = SpecimenStrength(protocols.strength_scale_from_threshold(
        13.5, nominal_device, calibrated_params))
    record = protocols.run_fatigue_test(14.0, specimen, nominal_device, calibrated_params,
                                        detection_interval=1_000, reference_cycles=1_234_567)
    assert record.outcome in (protocols.OUTCOME_FAILED, protocols.OUTCOME_SURVIVED,
                              protocols.OUTCOME_INVALID)
    assert (record.drive_amplitude_V, record.reference_cycles) == (14.0, 1_234_567)
    detections = record.detections
    assert len(detections) > 2
    assert detections[0] == (0, protocols.run_pull_in_detection(
        damage.DamageState.pristine(), nominal_device, calibrated_params))
    assert {(type(c), type(v)) for c, v in detections} == {(int, float)}
    counts = [c for c, _ in detections]
    assert all(a < b for a, b in zip(counts, counts[1:]))
    assert counts[-1] <= record.reference_cycles

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
        {"campaign": {"strengths_V": [14.5, 13.5, 13.2, 13.5, 12.8, 12.5], "master_seed": 3},
         "model": {"detection_interval_cycles": 1000}, "output": {"directory": "elsewhere"}}))
    seeded = config.with_seed(77)
    assert seeded.campaign.master_seed == 77 and config.campaign.master_seed == 3
    before = json.loads(config_module.serialize_config(config))
    after = json.loads(config_module.serialize_config(seeded))
    after["campaign"]["master_seed"] = 3
    assert after == before

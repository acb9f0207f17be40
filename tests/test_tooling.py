"""The test suite's own configuration, run on a throwaway suite in a subprocess, and
the Python floor every source must parse at."""

import ast
import re
from pathlib import Path

import pytest

pytest_plugins = ["pytester"]

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_failing_property_test_reports_a_failure_not_an_internal_error(pytester):
    pytester.makepyfile(test_property="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_runs_after_it():
            pass
    """)
    result = pytester.runpytest_subprocess("-c", str(PYPROJECT), "--rootdir", str(pytester.path),
                                           "-p", "no:cacheprovider", "test_property.py")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    assert result.ret == pytest.ExitCode.TESTS_FAILED
    result.assert_outcomes(failed=1, passed=1)


def _python_floor() -> tuple[int, int]:
    """The (major, minor) of pyproject.toml's requires-python = ">=X.Y"."""
    match = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', PYPROJECT.read_text(), re.M)
    return int(match[1]), int(match[2])


@pytest.mark.parametrize("path", sorted(
    [*(ROOT / "src" / "microfatigue").glob("*.py"), *(ROOT / "tests").glob("*.py")]),
    ids=lambda path: f"{path.parent.name}/{path.name}")
def test_sources_parse_at_the_declared_python_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=_python_floor())


# The functions that make arrays; numpy is imported in them and nowhere else.
NUMPY_IMPORTERS = ["protocols.population_thresholds", "stats._dixon_mood_means",
                   "stats._stair_case_levels", "stats.estimator_recovery_trial"]


def _numpy_import_sites(path: Path) -> list[str]:
    """The dotted scope (module, then enclosing defs) of each numpy import in path."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                modules = [child.module or ""]
            else:
                modules = []
            if any(module.split(".")[0] == "numpy" for module in modules):
                sites.append(scope)
            visit(child, scope)

    visit(ast.parse(path.read_text()), path.stem)
    return sites


def test_numpy_is_imported_only_where_arrays_are_made():
    sites = [site for path in sorted((ROOT / "src" / "microfatigue").glob("*.py"))
             for site in _numpy_import_sites(path)]
    assert sorted(sites) == NUMPY_IMPORTERS

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

"""The test suite's own configuration, run on a throwaway suite in a subprocess, and
the Python floor every source must parse at."""

import ast
import collections
import re
from pathlib import Path

import pytest

from tests.reference import python_floor

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


@pytest.mark.parametrize("path", sorted(
    [*(ROOT / "src" / "microfatigue").glob("*.py"), *(ROOT / "tests").glob("*.py")]),
    ids=lambda path: f"{path.parent.name}/{path.name}")
def test_sources_parse_at_the_declared_python_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=python_floor())


# The functions that make arrays; numpy is imported in them and nowhere else.
NUMPY_IMPORTERS = ["stats._bias_summary", "stats._dixon_mood_means", "stats._window_tables",
                   "stats.estimator_recovery_trial"]


def _scoped_nodes(path: Path):
    """Each node of path but the defs, with its dotted scope (module, then enclosing
    defs)."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, f"{scope}.{child.name}")
                continue
            yield scope, child
            yield from visit(child, scope)

    return visit(ast.parse(path.read_text()), path.stem)


def _sites(path: Path, hit) -> list[str]:
    """The dotted scope of each node of path that hit accepts."""
    return [scope for scope, node in _scoped_nodes(path) if hit(node)]


def _src_sites(hit) -> list[str]:
    return sorted(site for path in sorted((ROOT / "src" / "microfatigue").glob("*.py"))
                  for site in _sites(path, hit))


def _imports_numpy(node) -> bool:
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        modules = [node.module or ""]
    else:
        modules = []
    return any(module.split(".")[0] == "numpy" for module in modules)


def test_numpy_is_imported_only_where_arrays_are_made():
    assert _src_sites(_imports_numpy) == NUMPY_IMPORTERS


# The functions that call a numpy Generator distribution method. NEP 19 freezes a bit
# generator's raw words but not the variates a Generator derives from them, so a draw
# that must keep its bytes across numpy releases reads raw words (the recovery trial)
# or derives its variates itself (the population draw, through _normal's port of
# standard_normal). None calls one; a new caller is a declared edit.
GENERATOR_DRAWERS = []


def _calls_a_generator_method():
    """A hit test for a call of an attribute named like a public method of
    numpy.random.Generator other than spawn: one of its variates."""
    import numpy as np
    methods = {name for name in dir(np.random.Generator) if not name.startswith("_")
               and callable(getattr(np.random.Generator, name))} - {"spawn"}
    return lambda node: (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                         and node.func.attr in methods)


def test_the_generator_scan_flags_a_variate_but_not_a_raw_word(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("def draw(rng, bits):\n    rng.standard_normal(3)\n"
                    "    np.random.default_rng(0).integers(2)\n    bits.random_raw(3)\n")
    assert _sites(path, _calls_a_generator_method()) == ["sample.draw", "sample.draw"]


def test_no_function_calls_a_generator_variate():
    assert _src_sites(_calls_a_generator_method()) == GENERATOR_DRAWERS


# The functions that read the closed-form pull-in. The equilibrium solve alone decides
# which voltages it can solve, [0, V_PI) and never NaN, so each of them only reports a
# value or places a bound; a new one is a declared edit.
CLOSED_FORM_CALLERS = ["cli.build_pullin", "damage.degraded_pull_in",
                       "device.validate_stiffness", "electromech.stress_conversion_curve",
                       "loading._tension_stresses", "protocols._pristine_readings",
                       "protocols.population_thresholds", "protocols.validate_readings",
                       "protocols.validate_stair_case"]


def _calls_closed_form(node) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name == "pull_in_voltage_closed_form"


def test_the_closed_form_pull_in_is_read_only_at_its_known_sites():
    assert _src_sites(_calls_closed_form) == CLOSED_FORM_CALLERS


# Library names that the config calls otherwise: a function takes the config's field
# name instead (campaign.strength_mean_V, campaign.master_seed, ...).
RETIRED_PARAMETERS = {"true_mean_V", "true_std_V", "thresholds_V", "target_V_D",
                      "target_immediate_V", "seed"}


def test_no_function_takes_a_retired_parameter_name():
    taken = [f"{path.stem}.{node.name}({arg.arg})"
             for path in sorted((ROOT / "src" / "microfatigue").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
             if arg.arg in RETIRED_PARAMETERS]
    assert taken == []


MEMO_DECORATORS = {"functools.lru_cache", "lru_cache", "functools.cache", "cache"}


def _finite_maxsize(name: str, call: ast.Call | None) -> bool:
    """Whether the memo decorator states maxsize as a literal integer >= 0
    (functools.cache and a bare lru_cache state none)."""
    if call is None or not name.endswith("lru_cache"):
        return False
    sizes = [*call.args[:1], *(kw.value for kw in call.keywords if kw.arg == "maxsize")]
    return (len(sizes) == 1 and isinstance(sizes[0], ast.Constant)
            and type(sizes[0].value) is int and sizes[0].value >= 0)


def _unbounded_memos(source: str) -> list[str]:
    """The functions in source memoised by functools.lru_cache or functools.cache
    without a finite integer maxsize."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                call = decorator if isinstance(decorator, ast.Call) else None
                name = ast.unparse(call.func if call else decorator)
                if name in MEMO_DECORATORS and not _finite_maxsize(name, call):
                    found.append(node.name)
    return found


def test_the_memo_scan_flags_each_unbounded_form():
    source = "\n".join(f"@{decorator}\ndef {name}(): pass" for name, decorator in [
        ("none", "functools.lru_cache(maxsize=None)"), ("bare", "functools.lru_cache"),
        ("cache", "functools.cache"), ("named", "lru_cache(None)"),
        ("setting", "functools.lru_cache(maxsize=SIZE)"), ("typed", "functools.lru_cache(typed=True)"),
        ("bounded", "functools.lru_cache(maxsize=8)"), ("positional", "lru_cache(4)")])
    assert _unbounded_memos(source) == ["none", "bare", "cache", "named", "setting", "typed"]


def test_every_memo_has_a_finite_integer_maxsize():
    found = [f"{path.stem}.{name}" for path in sorted((ROOT / "src" / "microfatigue").glob("*.py"))
             for name in _unbounded_memos(path.read_text())]
    assert found == []


SHARED_TEST_MODULES = {"tests.reference", "tests.strategies"}


def _test_module_faults(source: str) -> list[str]:
    """The tests.* modules other than the shared helpers that a test module imports,
    and the reference_* functions it defines, which belong in tests/reference.py."""
    faults = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["tests" if node.level else "", node.module]))
            modules = ([f"{module}.{alias.name}" for alias in node.names]
                       if module == "tests" else [module])
        else:
            modules = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name.startswith("reference_"):
                faults.append(f"defines {node.name}")
        faults += [f"imports {module}" for module in modules
                   if module.split(".")[0] == "tests" and module not in SHARED_TEST_MODULES]
    return faults


def test_test_modules_share_code_only_through_the_helper_modules():
    sample = ("from tests.test_stats import make_sequence\nfrom . import test_cli\n"
              "from tests import reference\nimport tests.strategies\n"
              "def reference_run(): pass\n")
    assert _test_module_faults(sample) == [
        "imports tests.test_stats", "imports tests.test_cli", "defines reference_run"]
    faults = [f"{path.name} {fault}" for path in sorted((ROOT / "tests").glob("test_*.py"))
              for fault in _test_module_faults(path.read_text())]
    assert faults == []


def _raised_names(source: str) -> set[str]:
    """The names raised in source: raise X and raise X(...), X a name or an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    return names - {None}


def test_the_raise_scan_reads_each_raised_name():
    source = ("def f(exc):\n    raise ValueError('x')\n    raise errors.SolverError('y') from exc\n"
              "    raise KeyError\n    raise\n    raise exc\n    SolverLike('not raised')\n")
    assert _raised_names(source) == {"ValueError", "SolverError", "KeyError", "exc"}


def test_every_error_class_is_raised_in_src():
    # An exception type outlives its last raiser unless this fails.
    package = ROOT / "src" / "microfatigue"
    classes = [node.name for node in ast.parse((package / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef) and node.name != "MicrofatigueError"]
    raised = set().union(*(_raised_names(path.read_text()) for path in package.glob("*.py")))
    assert classes and [name for name in classes if name not in raised] == []


# IEEE 754 fixes the results of +, -, *, / and sqrt, but for the other functions of
# math it only recommends correct rounding, and Python's math wraps the platform C
# library: a libm call or a power of a float can round another way on another host.
# The math names whose results no libm decides: exact (ceil, isclose, isfinite,
# nextafter), rounded once by IEEE (sqrt) or by Python's own code (fsum), constants.
LIBM_FREE_MATH = {"ceil", "fsum", "inf", "isclose", "isfinite", "nan", "nextafter", "pi",
                  "sqrt"}
# Per function: the other math names it reads, and its ** or **= other than an int
# literal to an int literal. CPython hands a float power to the platform pow even at
# an integer exponent, and pow need not round as x * x does: on glibc x ** 2 != x * x
# for about 1 in 1 100 uniform x in [0, 1). A power of int names (dixon_mood's n**2)
# counts too, as the scan cannot tell its types. A new libm dependence is a declared edit.
LIBM_SITES = {
    "_normal": (["exp", "log1p"], 1),
    "damage.cycles_to_failure": ([], 1),
    "damage.effective_stiffness_factor": (["sin"], 2),
    "device.derive_mechanics": ([], 4),
    "electromech._drive_scale_and_capacity": ([], 1),
    "electromech._stable_points": (["acos", "cos"], 3),
    "electromech._supply_level": ([], 1),
    "electromech.pull_in_voltage_closed_form": ([], 1),
    "electromech.solver_divisors": ([], 1),
    "loading.waveform": (["sin"], 1),
    "protocols._monitored_run": (["sin"], 2),
    "protocols._softening_run_end": ([], 2),
    "protocols.calibrate_defaults": (["log"], 1),
    "stats.dixon_mood": ([], 1),
    "stats.estimator_recovery_trial": (["erfc"], 0),
    "stats.fit_basquin": (["exp", "log"], 1),
}


def _is_int_literal(node) -> bool:
    # The AST holds a literal without its sign, so 2 ** -1, a float power, is not one.
    return isinstance(node, ast.Constant) and type(node.value) is int


def _libm_sites(path: Path) -> dict[str, tuple[list[str], int]]:
    """Per scope of path: the math names outside LIBM_FREE_MATH that it reads, as
    math.name or from math, and how many ** or **= it holds that are not an int
    literal to an int literal."""
    reads, powers = collections.defaultdict(set), collections.Counter()
    for scope, node in _scoped_nodes(path):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "math"):
            reads[scope] |= {node.attr} - LIBM_FREE_MATH
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            reads[scope] |= {alias.name for alias in node.names} - LIBM_FREE_MATH
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            powers[scope] += not (_is_int_literal(node.left) and _is_int_literal(node.right))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
            powers[scope] += 1
    return {scope: (sorted(reads[scope]), powers[scope])
            for scope in sorted({*reads, *powers}) if reads[scope] or powers[scope]}


def test_the_libm_scan_reads_each_call_and_float_power(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import math\nfrom math import log, sqrt\n"
                    "def solve(x, e):\n    acos, root = math.acos, math.sqrt\n"
                    "    y = math.cos(x) ** 2 + x ** -3 + x ** 0.5 + x ** e + 2.0 ** 52\n"
                    "    y **= e\n    y **= 2\n    n = 2 ** 64 + 2 ** -1 + 2 ** n\n"
                    "    def inner():\n        return math.exp(x) * math.pi + math.fsum([x])\n"
                    "    return y\n")
    assert _libm_sites(path) == {"sample": (["log"], 0), "sample.solve": (["acos", "cos"], 9),
                                 "sample.solve.inner": (["exp"], 0)}


def test_libm_calls_and_float_powers_stay_at_their_known_sites():
    found = {}
    for path in sorted((ROOT / "src" / "microfatigue").glob("*.py")):
        found.update(_libm_sites(path))
    assert found == LIBM_SITES


def _mentions(nodes) -> set[str]:
    """The bare names and attribute names that nodes mention; an import mentions none."""
    found = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
    return found


def _definitions(paths) -> tuple[dict[str, set[str]], set[str]]:
    """Per top-level def and class of the modules at paths, as "module.name", the names
    its body mentions; and the names that the modules' other top-level code mentions."""
    definitions, top_level = {}, set()
    for path in paths:
        body = ast.parse(path.read_text()).body
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions[f"{path.stem}.{node.name}"] = _mentions([node])
        top_level |= _mentions([node for node in body if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))])
    return definitions, top_level


def _reached(definitions: dict[str, set[str]], names: set[str]) -> set[str]:
    """The definitions that names reach, and those that the reached ones mention, on
    to the end. A name reaches every definition of that bare name, whatever its module
    or object: so two definitions that share a name are reached together, and the
    scan over-approximates what is reached."""
    by_name = collections.defaultdict(list)
    for qualified in definitions:
        by_name[qualified.partition(".")[2]].append(qualified)
    reached, todo = set(), [q for name in names for q in by_name[name]]
    while todo:
        qualified = todo.pop()
        if qualified not in reached:
            reached.add(qualified)
            todo += [q for name in definitions[qualified] for q in by_name[name]]
    return reached


def test_the_reach_scan_follows_names_from_top_level_code(tmp_path):
    (tmp_path / "first.py").write_text(
        "from second import unused\nimport second as alias\n"
        "def run():\n    return helper() + alias.method\n"
        "def helper():\n    return 1\n"
        "def unused():\n    pass\n"
        "class Box:\n    def method(self):\n        return shared\n"
        "VALUE = run()\n")
    (tmp_path / "second.py").write_text(
        "def shared():\n    pass\n"
        "def method():\n    pass\n"
        "def unused():\n    pass\n"
        "def alias():\n    pass\n")
    definitions, top_level = _definitions(sorted(tmp_path.glob("*.py")))
    assert top_level == {"VALUE", "run"}
    # By bare names: alias.method reaches second.method, and the module alias the
    # function second.alias. An import reaches nothing, and Box.method, whose body
    # names shared, lies inside Box, which nothing names.
    assert _reached(definitions, top_level) == {"first.run", "first.helper", "second.method",
                                                "second.alias"}


# The definitions in src/ that nothing reaches from the modules' top-level code or the
# command line's main, each with what keeps it. A new one fails here until declared.
UNREACHED = {
    "loading.load_cycles_from_voltage_cycles":
        "paper statement, test_acceptance::test_criterion_2_cycle_doubling",
    "loading.LoadCycleSpec": "paper statement, test_acceptance::test_criterion_2_cycle_doubling",
    "loading._LoadCycleSpec": "the fields of loading.LoadCycleSpec",
    "loading.waveform": "paper statement, test_acceptance::test_criterion_2_cycle_doubling",
    "loading.fatigue_parameters":
        "paper statement, test_acceptance::test_criterion_10_algebraic_identities; "
        "bench/ TRACED_FUNCTIONS (items 16 and 4)",
    "loading.FatigueParameters": "what loading.fatigue_parameters returns",
    "electromech.natural_frequency":
        "paper statement, test_acceptance::test_criterion_4_resonance_sanity; "
        "bench/workloads.py",
    "stats.synthetic_stair_case":
        "paper statement, test_acceptance::test_criterion_10_algebraic_identities; "
        "bench/ TRACED_FUNCTIONS (items 16 and 4)",
    "damage.DamageState": "item 4's dead path: the state damage.accumulate steps",
    "damage.accumulate": "bench/ TRACED_FUNCTIONS (items 16 and 4)",
    "damage.effective_stiffness_factor": "item 4's dead path: damage.degraded_pull_in reads it",
    "damage.degraded_pull_in": "bench/ TRACED_FUNCTIONS (items 16 and 4)",
    "protocols.run_pull_in_detection": "bench/ TRACED_FUNCTIONS (items 16 and 4)",
    "protocols.build_population": "bench/workloads.py and TRACED_FUNCTIONS (item 4)",
}


def test_only_the_declared_definitions_are_unreached():
    definitions, top_level = _definitions(sorted((ROOT / "src" / "microfatigue").glob("*.py")))
    unreached = set(definitions) - _reached(definitions, top_level | {"main"})  # cli.main
    assert sorted(unreached) == sorted(UNREACHED)
    # Each is kept for a test: a word of the test modules reaches it. This module is
    # left out, as UNREACHED above spells every pinned name.
    words = set(re.findall(r"\w+", "".join(
        path.read_text() for path in (ROOT / "tests").glob("*.py")
        if path.name != "test_tooling.py")))
    assert set(UNREACHED) - _reached(definitions, words) == set()

import collections
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import microfatigue
from microfatigue import electromech
from microfatigue.device import (C_K_RESONANCE_PRESET, LENGTH_WINDOW_UM, Device,
                                 DeviceGeometry, Material, derive_mechanics, validate_stiffness)
from microfatigue.electromech import (MAX_CURVE_POINTS, SWEEP_TOL_V,
                                      EquilibriumPoint, natural_frequency,
                                      pull_in_voltage_closed_form,
                                      pull_in_voltage_sweep, static_equilibrium,
                                      stress_conversion_curve)
from microfatigue.loading import fatigue_parameters
from microfatigue.protocols import (calibrate_defaults, strength_scale_from_threshold,
                                    validate_stair_case)
from tests.reference import (PAPER_THRESHOLDS_V, bisect_equilibrium, drive_and_capacity,
                             electrostatic_force, equilibrium_exists, first_supply_level,
                             newton_steps_moved, per_point_curve, per_point_equilibrium,
                             random_device, result_or_fault, two_loop_sweep)
from tests.strategies import floats_around, floats_below


def test_force_zero_voltage(nominal_device):
    d = nominal_device
    assert electrostatic_force(0.0, 1e-6, d.mechanics, d.geometry) == 0.0


def test_force_quadratic_in_voltage(nominal_device):
    d = nominal_device
    f1 = electrostatic_force(1.0, 0.5e-6, d.mechanics, d.geometry)
    f2 = electrostatic_force(2.0, 0.5e-6, d.mechanics, d.geometry)
    assert f2 == pytest.approx(4.0 * f1, rel=1e-12)


def test_force_value_at_13V(nominal_device):
    # eps0 * A_eff * 13^2 / (2 g^2), evaluated independently
    d = nominal_device
    expected = 8.854e-12 * 5.96e-8 * 169.0 / (2.0 * (3e-6) ** 2)
    assert electrostatic_force(13.0, 0.0, d.mechanics, d.geometry) == \
        pytest.approx(expected, rel=1e-12)


def test_force_increases_with_deflection(nominal_device):
    d = nominal_device
    xs = np.linspace(0.0, 0.9 * d.geometry.gap_m, 30)
    forces = [electrostatic_force(5.0, x, d.mechanics, d.geometry) for x in xs]
    assert all(b > a for a, b in zip(forces, forces[1:]))


def test_force_rejects_contact(nominal_device):
    d = nominal_device
    with pytest.raises(ValueError):
        electrostatic_force(5.0, d.geometry.gap_m, d.mechanics, d.geometry)


def test_equilibrium_zero_voltage(nominal_device):
    eq = static_equilibrium(0.0, nominal_device.mechanics, nominal_device.geometry)
    assert eq.deflection_m == 0.0 and eq.stress_Pa == 0.0


def test_equilibrium_13V_matches_oracle(nominal_device):
    d = nominal_device
    eq = static_equilibrium(13.0, d.mechanics, d.geometry)
    oracle_x = bisect_equilibrium(13.0, d.mechanics, d.geometry)
    assert eq.deflection_m == pytest.approx(oracle_x, rel=1e-9)
    # frozen oracle values: x ~ 0.117 um, sigma ~ 25 MPa
    assert eq.deflection_m == pytest.approx(0.1167e-6, rel=2e-3)
    assert eq.stress_Pa == pytest.approx(24.8e6, rel=1e-2)


def test_equilibrium_residual_bound(nominal_device):
    d = nominal_device
    k = d.mechanics.suspension_stiffness_N_m
    g = d.geometry.gap_m
    for v in np.linspace(1.0, 25.0, 25):
        eq = static_equilibrium(float(v), d.mechanics, d.geometry)
        f = electrostatic_force(float(v), eq.deflection_m, d.mechanics, d.geometry)
        assert abs(k * eq.deflection_m - f) / (k * g) < 1e-9


def test_equilibrium_above_pull_in(nominal_device):
    d = nominal_device
    v_pi = pull_in_voltage_closed_form(d.mechanics, d.geometry).pull_in_voltage_V
    assert static_equilibrium(1.01 * v_pi, d.mechanics, d.geometry) is None


def test_stable_branch_monotone_below_third_gap(nominal_device):
    d = nominal_device
    v_pi = pull_in_voltage_closed_form(d.mechanics, d.geometry).pull_in_voltage_V
    xs = [static_equilibrium(float(v), d.mechanics, d.geometry).deflection_m
          for v in np.linspace(0.0, 0.999 * v_pi, 40)]
    assert all(b > a for a, b in zip(xs, xs[1:]))
    assert xs[-1] < d.geometry.gap_m / 3.0


def test_small_rotation_at_13V(nominal_device):
    d = nominal_device
    eq = static_equilibrium(13.0, d.mechanics, d.geometry)
    rotation_deg = math.degrees(math.atan(2 * eq.deflection_m / d.geometry.specimen_length_m))
    assert rotation_deg < 1.0


def test_pull_in_closed_form_nominal(nominal_device):
    d = nominal_device
    res = pull_in_voltage_closed_form(d.mechanics, d.geometry)
    # frozen hand evaluation of sqrt(8 k g^3 / (27 eps0 A_eff))
    assert res.pull_in_voltage_V == pytest.approx(26.395, abs=5e-3)
    assert res.deflection_at_instability_m == pytest.approx(d.geometry.gap_m / 3.0)


def test_pull_in_gap_scaling(nominal_device):
    d = nominal_device
    doubled = d.geometry._replace(gap_um=2 * d.geometry.gap_um)
    base = pull_in_voltage_closed_form(d.mechanics, d.geometry).pull_in_voltage_V
    big = pull_in_voltage_closed_form(d.mechanics, doubled).pull_in_voltage_V
    assert big == pytest.approx(2**1.5 * base, rel=1e-12)


def test_pull_in_stiffness_scaling():
    base_mech = derive_mechanics(DeviceGeometry(), Material(), c_k=1.0)
    stiff_mech = derive_mechanics(DeviceGeometry(), Material(), c_k=2.0)
    geom = DeviceGeometry()
    v1 = pull_in_voltage_closed_form(base_mech, geom).pull_in_voltage_V
    v2 = pull_in_voltage_closed_form(stiff_mech, geom).pull_in_voltage_V
    assert v2 == pytest.approx(math.sqrt(2) * v1, rel=1e-12)


def test_sweep_matches_closed_form_nominal(nominal_device):
    d = nominal_device
    closed = pull_in_voltage_closed_form(d.mechanics, d.geometry)
    sweep = pull_in_voltage_sweep(d.mechanics, d.geometry)
    assert abs(sweep.pull_in_voltage_V - closed.pull_in_voltage_V) < 1e-2
    assert sweep.deflection_at_instability_m == pytest.approx(
        d.geometry.gap_m / 3.0, rel=1e-6)


def test_sweep_matches_closed_form_randomized():
    rng = np.random.default_rng(1234)
    start = time.perf_counter()
    for _ in range(100):
        d = random_device(rng)
        closed = pull_in_voltage_closed_form(d.mechanics, d.geometry)
        sweep = pull_in_voltage_sweep(d.mechanics, d.geometry)
        assert abs(sweep.pull_in_voltage_V - closed.pull_in_voltage_V) < 1e-2
        assert sweep.deflection_at_instability_m == pytest.approx(
            d.geometry.gap_m / 3.0, rel=1e-6)
    assert time.perf_counter() - start < 10.0


def test_natural_frequency_nominal(nominal_device):
    assert natural_frequency(nominal_device.mechanics) == pytest.approx(14.5e3, rel=0.01)


def test_natural_frequency_resonance_preset():
    mech = Device.nominal(c_k=C_K_RESONANCE_PRESET).mechanics
    assert natural_frequency(mech) == pytest.approx(28e3, rel=0.05)


def test_natural_frequency_stiffness_scaling():
    f1 = natural_frequency(derive_mechanics(DeviceGeometry(), Material(), c_k=1.0))
    f4 = natural_frequency(derive_mechanics(DeviceGeometry(), Material(), c_k=4.0))
    assert f4 == pytest.approx(2 * f1, rel=1e-12)


def test_conversion_curve(nominal_device):
    d = nominal_device
    points = stress_conversion_curve(d.mechanics, d.geometry, V_max=20.0, n_points=41)
    assert points[0].voltage_V == 0.0 and points[0].stress_Pa == 0.0
    stresses = [p.stress_Pa for p in points]
    assert all(b > a for a, b in zip(stresses, stresses[1:]))
    # super-linear: stress grows faster than voltage
    v13 = [p for p in points if p.voltage_V == pytest.approx(13.0)][0]
    assert v13.stress_Pa == pytest.approx(24.8e6, rel=1e-2)
    mid, last = points[len(points) // 2], points[-1]
    assert last.stress_Pa / mid.stress_Pa > last.voltage_V / mid.voltage_V


def test_conversion_curve_rejects_vmax_above_pull_in(nominal_device):
    d = nominal_device
    with pytest.raises(ValueError):
        stress_conversion_curve(d.mechanics, d.geometry, V_max=30.0)


@pytest.mark.parametrize("V_max, n_points", [(math.nan, 41), (-1.0, 41), (20.0, 1),
                                             (20.0, MAX_CURVE_POINTS + 1)])
def test_conversion_curve_rejects_bad_arguments(nominal_device, V_max, n_points):
    d = nominal_device
    with pytest.raises(ValueError):
        stress_conversion_curve(d.mechanics, d.geometry, V_max=V_max, n_points=n_points)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 26.0), st.integers(2, 500))
@example(5e-324, 3)
@example(5e-324, 200)
@example(1e-300, 7)
@example(0.0, 2)
def test_conversion_curve_voltages_equal_linspace(V_max, n_points):
    d = Device.nominal()
    points = stress_conversion_curve(d.mechanics, d.geometry, V_max=V_max, n_points=n_points)
    assert ([repr(p.voltage_V) for p in points]
            == [repr(v) for v in np.linspace(0.0, V_max, n_points).tolist()])


def _run_fresh(code, *args, timeout=120):
    """stdout of Python code run with args in a fresh interpreter on this source tree."""
    src = os.path.dirname(os.path.dirname(microfatigue.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True, timeout=timeout).stdout


# The package's modules in layers: a module's import loads no package module listed
# after it, so the package import loads no submodule.
LAYERS = ["microfatigue", "microfatigue.errors", "microfatigue._normal",
          "microfatigue.electromech", "microfatigue.device", "microfatigue.loading",
          "microfatigue.damage", "microfatigue.protocols", "microfatigue.stats",
          "microfatigue.emit", "microfatigue.config", "microfatigue.cli"]


@pytest.mark.parametrize("module", LAYERS)
def test_import_graph(module):
    loaded = _run_fresh(f"import sys, {module}; print(*(m for m in sys.modules "
                        "if m.split('.')[0] == 'microfatigue'))").split()
    assert module in loaded
    assert set(loaded) <= {"microfatigue", *LAYERS[1:LAYERS.index(module) + 1]}


# The modules whose loading is pinned per command: the array and logging stacks, what
# the package import loads of the stdlib beyond its floor (dataclasses, which loads
# inspect), and fractions with decimal, which only damage.DamageState's makers import.
WATCHED = ["numpy", "scipy", "logging", "dataclasses", "inspect", "fractions", "decimal"]
AT_IMPORT = ["dataclasses", "inspect"]

# Runs each argv of the JSON list in sys.argv[1] through cli_dispatch and prints,
# after the import and after each command, (exit code, the modules of the JSON list
# in sys.argv[2] then loaded).
_DISPATCH = """
import contextlib, io, json, sys
watched = set(json.loads(sys.argv[2]))
def loaded():
    return sorted(watched.intersection(m.split(".")[0] for m in sys.modules))
from microfatigue.cli import cli_dispatch
seen = [(0, loaded())]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen.append((cli_dispatch(argv), loaded()))
print(json.dumps(seen))
"""


def _dispatch_fresh(*argvs):
    return [tuple(step) for step in json.loads(_run_fresh(_DISPATCH, json.dumps(argvs),
                                                          json.dumps(WATCHED)))]


def test_cold_commands_load_no_numpy(tmp_path):
    """The commands that make no array run in one process and load none of WATCHED
    beyond the import's; recovery, in its own, adds numpy."""
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"campaign": {"strengths_V": PAPER_THRESHOLDS_V}}))
    points = tmp_path / "points.csv"
    points.write_text("level_V,cycles,censored\n14,1000,0\n15,500,0\n")
    out = ["--out", str(tmp_path / "out")]
    cold = [["pullin"], ["curve", "--vmax", "25", "--points", "200"],
            [*out, "fatigue", "--va", "14"], ["--show-defaults"],
            ["--config", str(table), *out, "staircase"], [*out, "staircase"],
            ["wohler", "--points-csv", str(points)]]
    assert _dispatch_fresh(*cold) == [(0, AT_IMPORT)] * (len(cold) + 1)
    assert _dispatch_fresh(["recovery", "--replications", "5"]) == [
        (0, AT_IMPORT), (0, sorted([*AT_IMPORT, "numpy"]))]


# The stdlib modules that `import microfatigue.cli` loads beyond `import argparse, json`
# under python -S, on CPython 3.11: typing, numbers, and dataclasses with inspect and its
# parsers. Each module that goes shrinks the pin. PATHLIB_MODULES went with pathlib, and
# fractions with decimal behind damage's lazy import; no interpreter may load them.
S_IMPORT_BUDGET = [
    "__future__", "_ast", "_opcode", "_struct", "_typing", "_weakrefset", "ast",
    "collections.abc", "contextlib", "copy", "dataclasses", "dis", "importlib",
    "importlib._bootstrap", "importlib._bootstrap_external", "importlib.machinery",
    "inspect", "linecache", "math", "numbers", "opcode", "struct", "token", "tokenize",
    "typing", "typing.io", "typing.re", "weakref"]
PATHLIB_MODULES = ["errno", "fnmatch", "ipaddress", "ntpath", "pathlib", "urllib",
                   "urllib.parse"]
FRACTIONS_MODULES = ["_decimal", "decimal", "fractions"]


def _modules_under_S(code):
    """The modules loaded after Python code, run under python -S on this source tree."""
    src = os.path.dirname(os.path.dirname(microfatigue.__file__))
    result = subprocess.run(
        [sys.executable, "-S", "-c", f"{code}; import sys; print(*sorted(sys.modules))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
        timeout=120)
    return set(result.stdout.split())


def test_the_cli_import_loads_only_the_pinned_stdlib_under_S():
    # -S runs no site start-up hook, which may preload modules and so hide them.
    beyond = sorted(name for name in _modules_under_S("import microfatigue.cli")
                    - _modules_under_S("import argparse, json")
                    if name.split(".")[0] != "microfatigue")
    assert not set(PATHLIB_MODULES + FRACTIONS_MODULES) & set(beyond)
    if sys.version_info[:2] == (3, 11):
        assert beyond == S_IMPORT_BUDGET


def test_import_loads_no_scipy():
    assert _run_fresh("import sys, microfatigue.cli; print(sorted(m for m in sys.modules "
                      "if m.split('.')[0] == 'scipy'))").strip() == "[]"


# The nominal device, or one varied the way the benchmark's device
# characterisation varies it; every variant keeps pull-in above 21 V.
DEVICES = st.one_of(
    st.just(Device.nominal()),
    st.builds(lambda gap_um, thickness_um, c_k: Device.assemble(
        DeviceGeometry(gap_um=gap_um, specimen_thickness_um=thickness_um), Material(),
        c_k=c_k),
        st.floats(2.85, 3.3), st.floats(1.75, 2.0), st.floats(1.0, 2.5)))


@given(device=DEVICES, fraction=st.floats(0.0, 0.9, exclude_min=True))
@settings(max_examples=300, deadline=None)
def test_equilibrium_within_16_ulp_of_exact_root(device, fraction):
    mech, geom = device.mechanics, device.geometry
    V = fraction * pull_in_voltage_closed_form(mech, geom).pull_in_voltage_V
    x = static_equilibrium(V, mech, geom).deflection_m
    k, g = Fraction(mech.suspension_stiffness_N_m), Fraction(geom.gap_m)
    drive = Fraction(drive_and_capacity(V, mech, geom)[0])

    def residual(y):
        return k * y * (g - y) ** 2 - drive

    # Exact residual on the float inputs: the true root lies within 16 ulp.
    margin = 16 * Fraction(math.ulp(x))
    assert residual(Fraction(x) - margin) <= 0 <= residual(Fraction(x) + margin)


# Only stiffness, area and gap enter the solve. On the first float below this
# device's pull-in, 13.5*q - 1 rounds to just above 1, outside acos' domain.
ACOS_ARGUMENT_PAST_ONE = Device(
    geometry=DeviceGeometry(gap_um=1.6628004442445596), material=Material(),
    mechanics=Device.nominal().mechanics._replace(suspension_stiffness_N_m=75.72536804548639,
                                                  effective_area_m2=1.4749716561769721e-08))


@given(device=DEVICES)
@example(device=ACOS_ARGUMENT_PAST_ONE)
@settings(max_examples=100, deadline=None)
def test_equilibrium_robust_in_last_floats_below_pull_in(device):
    mech, geom = device.mechanics, device.geometry
    deflections = []
    for V in floats_below(v_pi_of(device), 60):
        eq = static_equilibrium(V, mech, geom)
        if not equilibrium_exists(V, mech, geom):
            assert eq is None
            continue
        assert 0.0 <= eq.deflection_m <= geom.gap_m / 3.0
        deflections.append(eq.deflection_m)
    assert deflections
    # V steps down, so the deflection may not grow.
    assert all(b <= a for a, b in zip(deflections, deflections[1:]))


# At this step v - step_V rounds up to the first float without equilibrium, so no
# float of the step bracket has one; the deflection is still read below the limit.
BRACKET_ABOVE_LIMIT = (Device.assemble(DeviceGeometry(gap_um=2.91, specimen_thickness_um=1.96),
                                       Material(), c_k=2.1), 20.760440951626993)


# Steps at which ceil(limit/step_V) for the nominal device is one level low (19 * step_V
# rounds below the limit) and one level high (121 * step_V rounds up onto it).
CEIL_LOW, CEIL_HIGH = 1.3892178990879616, 0.21814165357579562


@given(device=DEVICES, step_V=st.floats(0.01, 60.0))
@example(*BRACKET_ABOVE_LIMIT)
@example(Device.nominal(), CEIL_LOW)
@example(Device.nominal(), CEIL_HIGH)
@settings(max_examples=200, deadline=None)
def test_sweep_matches_two_loop_reference(device, step_V):
    mech, geom = device.mechanics, device.geometry
    assert pull_in_voltage_sweep(mech, geom, step_V=step_V) == two_loop_sweep(mech, geom, step_V)


NOMINAL_LIMIT = 26.395140082671272  # _sweep_limit of the nominal device


@given(limit=st.floats(0.0, 1e300), steps=st.floats(2.0**-20, 2.0**80))
@example(limit=NOMINAL_LIMIT, steps=NOMINAL_LIMIT / CEIL_LOW)
@example(limit=NOMINAL_LIMIT, steps=NOMINAL_LIMIT / CEIL_HIGH)
@example(limit=0.0, steps=1.0)
@example(limit=5e-324, steps=1.0)  # a subnormal step
@example(limit=NOMINAL_LIMIT, steps=2.0**52)
@settings(max_examples=300, deadline=None)
def test_supply_level_is_the_first_grid_level_at_the_limit(limit, steps):
    step_V = limit / steps if limit else 1e-3
    assume(step_V > 0.0)
    level, exact = electromech._supply_level(limit, step_V), first_supply_level(limit, step_V)
    if limit / step_V < 2.0**52:
        assert level == exact
    else:  # the first level lies within two floats of the limit, which is read
        assert level == limit <= exact <= math.nextafter(math.nextafter(limit, math.inf),
                                                         math.inf)


class CountedScale(float):
    """A drive scale that counts the products taken with it: one per evaluation
    of the existence test drive_scale*v*v/2.0 < capacity."""

    products = 0

    def __mul__(self, other):
        CountedScale.products += 1
        return float(self) * other


# Two evaluations around the closed-form guess, then at most 63 bisection steps
# over the bit patterns of the floats in [0, inf].
MAX_LIMIT_EVALUATIONS = 65


@st.composite
def window_devices(draw):
    """A device whose layout lengths sit at the ends of the length window (or
    nominal), with a Young's modulus and c_k up to what validate_stiffness accepts."""
    nominal = DeviceGeometry()
    lengths = {name: draw(st.sampled_from((*LENGTH_WINDOW_UM, getattr(nominal, name))))
               for name in ("specimen_length_um", "specimen_width_um", "specimen_thickness_um",
                            "plate_length_um", "plate_width_um", "gap_um")}
    geom = DeviceGeometry(**lengths, hole_count=draw(st.sampled_from((0, 40))))
    E_GPa = 10.0 ** draw(st.floats(-3.0, 299.0))
    c_k = 10.0 ** draw(st.floats(-300.0, 300.0))
    try:
        device = Device.assemble(geom, Material(E_GPa=E_GPa), c_k=c_k)
    except ValueError:
        assume(False)
    assume(not validate_stiffness(device.mechanics, device.geometry))
    return device


def hand_built(stiffness, area=Device.nominal().mechanics.effective_area_m2):
    nominal = Device.nominal()
    return nominal._replace(mechanics=nominal.mechanics._replace(
        suspension_stiffness_N_m=stiffness, effective_area_m2=area))


# Capacity 0, subnormal, inf and NaN, from the stiffness a hand-built
# DerivedMechanics carries; then a drive scale so large that drive_scale*v*v
# underflows near the limit, which lies 1.7e7 floats above the closed-form guess.
HAND_BUILT = [hand_built(k) for k in (0.0, 1e-300, math.inf, math.nan)] + \
    [hand_built(1e-150, area=1e160)]


@given(device=st.one_of(window_devices(), st.sampled_from(HAND_BUILT), DEVICES),
       steps=st.floats(0.5, 1e4))
@example(device=HAND_BUILT[0], steps=1.0)
@example(device=HAND_BUILT[1], steps=1.0)
@example(device=HAND_BUILT[2], steps=1e4)
@example(device=HAND_BUILT[3], steps=1.0)
@example(device=HAND_BUILT[4], steps=1e4)
@settings(max_examples=300, deadline=None)
def test_sweep_limit_is_the_first_float_without_equilibrium(device, steps):
    mech, geom = device.mechanics, device.geometry
    drive_scale, capacity = electromech._drive_scale_and_capacity(mech, geom)
    CountedScale.products = 0
    limit = electromech._sweep_limit(CountedScale(drive_scale), capacity)
    assert CountedScale.products <= MAX_LIMIT_EVALUATIONS
    assert 0.0 <= limit < math.inf and not equilibrium_exists(limit, mech, geom)
    if limit > 0.0:
        assert equilibrium_exists(math.nextafter(limit, 0.0), mech, geom)
    # At most about 1e4 supply steps to pull-in, over a bracket of normal floats; a
    # limit above 2**43 V reads at the adjacent-float stop, and a zero limit steps by
    # SWEEP_TOL_V, a first bracket as wide as the tolerance.
    if limit == 0.0 or limit > 1e-290:
        step_V = limit / steps if limit else SWEEP_TOL_V
        assert pull_in_voltage_sweep(mech, geom, step_V=step_V) == \
            two_loop_sweep(mech, geom, step_V)


@pytest.mark.parametrize("V", [-1.0, -5e-324, math.nan, NOMINAL_LIMIT, 2 * NOMINAL_LIMIT])
def test_solve_refuses_every_voltage_it_cannot_solve(nominal_device, V):
    # Below 0 V, NaN, or at or above the first float without equilibrium.
    d = nominal_device
    assert electromech._stable_points((V,), d.mechanics, d.geometry) == [None]


def test_solve_reads_either_zero_as_the_exact_zero_point(nominal_device):
    d = nominal_device
    points = electromech._stable_points((0.0, -0.0), d.mechanics, d.geometry)
    assert [tuple(map(repr, p)) for p in points] == [("0.0", "0.0", "0.0")] * 2


@pytest.fixture
def cleared_constants():
    """The device-constant memo, empty before the test and after it."""
    electromech._device_constants.cache_clear()
    yield electromech._device_constants
    electromech._device_constants.cache_clear()


def test_sweep_steps_compare_floats_only(nominal_device, monkeypatch, cleared_constants):
    # Guards the float-only supply read without a clock, at 528 steps to pull-in
    # and at 2.6e10: the device constants are derived once, on the first sweep's
    # read of the memo, and each sweep finds its limit once; the only other test of
    # equilibrium is the deflection read at the float below that limit.
    events = []
    constants, limit_of = electromech._drive_scale_and_capacity, electromech._sweep_limit

    def counted_constants(mech, geom):
        events.append("constants")
        drive_scale, capacity = constants(mech, geom)
        return CountedScale(drive_scale), capacity

    def counted_limit(drive_scale, capacity):
        events.append("limit")
        return limit_of(drive_scale, capacity)

    monkeypatch.setattr(electromech, "_drive_scale_and_capacity", counted_constants)
    monkeypatch.setattr(electromech, "_sweep_limit", counted_limit)
    d = nominal_device
    for step_V, derived in ((0.05, ["constants"]), (1e-9, [])):
        events.clear()
        CountedScale.products = 0
        res = electromech.pull_in_voltage_sweep(d.mechanics, d.geometry, step_V=step_V)
        assert res.pull_in_voltage_V == pytest.approx(26.395, abs=5e-3)
        # The equilibrium solve at the end reads the memo the sweep filled.
        assert events == [*derived, "limit"]
        assert CountedScale.products <= MAX_LIMIT_EVALUATIONS + 1


_NOMINAL = Device.nominal()
_MECH, _GEOM = _NOMINAL.mechanics, _NOMINAL.geometry
# Hand-built pairs whose constants hang on a zero's sign, each spelling of it next to
# the other; a NaN field; copies of the nominal pair, equal to it but other objects,
# one with the int gap 3 for 3.0; and the nominal pair itself.
MEMO_PAIRS = [
    (_MECH, _GEOM._replace(gap_um=0.0)), (_MECH, _GEOM._replace(gap_um=-0.0)),
    (_MECH._replace(suspension_stiffness_N_m=-0.0), _GEOM),
    (_MECH._replace(suspension_stiffness_N_m=0.0), _GEOM),
    (_MECH._replace(effective_area_m2=0.0), _GEOM),
    (_MECH._replace(effective_area_m2=-0.0), _GEOM),
    (_MECH, _GEOM._replace(specimen_length_um=-0.0)),
    (_MECH, _GEOM._replace(specimen_length_um=0.0)),
    (_MECH._replace(stiffness_calibration=0.0), _GEOM),
    (_MECH._replace(suspension_stiffness_N_m=math.nan), _GEOM),
    (_MECH._replace(), _GEOM._replace()), (_MECH, _GEOM._replace(gap_um=3)),
    (_MECH, _GEOM),
]
MEMO_VOLTAGES = (0.0, -0.0, 1.0, 13.0, 26.0, 27.0)


def solve_results(mech, geom):
    """The solve at MEMO_VOLTAGES, the closed form and the sweep of the pair, or the
    fault each raises, by repr: a zero's sign counts."""
    return [repr(result_or_fault(call)) for call in (
        lambda: electromech._stable_points(MEMO_VOLTAGES, mech, geom),
        lambda: pull_in_voltage_closed_form(mech, geom),
        lambda: pull_in_voltage_sweep(mech, geom, step_V=1.0))]


def test_the_device_memo_returns_what_a_cleared_memo_does(cleared_constants):
    alone = []
    for mech, geom in MEMO_PAIRS:
        cleared_constants.cache_clear()
        alone.append(solve_results(mech, geom))
    assert alone[0] != alone[1] and alone[2] != alone[3]  # the signs do show
    # Each pair after the others, in both orders, the memo kept throughout.
    cleared_constants.cache_clear()
    order = [*range(len(MEMO_PAIRS)), *reversed(range(len(MEMO_PAIRS)))]
    for i in order:
        assert solve_results(*MEMO_PAIRS[i]) == alone[i], MEMO_PAIRS[i]
    info = cleared_constants.cache_info()
    assert info.maxsize == 8 and info.currsize == 8 and info.hits > 3 * info.misses


def test_sweep_rejects_negative_effective_area(nominal_device):
    mech = nominal_device.mechanics._replace(effective_area_m2=-1e-8)
    with pytest.raises(ValueError, match="effective_area_m2"):
        pull_in_voltage_sweep(mech, nominal_device.geometry)


# Runs the sweep of the nominal device with c_k, at step_V, from sys.argv and prints
# its closed-form and detected pull-in, or the ValueError it raises.
_SWEEP = """
import sys
from microfatigue.device import Device
from microfatigue.electromech import pull_in_voltage_closed_form, pull_in_voltage_sweep
d = Device.nominal(c_k=float(sys.argv[2]))
try:
    res = pull_in_voltage_sweep(d.mechanics, d.geometry, step_V=float(sys.argv[1]))
except ValueError as exc:
    print(type(exc).__name__, exc)
else:
    print(pull_in_voltage_closed_form(d.mechanics, d.geometry).pull_in_voltage_V,
          repr(res.pull_in_voltage_V))
"""
# The step_V rows raise before the device is read, whatever its c_k.
SWEEP_ROWS = [("nan", "1e-3", "step_V"), ("inf", "1e-3", "step_V"), ("-inf", "1e-3", "step_V"),
              ("0", "1e-3", "step_V"), ("-1", "1e-3", "step_V"),
              # Pull-in far below one step: 2.6e-149 V, and 0 V where the stiffness
              # underflows.
              ("0.05", "1e-300", None), ("0.05", "5e-324", None),
              # Pull-in at 2.6e14 V, where adjacent floats lie 2**-5 V > SWEEP_TOL_V apart.
              ("1e12", "1e26", None),
              # 2.6e10 steps to pull-in; and 2.6e16, and 5e324 (limit/step_V
              # overflows), steps finer than the floats near pull-in.
              ("1e-9", "1", None), ("1e-15", "1", None), ("5e-324", "1", None)]


# Each id names the step, the device's c_k and the argument at fault.
@pytest.mark.parametrize("step_V, c_k, fault", SWEEP_ROWS,
                         ids=[f"{step_V}-{c_k}-{fault}" for step_V, c_k, fault in SWEEP_ROWS])
def test_sweep_returns_or_raises_within_bound(step_V, c_k, fault):
    # In a fresh process with a timeout, so that a sweep that never ends fails.
    out = _run_fresh(_SWEEP, step_V, c_k, timeout=30).strip()
    if fault is not None:
        assert out.startswith(f"ValueError {fault}: must be finite and > 0")
        return
    closed, detected = map(float, out.split())
    if closed < 2.0**43:
        assert abs(detected - closed) <= SWEEP_TOL_V
    else:
        # A tolerance below the float spacing stops at adjacent floats around pull-in.
        assert detected == pytest.approx(closed, rel=1e-15)


def point_reprs(point):
    return None if point is None else tuple(repr(field) for field in point)


def v_pi_of(device):
    return pull_in_voltage_closed_form(device.mechanics, device.geometry).pull_in_voltage_V


@st.composite
def solve_cases(draw):
    """A device, single voltages to solve on it, and a curve's V_max and point count."""
    device = draw(DEVICES)
    v_pi = v_pi_of(device)
    below_pull_in = st.one_of(
        st.floats(0.0, 1.0, exclude_max=True).map(lambda f: f * v_pi),
        st.integers(1, 60).map(lambda n: floats_below(v_pi, n)[-1]))
    voltages = draw(st.lists(st.one_of(
        st.just(0.0),
        st.floats(0.0, 2.2250738585072014e-308),  # zero and the subnormals
        below_pull_in,
        st.floats(1.0, 1e6).map(lambda f: f * v_pi),
        st.just(math.nextafter(v_pi, math.inf))), min_size=1, max_size=20))
    V_max = draw(below_pull_in.filter(lambda v: v < v_pi))
    return device, voltages, V_max, draw(st.integers(2, 60))


ACOS_LAST_FLOATS = floats_below(v_pi_of(ACOS_ARGUMENT_PAST_ONE), 60)
# The benchmark's curve on the nominal device: 200 points to 98% of pull-in.
NOMINAL_CURVE = (Device.nominal(), [], 0.98 * v_pi_of(Device.nominal()), 200)


@given(case=solve_cases())
@example(case=(ACOS_ARGUMENT_PAST_ONE, [0.0, 5e-324, *ACOS_LAST_FLOATS], ACOS_LAST_FLOATS[0],
               200))
@example(case=NOMINAL_CURVE)
@settings(max_examples=200, deadline=None)
def test_solve_bit_equal_to_per_point_reference(case):
    device, voltages, V_max, n_points = case
    mech, geom = device.mechanics, device.geometry
    for V in voltages:
        assert point_reprs(static_equilibrium(V, mech, geom)) == \
            point_reprs(per_point_equilibrium(V, mech, geom)), V
    try:
        expected = per_point_curve(mech, geom, V_max, n_points)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            stress_conversion_curve(mech, geom, V_max, n_points)
        return
    assert [point_reprs(p) for p in stress_conversion_curve(mech, geom, V_max, n_points)] == \
        [point_reprs(p) for p in expected]


def test_the_nominal_curve_reaches_every_newton_exit():
    # The solve stops Newton after the step that returns its own u, or after step 3:
    # the bit-equal test's nominal curve holds points that leave at each exit, and
    # points whose third step still moves u.
    device, _, V_max, n_points = NOMINAL_CURVE
    mech, geom = device.mechanics, device.geometry
    moved = collections.Counter(newton_steps_moved(p.voltage_V, mech, geom)
                                for p in stress_conversion_curve(mech, geom, V_max, n_points))
    # 2, 98, 75 and 24 points with glibc's acos and cos, whether a step squares by
    # multiplying or by pow.
    assert {0, 1, 2, 3} <= set(moved)


# Default-device voltages whose solve depends on how a Newton step squares: the
# residual u * (w * w) - q gives these points, while u * w ** 2 (the platform pow) and
# u * w * w (which rounds (u * w) * w) each land one ulp of deflection away at both.
SQUARED_BY_PRODUCT = [
    (14.719249867101633, ("1.5352085953376507e-07", "32663098.07440386")),
    (26.016369822484936, ("8.109500209965467e-07", "172537726.46722528")),
]


@pytest.mark.parametrize("V, expected", SQUARED_BY_PRODUCT, ids=["14.7V", "26.0V"])
def test_a_newton_step_squares_by_one_product(V, expected):
    device = Device.nominal()
    point = static_equilibrium(V, device.mechanics, device.geometry)
    assert point_reprs(point) == (repr(V), *expected)


# Its closed-form pull-in is 58.05753654526649 V, and the solve finds no stable
# equilibrium one float below, at 58.05753654526648 V.
CLOSED_FORM_ABOVE_SOLVER_LIMIT = Device.assemble(
    DeviceGeometry(gap_um=3.314910558789685, specimen_thickness_um=2.174885110713723),
    Material(), c_k=2.032947392059255)


def test_closed_form_can_lie_above_the_solver_limit():
    device = CLOSED_FORM_ABOVE_SOLVER_LIMIT
    assert v_pi_of(device) == 58.05753654526649
    assert static_equilibrium(58.05753654526648, device.mechanics, device.geometry) is None


def accepts(call) -> bool:
    """Whether call returns; the rejection of a voltage is a ValueError."""
    try:
        call()
    except ValueError:
        return False
    return True


@given(device=DEVICES)
@example(device=CLOSED_FORM_ABOVE_SOLVER_LIMIT)
@settings(max_examples=60, deadline=None)
def test_each_pull_in_check_takes_the_solver_verdict(device):
    # Within 3 floats of the closed form, the two can disagree; every check that a
    # voltage lies below pull-in must accept exactly where the solve finds an equilibrium.
    mech, geom = device.mechanics, device.geometry
    params = calibrate_defaults(device)
    for V in floats_around(v_pi_of(device), 3):
        stable = static_equilibrium(V, mech, geom) is not None
        assert accepts(lambda: fatigue_parameters(V, mech, geom)) == stable, V
        assert accepts(lambda: strength_scale_from_threshold(V, device, params)) == stable, V
        assert accepts(lambda: stress_conversion_curve(mech, geom, V)) == stable, V
        assert accepts(lambda: calibrate_defaults(device, calibrate_immediate_V=V)) == stable, V
        faults = validate_stair_case([V], 1.0, V, 2, device)
        assert [fault.partition(":")[0] for fault in faults] == ([] if stable else ["levels_V"])


def test_curve_refuses_a_voltage_refused_below_its_end(nominal_device):
    # With a negative area and stiffness the drive falls as V grows, so the solve
    # refuses the curve's low voltages and accepts its end: the whole curve is refused.
    mech = nominal_device.mechanics
    mech = mech._replace(effective_area_m2=-mech.effective_area_m2,
                         suspension_stiffness_N_m=-mech.suspension_stiffness_N_m)
    geom = nominal_device.geometry
    assert static_equilibrium(40.0, mech, geom) is not None
    assert static_equilibrium(10.0, mech, geom) is None
    with pytest.raises(ValueError, match=r"^V_max 40.0 V must lie in \[0, 26.395\) V"):
        stress_conversion_curve(mech, geom, 40.0, 5)


def test_curve_makes_no_per_point_solve_call(nominal_device, monkeypatch):
    # Guards the one-loop curve without a clock: no point goes through
    # electromech.static_equilibrium.
    calls = []

    def counted(V, mech, geom):
        calls.append(V)
        return static_equilibrium(V, mech, geom)

    monkeypatch.setattr(electromech, "static_equilibrium", counted)
    d = nominal_device
    points = electromech.stress_conversion_curve(d.mechanics, d.geometry, 25.0, 200)
    assert len(points) == 200 and points[-1].voltage_V == 25.0
    assert calls == []


def test_equilibrium_point_is_an_immutable_record():
    point = EquilibriumPoint(1.0, 2.0, 3.0)
    assert EquilibriumPoint._fields == ("voltage_V", "deflection_m", "stress_Pa")
    assert (point.voltage_V, point.deflection_m, point.stress_Pa) == tuple(point)
    assert tuple(point) == (1.0, 2.0, 3.0)
    with pytest.raises(AttributeError):
        point.stress_Pa = 0.0

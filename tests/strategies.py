"""Hypothesis strategies of JSON run configs, shared by the config and CLI tests."""

import dataclasses
import typing

from hypothesis import strategies as st

from microfatigue.config import RunConfig, default_config
from microfatigue.device import LENGTH_WINDOW_UM

NAN, INF = float("nan"), float("inf")
# Wrong-typed values and the JSON specials (null is valid for optional fields only).
ODD_VALUES = st.sampled_from([True, False, None, NAN, INF, -INF, "13", "", [], {}, [1.0]])
BASQUIN = ("basquin_coefficient_Pa", "basquin_exponent", "endurance_stress_Pa")
# Magnitudes near the ends of the float range, positive and negative.
EXTREMES = [5e-324, 1e-300, 1e299, 1e300, 1.7e308, -1e300]


def _values(hint, typical, good: bool):
    """In-range values of a field near typical, or out-of-range and wrong-typed ones."""
    args = typing.get_args(hint)
    if type(None) in args:
        hint = args[0]
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        lists = st.lists(_values(item, typical[0], good), min_size=0 if good else 1, max_size=8)
        return lists if good else st.one_of(lists, ODD_VALUES)
    if hint is str:
        return st.text(max_size=4) if good else ODD_VALUES
    near = st.floats(0.8, 1.25).map(lambda f: typical * f)
    if hint is int:
        near = st.one_of(near.map(round), near.map(lambda v: float(round(v))))
        far = st.one_of(st.sampled_from([0, -1, round(typical * 1e3), 10**300, 1e300]),
                        st.floats(0.1, 0.9))
    else:
        far = st.sampled_from([0.0, -1.0, -typical, typical * 1e3, typical * 1e-3, *EXTREMES])
    return near if good else st.one_of(far, ODD_VALUES)


CALIBRATED = default_config().damage_params(default_config().device())


def _typical(section, name):
    value = getattr(getattr(default_config(), section), name)
    if value is None:  # explicit damage and strengths: start from the default campaign
        value = getattr(CALIBRATED, name, (13.0,) * 6)
    return value


SECTION_HINTS = {f.name: typing.get_type_hints(type(getattr(default_config(), f.name)))
                 for f in dataclasses.fields(RunConfig)}
FIELDS = sorted((section, name) for section, hints in SECTION_HINTS.items() for name in hints)


def _field_values(section, name, good):
    return _values(SECTION_HINTS[section][name], _typical(section, name), good)


LENGTHS = [name for name, hint in SECTION_HINTS["geometry"].items() if hint is float]
# A scale within ten decades of either end of the float range.
CORNER_SCALES = st.floats(1e-300, 1e-290) | st.floats(1e290, 1e300)


@st.composite
def corner_devices(draw):
    """A device at the corners of its windows: each length at a window end or its
    default, and c_k, E_GPa and rho each near 1e-300, near 1e300 or at its default."""
    geometry = {name: value for name in LENGTHS
                if (value := draw(st.sampled_from([None, *LENGTH_WINDOW_UM]))) is not None}
    return {"geometry": {**geometry, "hole_count": draw(st.sampled_from([0, 40]))},
            "material": {name: draw(CORNER_SCALES)
                         for name in ("E_GPa", "rho_kg_per_um3") if draw(st.booleans())},
            "model": {"c_k": draw(CORNER_SCALES)} if draw(st.booleans()) else {}}


@st.composite
def valid_json_configs(draw):
    """JSON-shaped configs with no faulty field: at times a corner device, then
    in-range overrides. A corner device or a drawn campaign may still not run."""
    config = draw(corner_devices()) if draw(st.booleans()) else {}
    for section, name in draw(st.lists(st.sampled_from(FIELDS), unique=True, max_size=6)):
        config.setdefault(section, {})[name] = draw(_field_values(section, name, good=True))
    if draw(st.booleans()):  # a campaign on its own step grid, so runs start
        step = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
        base = draw(st.floats(5.0, 20.0))
        levels = [base + k * step for k in range(draw(st.integers(1, 5)))]
        config.setdefault("campaign", {}).update(
            levels_V=levels, step_V=step, start_level_V=draw(st.sampled_from(levels)))
    if draw(st.booleans()):  # explicit damage parameters instead of the calibration
        config.setdefault("damage", {}).update(
            {name: draw(_field_values("damage", name, good=True)) for name in BASQUIN})
    return config


@st.composite
def json_configs(draw):
    """valid_json_configs with up to two faulty fields.

    A faulty number is zero, negative, 1e3 or 1e-3 times a typical value, or
    near the ends of the float range.
    """
    config = draw(valid_json_configs())
    for section, name in draw(st.lists(st.sampled_from(FIELDS), max_size=2)):
        config.setdefault(section, {})[name] = draw(_field_values(section, name, good=False))
    return config

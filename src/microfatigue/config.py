"""Run configuration: nested JSON ingestion with full defaults.

Values are in the units of the device data sheet: geometry in microns,
the Young modulus in GPa and the density in kg/um^3; ``device`` converts
them to SI. An empty config resolves to the nominal device and the
published protocol constants. Each default is stated once, by its owner
(``device.DeviceGeometry`` is the geometry section, ``device.Material`` the
material section). Each bound is stated once, by its owner too: a value is
checked against its field annotation, then the validators that the library
functions taking it raise on; every fault is a ConfigError naming its path.
"""

from __future__ import annotations

import json
import sys
import typing
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

from .damage import DamageModelParams
from .device import (DEFAULT_C_K, Device, DeviceGeometry, Material, validate_c_k,
                     validate_geometry, validate_material, validate_stiffness)
from .electromech import DEFAULT_SWEEP_STEP_V, validate_sweep_steps
from .emit import attribute_writer
from .errors import ConfigError
from .protocols import (DEFAULT_DETECTION_INTERVAL, DEFAULT_DETECTION_STEP_V,
                        DEFAULT_DROP_FRACTION, DEFAULT_LEVELS_V, DEFAULT_MIN_PULLIN_FRACTION,
                        DEFAULT_REFERENCE_CYCLES, DEFAULT_START_LEVEL_V, DEFAULT_STEP_V,
                        DEFAULT_TARGET_IMMEDIATE_V, DEFAULT_TARGET_V_D, calibrate_defaults,
                        validate_population, validate_readings, validate_run_settings,
                        validate_stair_case)


class ModelConfig(NamedTuple):
    c_k: float = DEFAULT_C_K
    sweep_step_V: float = DEFAULT_SWEEP_STEP_V
    detection_step_V: float = DEFAULT_DETECTION_STEP_V
    detection_interval_cycles: int = DEFAULT_DETECTION_INTERVAL
    reference_cycles: int = DEFAULT_REFERENCE_CYCLES
    drop_fraction: float = DEFAULT_DROP_FRACTION
    min_pullin_fraction: float = DEFAULT_MIN_PULLIN_FRACTION

    def run_kwargs(self) -> dict:
        """The ``protocols.RunSettings`` keywords set by this section."""
        return dict(detection_interval=self.detection_interval_cycles,
                    reference_cycles=self.reference_cycles,
                    detection_step_V=self.detection_step_V,
                    drop_fraction=self.drop_fraction,
                    min_pullin_fraction=self.min_pullin_fraction)


class DamageConfig(NamedTuple):
    """Either explicit Basquin/Miner parameters or calibration targets.

    When every explicit field is None the model is calibrated so that
    calibrate_target_V_D sits on the fatigue limit and
    calibrate_immediate_V collapses within the first detection interval.
    """

    calibrate_target_V_D: float = DEFAULT_TARGET_V_D
    calibrate_immediate_V: float = DEFAULT_TARGET_IMMEDIATE_V
    basquin_coefficient_Pa: float | None = None
    basquin_exponent: float | None = None
    endurance_stress_Pa: float | None = None
    hardening_amplitude: float = DamageModelParams.hardening_amplitude
    hardening_onset: float = DamageModelParams.hardening_onset
    collapse_threshold: float = DamageModelParams.collapse_threshold
    softening_exponent: float = DamageModelParams.softening_exponent


@dataclass(frozen=True)  # stays a dataclass: bench/workloads.py calls dataclasses.replace on it
class CampaignConfig:
    levels_V: tuple[float, ...] = DEFAULT_LEVELS_V
    step_V: float = DEFAULT_STEP_V
    start_level_V: float = DEFAULT_START_LEVEL_V
    n_specimens: int = 6
    strength_mean_V: float = 13.0
    strength_std_V: float = 0.55
    master_seed: int = 20080409
    strengths_V: tuple[float, ...] | None = None  # explicit thresholds override the draw


class OutputConfig(NamedTuple):
    directory: str = "out"
    formats: tuple[str, ...] = ("csv", "json")


@dataclass(frozen=True)  # stays a dataclass: bench/workloads.py calls dataclasses.replace on it
class RunConfig:
    geometry: DeviceGeometry = field(default_factory=DeviceGeometry)
    material: Material = field(default_factory=Material)
    model: ModelConfig = field(default_factory=ModelConfig)
    damage: DamageConfig = field(default_factory=DamageConfig)
    campaign: CampaignConfig = field(default_factory=CampaignConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def with_seed(self, master_seed: int) -> RunConfig:
        """This config with campaign.master_seed replaced (the ``--seed`` override)."""
        return replace(self, campaign=replace(self.campaign, master_seed=master_seed))

    def device(self) -> Device:
        """The assembled device; ConfigError at model.c_k and material.E_GPa when
        its derived stiffness leaves no finite pull-in voltage."""
        device = Device.assemble(self.geometry, self.material, c_k=self.model.c_k)
        problems = validate_stiffness(device.mechanics, device.geometry)
        if problems:
            raise ConfigError(_located("model", problems))
        return device

    def check_campaign(self, device: Device) -> None:
        """Raise ConfigError for the campaign faults that span fields or need the device."""
        camp = self.campaign
        problems = validate_stair_case(camp.levels_V, camp.step_V, camp.start_level_V,
                                       camp.n_specimens, device)
        if problems:
            raise ConfigError(_located("campaign", problems))

    def damage_params(self, device: Device) -> DamageModelParams:
        """The explicit Basquin fields, or a calibration of ``device`` to the damage targets
        under the model's run settings, checked so that every run reading is a finite float;
        ConfigError names the damage or model field at fault."""
        d = self.damage
        values = {f.name: getattr(d, f.name) for f in fields(DamageModelParams)}
        calibrate = None in values.values()  # only the Basquin fields may be None
        try:
            if calibrate:
                calibrated = calibrate_defaults(device, d.calibrate_target_V_D,
                                                d.calibrate_immediate_V, **self.model.run_kwargs())
                values.update((name, getattr(calibrated, name)) for name in _BASQUIN)
            params = DamageModelParams(**values)
        except ValueError as exc:
            raise ConfigError(_located("damage", [str(exc)])) from exc
        problems = validate_readings(device, self.model.detection_step_V, d.hardening_amplitude)
        if problems:
            raise ConfigError(_located("damage", problems))
        return params


_SECTIONS = {f.name: f.default_factory for f in fields(RunConfig)}

# Field annotations resolved once: the type every supplied value is checked against.
_HINTS = {name: typing.get_type_hints(cls) for name, cls in _SECTIONS.items()}

# The config echo: each section the object of its fields, read from the config by path.
_WRITE_CONFIG = attribute_writer({name: {key: f"{name}.{key}" for key in hints}
                                  for name, hints in _HINTS.items()})

_BASQUIN = ("basquin_coefficient_Pa", "basquin_exponent", "endurance_stress_Pa")

# Config path of each name that owners' "name: text" messages start with: a field's
# own name (no two sections share one), and RunSettings' detection_interval, which
# bench/workloads.py passes by keyword.
_PATHS = {name: f"{section}.{name}" for section, hints in _HINTS.items() for name in hints}
_PATHS.update(detection_interval="model.detection_interval_cycles")


def _located(section: str, messages: list[str]) -> list[tuple[str, str]]:
    """(config path, text) pairs of an owner's "name: text" messages; a
    message that names no field is reported whole at the section path."""
    parts = [message.partition(": ") for message in messages]
    return [(_PATHS.get(name, f"{section}.{name}"), text) if sep else (section, name)
            for name, sep, text in parts]


def _typed(hint, path: str, value, problems: list):
    """value checked against its field annotation hint, faults added to problems:
    float takes a finite number, int a whole one (a whole float becomes an int),
    tuple[X, ...] a JSON list, str a string; ``| None`` also takes null."""
    if type(None) in typing.get_args(hint):
        if value is None:
            return None
        hint = typing.get_args(hint)[0]
    if typing.get_origin(hint) is tuple and isinstance(value, list):
        item = typing.get_args(hint)[0]
        return tuple([_typed(item, f"{path}[{i}]", v, problems) for i, v in enumerate(value)])
    # Within the float range, so NaN and +-Infinity fail; bool is not a number here.
    number = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and abs(value) <= sys.float_info.max)
    if (hint is str and isinstance(value, str)) or (hint is float and number):
        return value
    if hint is int and number and float(value).is_integer():
        return int(value)
    expected = {str: "a string", float: "a finite number", int: "a whole number"}
    problems.append((path, f"expected {expected.get(hint, 'a list')}, got {value!r}"))
    return None


def parse_config(text: str) -> RunConfig:
    """Parse a JSON config, collecting every problem before raising."""
    problems: list[tuple[str, str]] = []
    try:
        raw = json.loads(text) if text.strip() else {}
    # A syntax fault, an int past the digit limit, or nesting past the decoder's recursion.
    except (ValueError, RecursionError) as exc:
        raise ConfigError([("<root>", f"invalid JSON: {exc}")]) from exc
    if not isinstance(raw, dict):
        raise ConfigError([("<root>", "top level must be a JSON object")])

    sections = {}
    for key, value in raw.items():
        if key not in _SECTIONS:
            problems.append((key, f"unknown section (expected one of {sorted(_SECTIONS)})"))
            continue
        if not isinstance(value, dict):
            problems.append((key, "section must be a JSON object"))
            continue
        hints = _HINTS[key]
        kwargs = {}
        for name, field_value in value.items():
            if name not in hints:
                problems.append((f"{key}.{name}", "unknown key"))
                continue
            kwargs[name] = _typed(hints[name], f"{key}.{name}", field_value, problems)
        sections[key] = _SECTIONS[key](**kwargs)

    if not problems:
        config = RunConfig(**sections)
        problems = _range_check(config)
    if problems:
        raise ConfigError(problems)
    return config


def _range_check(config: RunConfig) -> list[tuple[str, str]]:
    camp, model = config.campaign, config.model
    problems = _located("geometry", validate_geometry(config.geometry))
    problems += _located("material", validate_material(config.material))
    problems += _located("model", validate_c_k(model.c_k)
                         + validate_sweep_steps(sweep_step_V=model.sweep_step_V)
                         + validate_run_settings(**model.run_kwargs()))
    problems += _located("campaign", validate_population(
        camp.n_specimens, camp.strengths_V, camp.strength_mean_V, camp.strength_std_V,
        camp.master_seed))
    given = [name for name in _BASQUIN if getattr(config.damage, name) is not None]
    if 0 < len(given) < len(_BASQUIN):
        problems.append(("damage", f"give all three Basquin fields or none, got only {given}"))
    return problems


def serialize_config(config: RunConfig) -> str:
    """Canonical JSON text, the bytes dump_json writes for the field dict of each
    section; parse(serialize(c)) round-trips exactly. Every config has the same
    sections and fields, so their keys are laid out once, at import, and a call
    writes only the field values."""
    return _WRITE_CONFIG(config)


def default_config() -> RunConfig:
    return RunConfig()

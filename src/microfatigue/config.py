"""Run configuration: nested JSON ingestion with full defaults.

Unit conversion happens here and only here: geometry arrives in microns,
the Young modulus in GPa and the density in kg/um^3, matching the device
data sheet. An empty config resolves to the nominal device and the
published protocol constants.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

from .damage import DamageModelParams
from .device import Device, DeviceGeometry, Material, validate_geometry, validate_material
from .errors import ConfigError
from .protocols import calibrate_defaults


@dataclass(frozen=True)
class GeometryConfig:
    specimen_length_um: float = 50.0
    specimen_width_um: float = 10.0
    specimen_thickness_um: float = 1.8
    plate_length_um: float = 420.0
    plate_width_um: float = 180.0
    plate_thickness_um: float = 4.8
    gap_um: float = 3.0
    hole_side_um: float = 20.0
    hole_count: int = 40
    electrode_length_um: float = 420.0
    electrode_width_um: float = 460.0


@dataclass(frozen=True)
class MaterialConfig:
    E_GPa: float = 98.5
    nu: float = 0.42
    rho_kg_per_um3: float = 19.32e-15


@dataclass(frozen=True)
class ModelConfig:
    c_k: float = 1.0
    sweep_step_V: float = 0.05
    detection_step_V: float = 0.05
    detection_interval_cycles: int = 100_000
    reference_cycles: int = 2_000_000
    drop_fraction: float = 0.2
    min_pullin_fraction: float = 0.5


@dataclass(frozen=True)
class DamageConfig:
    """Either explicit Basquin/Miner parameters or calibration targets.

    When every explicit field is None the model is calibrated so that
    calibrate_target_V_D sits on the fatigue limit and
    calibrate_immediate_V collapses within the first detection interval.
    """

    calibrate_target_V_D: float = 13.0
    calibrate_immediate_V: float = 21.0
    basquin_coefficient_Pa: float | None = None
    basquin_exponent: float | None = None
    endurance_stress_Pa: float | None = None
    hardening_amplitude: float = 0.3
    hardening_onset: float = 0.7
    collapse_threshold: float = 1.0
    softening_exponent: float = 0.2

    @property
    def explicit(self) -> bool:
        return (self.basquin_coefficient_Pa is not None
                and self.basquin_exponent is not None
                and self.endurance_stress_Pa is not None)


@dataclass(frozen=True)
class CampaignConfig:
    levels_V: tuple[float, ...] = (12.0, 13.0, 14.0, 15.0)
    step_V: float = 1.0
    start_level_V: float = 15.0
    n_specimens: int = 6
    strength_mean_V: float = 13.0
    strength_std_V: float = 0.55
    master_seed: int = 20080409
    strengths_V: tuple[float, ...] | None = None  # explicit thresholds override the draw


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    formats: tuple[str, ...] = ("csv", "json")


@dataclass(frozen=True)
class RunConfig:
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    material: MaterialConfig = field(default_factory=MaterialConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    damage: DamageConfig = field(default_factory=DamageConfig)
    campaign: CampaignConfig = field(default_factory=CampaignConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def device(self) -> Device:
        geom = DeviceGeometry(**asdict(self.geometry))
        mat = Material.from_paper_units(self.material.E_GPa, self.material.nu,
                                        self.material.rho_kg_per_um3)
        return Device.assemble(geom, mat, c_k=self.model.c_k)

    def damage_params(self, device: Device | None = None) -> DamageModelParams:
        shape = dict(
            hardening_amplitude=self.damage.hardening_amplitude,
            hardening_onset=self.damage.hardening_onset,
            collapse_threshold=self.damage.collapse_threshold,
            softening_exponent=self.damage.softening_exponent,
        )
        if self.damage.explicit:
            return DamageModelParams(
                basquin_coefficient_Pa=self.damage.basquin_coefficient_Pa,
                basquin_exponent=self.damage.basquin_exponent,
                endurance_stress_Pa=self.damage.endurance_stress_Pa,
                **shape)
        if device is None:
            device = self.device()
        calibrated = calibrate_defaults(
            device,
            target_V_D=self.damage.calibrate_target_V_D,
            target_immediate_V=self.damage.calibrate_immediate_V,
            detection_interval=self.model.detection_interval_cycles,
            reference_cycles=self.model.reference_cycles)
        return DamageModelParams(
            basquin_coefficient_Pa=calibrated.basquin_coefficient_Pa,
            basquin_exponent=calibrated.basquin_exponent,
            endurance_stress_Pa=calibrated.endurance_stress_Pa,
            **shape)


_SECTIONS = {
    "geometry": GeometryConfig,
    "material": MaterialConfig,
    "model": ModelConfig,
    "damage": DamageConfig,
    "campaign": CampaignConfig,
    "output": OutputConfig,
}

_TUPLE_FIELDS = {"levels_V", "strengths_V", "formats"}

_POSITIVE = {
    "geometry": {"specimen_length_um", "specimen_width_um", "specimen_thickness_um",
                 "plate_length_um", "plate_width_um", "plate_thickness_um", "gap_um",
                 "electrode_length_um", "electrode_width_um"},
    "material": {"E_GPa", "rho_kg_per_um3"},
    "model": {"c_k", "sweep_step_V", "detection_step_V",
              "detection_interval_cycles", "reference_cycles"},
    "campaign": {"step_V", "n_specimens", "strength_mean_V"},
}

# Cycle counts: a JSON float such as 1e5 is accepted when it is whole.
_WHOLE = {"model": {"detection_interval_cycles", "reference_cycles"}}


def _coerce(section: str, name: str, value, problems: list) -> object:
    path = f"{section}.{name}"
    if name in _TUPLE_FIELDS:
        if value is None:
            return None
        if not isinstance(value, (list, tuple)):
            problems.append((path, f"expected a list, got {type(value).__name__}"))
            return None
        return tuple(value)
    if isinstance(value, bool):
        problems.append((path, "expected a number or string, got a boolean"))
        return None
    return value


def parse_config(text: str) -> RunConfig:
    """Parse a JSON config, collecting every problem before raising."""
    problems: list[tuple[str, str]] = []
    try:
        raw = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError([("<root>", f"invalid JSON: {exc}")]) from exc
    if not isinstance(raw, dict):
        raise ConfigError([("<root>", "top level must be a JSON object")])

    sections = {}
    for key, value in raw.items():
        if key not in _SECTIONS:
            problems.append((key, f"unknown section (expected one of {sorted(_SECTIONS)})"))
            continue
        cls = _SECTIONS[key]
        known = {f.name for f in fields(cls)}
        kwargs = {}
        if not isinstance(value, dict):
            problems.append((key, "section must be a JSON object"))
            continue
        for name, field_value in value.items():
            if name not in known:
                problems.append((f"{key}.{name}", "unknown key"))
                continue
            kwargs[name] = _coerce(key, name, field_value, problems)
        try:
            sections[key] = cls(**kwargs)
        except (TypeError, ValueError) as exc:
            problems.append((key, str(exc)))

    config = RunConfig(**sections) if not problems else None
    if config is not None:
        problems.extend(_range_check(config))
    if problems:
        raise ConfigError(problems)
    return config


def _range_check(config: RunConfig) -> list[tuple[str, str]]:
    problems = []
    for section, names in _POSITIVE.items():
        block = getattr(config, section)
        for name in names:
            value = getattr(block, name)
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append((f"{section}.{name}", f"must be a positive number, got {value!r}"))
            elif (name in _WHOLE.get(section, ())
                  and isinstance(value, float) and not value.is_integer()):
                problems.append((f"{section}.{name}", f"must be a whole number, got {value!r}"))
    if not 0.0 <= config.material.nu < 0.5:
        problems.append(("material.nu", f"must lie in [0, 0.5), got {config.material.nu}"))
    if not 0.0 < config.model.drop_fraction < 1.0:
        problems.append(("model.drop_fraction",
                         f"must lie in (0, 1), got {config.model.drop_fraction}"))
    if not 0.0 < config.model.min_pullin_fraction < 1.0:
        problems.append(("model.min_pullin_fraction",
                         f"must lie in (0, 1), got {config.model.min_pullin_fraction}"))
    if config.campaign.strength_std_V < 0:
        problems.append(("campaign.strength_std_V",
                         f"must be >= 0, got {config.campaign.strength_std_V}"))
    if not problems:
        # Device-level invariants (hole area, gap regime) on the assembled geometry.
        geom = DeviceGeometry(**asdict(config.geometry))
        for msg in validate_geometry(geom):
            problems.append((f"geometry.{msg.split(':')[0]}", msg.split(':', 1)[1].strip()))
        mat = Material.from_paper_units(config.material.E_GPa, config.material.nu,
                                        config.material.rho_kg_per_um3)
        for msg in validate_material(mat):
            problems.append((f"material.{msg.split(':')[0]}", msg.split(':', 1)[1].strip()))
    return problems


def serialize_config(config: RunConfig) -> str:
    """Canonical JSON text; parse(serialize(c)) round-trips exactly."""
    return json.dumps(asdict(config), indent=2, sort_keys=True) + "\n"


def default_config() -> RunConfig:
    return RunConfig()

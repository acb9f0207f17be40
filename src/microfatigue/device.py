"""Physical description of the beam-plate micro fatigue-machine.

Dimensions and material constants are carried in data-sheet units
(microns, GPa, kg/um^3), matching the layout table of the real device;
everything derived is SI. The conversions to SI live in this module, in
the unit properties and :func:`derive_mechanics`, and nowhere downstream.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .electromech import pull_in_voltage_closed_form, solver_divisors

UM = 1e-6  # metres per micron

DEFAULT_C_K = 1.0  # stiffness calibration of the plain guided-cantilever model
# The calibration that brings the lumped natural frequency to the measured
# ~28 kHz; a documented preset, not applied silently.
C_K_RESONANCE_PRESET = 3.7

# Bounds of every layout length, in microns. Within them each SI length,
# area, volume and second moment of area the mechanics forms is a normal float.
LENGTH_WINDOW_UM = (1e-3, 1e6)


class DeviceGeometry(NamedTuple):
    """Nominal layout dimensions in microns.

    Defaults are the nominal gold test structure: a 50 um suspension beam
    carrying a 420x180 um perforated plate over a 3 um gap. This class is
    also the ``geometry`` section of the run config: its fields are the keys.
    """

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

    @property
    def gap_m(self) -> float:
        return self.gap_um * UM

    @property
    def specimen_length_m(self) -> float:
        return self.specimen_length_um * UM

    @property
    def specimen_thickness_m(self) -> float:
        return self.specimen_thickness_um * UM

    @property
    def plate_area_um2(self) -> float:
        return self.plate_length_um * self.plate_width_um

    @property
    def hole_area_um2(self) -> float:
        return self.hole_count * (self.hole_side_um * self.hole_side_um)


class Material(NamedTuple):
    """Isotropic elastic material in data-sheet units; the defaults are gold.

    This class is also the ``material`` section of the run config: its
    fields are the keys.
    """

    E_GPa: float = 98.5
    nu: float = 0.42
    rho_kg_per_um3: float = 19.32e-15

    @property
    def youngs_modulus_Pa(self) -> float:
        return self.E_GPa * 1e9

    @property
    def density_kg_m3(self) -> float:
        return self.rho_kg_per_um3 * 1e18


class DerivedMechanics(NamedTuple):
    """Lumped mechanical quantities of the device, SI units."""

    area_moment_m4: float
    effective_area_m2: float
    plate_mass_kg: float
    suspension_stiffness_N_m: float
    stiffness_calibration: float


# The layout lengths, which LENGTH_WINDOW_UM bounds: every field but the hole count.
_LENGTH_FIELDS = tuple(name for name in DeviceGeometry._fields if name != "hole_count")


def validate_geometry(geom: DeviceGeometry) -> list[str]:
    """Return a list of invariant violations; empty means valid."""
    problems: list[str] = []
    low, high = LENGTH_WINDOW_UM
    for name in _LENGTH_FIELDS:
        value = getattr(geom, name)
        if not low <= value <= high:
            problems.append(f"{name}: must lie in [{low:g}, {high:g}] um, got {value}")
    if geom.hole_count < 0:
        problems.append(f"hole_count: must be >= 0, got {geom.hole_count}")
    if problems:  # the checks below relate fields that must each hold first
        return problems
    if geom.hole_area_um2 >= geom.plate_area_um2:
        problems.append(
            f"hole_count: {geom.hole_count} holes of side {geom.hole_side_um} um cover "
            f"{geom.hole_area_um2} um^2, which must stay below the plate area "
            f"{geom.plate_area_um2} um^2")
    if geom.gap_um >= geom.plate_length_um:
        problems.append(
            f"gap_um: shallow-gap model requires gap < plate length "
            f"({geom.gap_um} >= {geom.plate_length_um})")
    return problems


def validate_material(mat: Material) -> list[str]:
    """Return a list of invariant violations; empty means valid. A value whose
    SI conversion overflows is rejected as well."""
    problems: list[str] = []
    if not (mat.E_GPa > 0 and math.isfinite(mat.youngs_modulus_Pa)):
        problems.append(f"E_GPa: must be positive with a finite value in Pa, got {mat.E_GPa}")
    if not (0.0 <= mat.nu < 0.5):
        problems.append(f"nu: must lie in [0, 0.5), got {mat.nu}")
    if not (mat.rho_kg_per_um3 > 0 and math.isfinite(mat.density_kg_m3)):
        problems.append(f"rho_kg_per_um3: must be positive with a finite value in "
                        f"kg/m^3, got {mat.rho_kg_per_um3}")
    return problems


def validate_stiffness(mech: DerivedMechanics, geom: DeviceGeometry) -> list[str]:
    """The "name: message" faults of a suspension stiffness that overflows, or
    whose pull-in voltage does, and of a divisor of the equilibrium solve that
    is 0 or not finite. c_k and E_GPa scale the stiffness alike, so both are
    named for it; 4*I*c_k names c_k."""
    v_pi = pull_in_voltage_closed_form(mech, geom).pull_in_voltage_V
    kg3, stress_divisor = solver_divisors(mech, geom)
    problems = []
    if not math.isfinite(v_pi):
        text = (f"stiffness {mech.suspension_stiffness_N_m:.6g} N/m leaves no finite "
                f"pull-in voltage, got {v_pi}")
        problems += [f"{name}: {text}" for name in ("c_k", "E_GPa")]
    elif not 0.0 < kg3 < math.inf:
        text = (f"stiffness {mech.suspension_stiffness_N_m:.6g} N/m times gap^3 "
                f"is {kg3}, which the equilibrium solve divides by")
        problems += [f"{name}: {text}" for name in ("c_k", "E_GPa")]
    if not 0.0 < stress_divisor < math.inf:
        problems.append(f"c_k: 4*I*c_k is {stress_divisor} at c_k {mech.stiffness_calibration!r}, "
                        f"which the equilibrium solve divides by")
    return problems


def validate_c_k(c_k: float) -> list[str]:
    """The "name: message" fault of a stiffness calibration that is not finite and > 0."""
    return [] if 0.0 < c_k < math.inf else [f"c_k: must be finite and > 0, got {c_k!r}"]


def derive_mechanics(geom: DeviceGeometry, mat: Material,
                     c_k: float = DEFAULT_C_K) -> DerivedMechanics:
    """Compute lumped beam/plate mechanics from the layout description.

    The suspension is modelled as a guided cantilever (the plate end
    translates without rotating), so k = c_k * 12 E I / L^3. The single
    calibration factor c_k absorbs any discrepancy with a full FE model.
    """
    problems = validate_geometry(geom) + validate_material(mat) + validate_c_k(c_k)
    if problems:
        raise ValueError("invalid device description: " + "; ".join(problems))

    w = geom.specimen_width_um * UM
    t = geom.specimen_thickness_m
    length = geom.specimen_length_m
    area_moment = w * t**3 / 12.0
    net_area_um2 = geom.plate_area_um2 - geom.hole_area_um2
    effective_area = net_area_um2 * UM**2
    plate_volume = net_area_um2 * geom.plate_thickness_um * UM**3
    plate_mass = mat.density_kg_m3 * plate_volume
    stiffness = c_k * 12.0 * mat.youngs_modulus_Pa * area_moment / length**3
    return DerivedMechanics(
        area_moment_m4=area_moment,
        effective_area_m2=effective_area,
        plate_mass_kg=plate_mass,
        suspension_stiffness_N_m=stiffness,
        stiffness_calibration=c_k,
    )


class Device(NamedTuple):
    """Geometry, material and derived mechanics bundled together."""

    geometry: DeviceGeometry
    material: Material
    mechanics: DerivedMechanics

    @classmethod
    def assemble(cls, geom: DeviceGeometry, mat: Material, c_k: float = DEFAULT_C_K) -> "Device":
        return cls(geometry=geom, material=mat, mechanics=derive_mechanics(geom, mat, c_k))

    @classmethod
    def nominal(cls, c_k: float = DEFAULT_C_K) -> "Device":
        return cls.assemble(DeviceGeometry(), Material(), c_k=c_k)


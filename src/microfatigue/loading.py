"""Conversion of the AC drive into fatigue-cycle quantities.

The electrostatic force goes as V^2, so every period of the drive voltage
produces two load cycles: the plate never swings past its undeformed
position. Cycle counts are therefore doubled when converting from voltage
periods to load periods.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from typing import NamedTuple

from .device import DeviceGeometry, DerivedMechanics
from .electromech import _stable_points, pull_in_voltage_closed_form


class _LoadCycleSpec(NamedTuple):
    drive_amplitude_V: float
    drive_frequency_Hz: float


class LoadCycleSpec(_LoadCycleSpec):
    """AC drive description plus the derived load-cycle timing."""

    __slots__ = ()

    def __new__(cls, drive_amplitude_V: float, drive_frequency_Hz: float):
        if not drive_amplitude_V >= 0:
            raise ValueError(f"drive amplitude must be >= 0, got {drive_amplitude_V}")
        if not drive_frequency_Hz > 0:
            raise ValueError(f"drive frequency must be > 0, got {drive_frequency_Hz}")
        return tuple.__new__(cls, (drive_amplitude_V, drive_frequency_Hz))

    @property
    def voltage_period_s(self) -> float:
        return 1.0 / self.drive_frequency_Hz

    @property
    def load_period_s(self) -> float:
        return self.voltage_period_s / 2.0

    @property
    def load_frequency_Hz(self) -> float:
        return 2.0 * self.drive_frequency_Hz


class FatigueParameters(NamedTuple):
    """Stress bookkeeping of one side of the specimen.

    stress_ratio is sigma_min/sigma_max; on the compression side that
    ratio is infinite and is stored as None (portable marker rather than
    a floating-point inf).
    """

    sigma_max_Pa: float
    sigma_min_Pa: float
    sigma_mean_Pa: float
    sigma_alt_Pa: float
    stress_ratio: float | None


def _is_whole(value) -> bool:
    """Whether value is a whole count: an integer, or a float with no fraction."""
    return type(value) is int or isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer())


def load_cycles_from_voltage_cycles(n_voltage_cycles: int) -> int:
    """Number of load cycles produced by n voltage cycles (exactly 2x)."""
    if not (_is_whole(n_voltage_cycles) and n_voltage_cycles >= 0):
        raise ValueError(f"n_voltage_cycles: must be a whole number >= 0, "
                         f"got {n_voltage_cycles}")
    return 2 * int(n_voltage_cycles)


def waveform(t: float, spec: LoadCycleSpec) -> float:
    """Instantaneous load as a fraction of the peak, sin^2(2*pi*f_V*t)."""
    if not t >= 0:
        raise ValueError(f"time must be >= 0, got {t}")
    s = math.sin(2.0 * math.pi * spec.drive_frequency_Hz * t)
    return s * s


def _tension_stresses(amplitudes_V: Sequence[float], mech: DerivedMechanics, geom: DeviceGeometry,
                      name: str = "drive amplitude") -> list[tuple[float, float]]:
    """(peak, sigma_alt) of the tension side at each drive amplitude, from one
    batched equilibrium solve.

    The quasi-static mapping is used: the cyclic stress peak equals the static peak
    at DC voltage V_a, and the side pulses from zero, so sigma_alt = peak/2. The solve
    refuses a NaN amplitude or one outside [0, V_PI); a fault names the first ``name``.
    """
    points = _stable_points(amplitudes_V, mech, geom)
    if None in points:
        V_a = amplitudes_V[points.index(None)]
        if not V_a >= 0:
            raise ValueError(f"{name} must be >= 0, got {V_a}")
        v_pi = pull_in_voltage_closed_form(mech, geom).pull_in_voltage_V
        raise ValueError(f"{name} {V_a} V at or above pull-in {v_pi:.3f} V")
    return [(eq.stress_Pa, eq.stress_Pa / 2.0) for eq in points]


def fatigue_parameters(V_a: float, mech: DerivedMechanics,
                       geom: DeviceGeometry) -> tuple[FatigueParameters, FatigueParameters]:
    """Tension- and compression-side fatigue parameters for drive amplitude V_a.

    The tension side pulses from zero (R = 0); the mirrored compression
    side has R marked infinite. Both share the peak and sigma_alt of
    ``_tension_stresses``.
    """
    ((peak, alt),) = _tension_stresses((V_a,), mech, geom)
    tension = FatigueParameters(
        sigma_max_Pa=peak, sigma_min_Pa=0.0,
        sigma_mean_Pa=alt, sigma_alt_Pa=alt,
        stress_ratio=0.0)
    compression = FatigueParameters(
        sigma_max_Pa=0.0, sigma_min_Pa=-peak,
        sigma_mean_Pa=-alt, sigma_alt_Pa=alt,
        stress_ratio=None)
    return tension, compression

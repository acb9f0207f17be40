"""Conversion of the AC drive into fatigue-cycle quantities.

The electrostatic force goes as V^2, so every period of the drive voltage
produces two load cycles: the plate never swings past its undeformed
position. Cycle counts are therefore doubled when converting from voltage
periods to load periods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .device import DeviceGeometry, DerivedMechanics
from .electromech import pull_in_voltage_closed_form, static_equilibrium


@dataclass(frozen=True)
class LoadCycleSpec:
    """AC drive description plus the derived load-cycle timing."""

    drive_amplitude_V: float
    drive_frequency_Hz: float

    def __post_init__(self):
        if not self.drive_amplitude_V >= 0:
            raise ValueError(f"drive amplitude must be >= 0, got {self.drive_amplitude_V}")
        if not self.drive_frequency_Hz > 0:
            raise ValueError(f"drive frequency must be > 0, got {self.drive_frequency_Hz}")

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


def load_cycles_from_voltage_cycles(n_voltage_cycles: int) -> int:
    """Number of load cycles produced by n voltage cycles (exactly 2x)."""
    n = int(n_voltage_cycles)
    if n < 0:
        raise ValueError(f"cycle count must be >= 0, got {n_voltage_cycles}")
    return 2 * n


def waveform(t: float, spec: LoadCycleSpec) -> float:
    """Instantaneous load as a fraction of the peak, sin^2(2*pi*f_V*t)."""
    if not t >= 0:
        raise ValueError(f"time must be >= 0, got {t}")
    return math.sin(2.0 * math.pi * spec.drive_frequency_Hz * t) ** 2


def fatigue_parameters(V_a: float, mech: DerivedMechanics,
                       geom: DeviceGeometry) -> tuple[FatigueParameters, FatigueParameters]:
    """Tension- and compression-side fatigue parameters for drive amplitude V_a.

    The quasi-static mapping is used: the cyclic stress peak equals the
    static peak at DC voltage V_a. The tension side pulses from zero
    (R = 0); the mirrored compression side has R marked infinite.
    """
    if not V_a >= 0:
        raise ValueError(f"drive amplitude must be >= 0, got {V_a}")
    v_pi = pull_in_voltage_closed_form(mech, geom).pull_in_voltage_V
    if V_a >= v_pi:
        raise ValueError(
            f"drive amplitude {V_a} V at or above pull-in {v_pi:.3f} V: "
            "the test would be displacement-imposed from the first cycle")
    eq = static_equilibrium(V_a, mech, geom)
    peak = eq.stress_Pa
    tension = FatigueParameters(
        sigma_max_Pa=peak, sigma_min_Pa=0.0,
        sigma_mean_Pa=peak / 2.0, sigma_alt_Pa=peak / 2.0,
        stress_ratio=0.0)
    compression = FatigueParameters(
        sigma_max_Pa=0.0, sigma_min_Pa=-peak,
        sigma_mean_Pa=-peak / 2.0, sigma_alt_Pa=peak / 2.0,
        stress_ratio=None)
    return tension, compression

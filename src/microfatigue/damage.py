"""Cumulative damage model and its mapping to degraded pull-in voltage.

A Basquin power law gives cycles to failure at each stress amplitude;
linear (Miner) accumulation evolves a scalar damage D in [0, 1]. The
degraded pull-in voltage declines slowly with D, shows a work-hardening
bump before the end and collapses at the failure threshold. Below the
endurance stress no damage accrues at all, which is what makes the
pull-in-only control test non-damaging.

Damage is stored as an exact Fraction so that accumulating a batch of
cycles in several calls is bit-identical to accumulating it in one. Its
two makers, ``DamageState.pristine`` and ``accumulate``, import ``fractions``
themselves, so importing the package loads neither it nor ``decimal``.
``accumulate`` is the primitive for sums whose amplitude varies. At a
constant amplitude the Miner sum after n cycles is exactly n/life, so a
fatigue run (``protocols.run_fatigue_test``) computes it in integers and
gets the same damage without calling ``accumulate`` per batch. A damaged
run evaluates the law of ``effective_stiffness_factor`` inline, in one
expression at each detection it reaches; in the softening stretch, where the
bump factor is exactly 1.0, it extends a reading's run over the detections
known to read the same once the reading repeats, or at once while such
predictions keep extending. An undamaged run evaluates it not at all: that
run, and the pristine reading, take the factor at d = 0 as exactly 1.0,
which holds for every finite hardening amplitude. The law's one caller is
``degraded_pull_in``, which ``protocols.run_pull_in_detection`` reads. A run's
record keeps its readings alone, each stretch of equal consecutive readings once
with its number of detections: the interval and the reference count imply the
count n of each detection.

``SpecimenStrength`` and ``DamageState`` are ``NamedTuple``s; a
``SpecimenStrength`` checks its scale in ``__new__``, which ``_replace`` and
``_make`` skip. ``DamageModelParams`` checks its fields in ``__post_init__``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .device import DeviceGeometry, DerivedMechanics
from .electromech import pull_in_voltage_closed_form
from .loading import _is_whole


@dataclass(frozen=True)  # stays a dataclass: bench/workloads.py calls dataclasses.asdict on it
class DamageModelParams:
    basquin_coefficient_Pa: float   # stress amplitude at N = 1
    basquin_exponent: float         # negative slope in log-log space
    endurance_stress_Pa: float      # no damage at or below this amplitude
    hardening_amplitude: float = 0.3
    hardening_onset: float = 0.7
    collapse_threshold: float = 1.0
    softening_exponent: float = 0.2

    def __post_init__(self):
        if not self.basquin_coefficient_Pa > 0:
            raise ValueError(f"basquin_coefficient_Pa: must be > 0, got {self.basquin_coefficient_Pa}")
        if not self.basquin_exponent < 0:
            raise ValueError(f"basquin_exponent: must be < 0, got {self.basquin_exponent}")
        if not self.endurance_stress_Pa > 0:  # specimen strength scales are ratios to it
            raise ValueError(f"endurance_stress_Pa: must be > 0, got {self.endurance_stress_Pa}")
        if not 0 <= self.hardening_amplitude < math.inf:
            raise ValueError(
                f"hardening_amplitude: must be finite and >= 0, got {self.hardening_amplitude}")
        if not 0.0 < self.collapse_threshold <= 1.0:
            raise ValueError(f"collapse_threshold: must lie in (0, 1], got {self.collapse_threshold}")
        if not 0.0 < self.hardening_onset < self.collapse_threshold:
            raise ValueError(
                f"hardening_onset: need 0 < hardening_onset < collapse_threshold, "
                f"got {self.hardening_onset}, {self.collapse_threshold}")
        if not self.softening_exponent > 0:
            raise ValueError(f"softening_exponent: must be > 0, got {self.softening_exponent}")


class _SpecimenStrength(NamedTuple):
    strength_scale: float


class SpecimenStrength(_SpecimenStrength):
    """Per-specimen scatter: a multiplier on the endurance and Basquin stresses."""

    __slots__ = ()

    def __new__(cls, strength_scale: float = 1.0):
        if not strength_scale > 0:
            raise ValueError(f"strength_scale: must be > 0, got {strength_scale}")
        return tuple.__new__(cls, (strength_scale,))


class DamageState(NamedTuple):
    damage: Fraction
    cycles_applied: int
    hardened: bool
    failed: bool

    @classmethod
    def pristine(cls) -> "DamageState":
        from fractions import Fraction
        return cls(damage=Fraction(0), cycles_applied=0, hardened=False, failed=False)


UNBOUNDED = None  # marker returned by cycles_to_failure: no cycle count fails the specimen


def cycles_to_failure(sigma_alt_Pa: float, params: DamageModelParams,
                      specimen: SpecimenStrength = SpecimenStrength()) -> int | None:
    """Basquin life at stress amplitude sigma_alt, or None below the endurance
    or beyond the float range (no cycle count reaches it)."""
    if not sigma_alt_Pa >= 0:
        raise ValueError(f"stress amplitude must be >= 0, got {sigma_alt_Pa}")
    s = specimen.strength_scale
    if sigma_alt_Pa <= s * params.endurance_stress_Pa:
        return UNBOUNDED
    try:
        n = (sigma_alt_Pa / (s * params.basquin_coefficient_Pa)) ** (1.0 / params.basquin_exponent)
    except (OverflowError, ZeroDivisionError):  # ratio 0 when s*coefficient overflowed
        return UNBOUNDED
    return max(1, round(n))


def accumulate(state: DamageState, sigma_alt_Pa: float, delta_cycles: int,
               params: DamageModelParams,
               specimen: SpecimenStrength = SpecimenStrength()) -> DamageState:
    """Apply delta_cycles load cycles at amplitude sigma_alt (Miner's rule)."""
    if not (_is_whole(delta_cycles) and delta_cycles >= 0):
        raise ValueError(f"delta_cycles: must be a whole number >= 0, got {delta_cycles}")
    delta_cycles = int(delta_cycles)
    life = cycles_to_failure(sigma_alt_Pa, params, specimen)
    cycles = state.cycles_applied + delta_cycles
    if life is UNBOUNDED or delta_cycles == 0:
        return state._replace(cycles_applied=cycles)
    from fractions import Fraction
    damage = min(state.damage + Fraction(delta_cycles, life), Fraction(1))
    return DamageState(
        damage=damage,
        cycles_applied=cycles,
        hardened=state.hardened or damage >= Fraction(params.hardening_onset),
        failed=state.failed or damage >= Fraction(params.collapse_threshold),
    )


def effective_stiffness_factor(d: float, params: DamageModelParams) -> float:
    """k_eff/k at damage level d: power-law softening times the hardening bump, a
    unit-height smooth peak sin(pi*u)**2 centred between onset and collapse, squared
    by multiplying: s * s of one sin call, where s ** 2 would call the platform pow.

    ``protocols.run_fatigue_test`` repeats this expression, in the same float
    operations, in its detection loop and, softening part only, in the confirm of
    ``_softening_run_end``, and reads the pristine device with the factor 1.0 this
    gives at d = 0; a change to the law changes all three."""
    d = min(max(d, 0.0), 1.0)
    onset, collapse = params.hardening_onset, params.collapse_threshold
    bump = (0.0 if d <= onset or d >= collapse  # not onset < d < collapse: NaN stays NaN
            else (s := math.sin(math.pi * ((d - onset) / (collapse - onset)))) * s)
    return (1.0 - d) ** params.softening_exponent * (1.0 + params.hardening_amplitude * bump)


def degraded_pull_in(state: DamageState, mech: DerivedMechanics,
                     geom: DeviceGeometry, params: DamageModelParams) -> float:
    """Pull-in voltage of the damaged device, V_PI(0)*sqrt(k_eff/k)."""
    pristine = pull_in_voltage_closed_form(mech, geom).pull_in_voltage_V
    return pristine * math.sqrt(effective_stiffness_factor(float(state.damage), params))

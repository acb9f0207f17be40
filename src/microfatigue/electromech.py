"""Reduced-order electrostatic actuator physics.

Parallel-plate force balance, static deflection vs DC voltage (closed-form
cubic root with Newton polish), pull-in instability (closed form and
numerical voltage sweep), natural frequency and the drive-voltage ->
bending-stress conversion curve.
"""

from __future__ import annotations

import math
import struct
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # annotations only: device imports this module
    from collections.abc import Iterable

    from .device import DeviceGeometry, DerivedMechanics

EPSILON_0 = 8.854e-12  # F/m

# One third of the gap: the stability limit of the lumped parallel-plate model.
STABLE_FRACTION = 1.0 / 3.0

DEFAULT_SWEEP_STEP_V = 0.05  # DC supply step of the pull-in sweep
SWEEP_TOL_V = 1e-3           # bracket width at which the sweep reads its pull-in
MIN_CURVE_POINTS = 2         # points of one conversion curve: both ends at least
MAX_CURVE_POINTS = 100_000   # points of one conversion curve
DEFAULT_CURVE_POINTS = 41    # points of a conversion curve when none are asked for
_FLOAT, _BITS = struct.Struct("<d"), struct.Struct("<q")  # a float and its bit pattern


class EquilibriumPoint(NamedTuple):
    voltage_V: float
    deflection_m: float
    stress_Pa: float


class PullInResult(NamedTuple):
    pull_in_voltage_V: float
    deflection_at_instability_m: float


def _drive_scale_and_capacity(mech: DerivedMechanics,
                              geom: DeviceGeometry) -> tuple[float, float]:
    # eps0*A, so that the drive at voltage V is eps0*A*V*V/2, and the
    # restoring-force capacity k*x*(g-x)^2 at the stability bound x = g/3
    # (= 4*k*g^3/27): a stable root exists iff the drive stays below it.
    g = geom.gap_m
    x_limit = g * STABLE_FRACTION
    return (EPSILON_0 * mech.effective_area_m2,
            mech.suspension_stiffness_N_m * x_limit * (g - x_limit) ** 2)


def solver_divisors(mech: DerivedMechanics, geom: DeviceGeometry) -> tuple[float, float]:
    """k*g^3 and 4*I*c_k, the device constants the equilibrium solve divides by."""
    return (mech.suspension_stiffness_N_m * geom.gap_m**3,
            4.0 * mech.area_moment_m4 * mech.stiffness_calibration)


def _sweep_limit(drive_scale: float, capacity: float) -> float:
    """The least float v >= 0 at which drive_scale*v*v/2.0 < capacity is false: a
    bisection of the bit patterns of [0, inf], from the closed-form guess +-2 floats."""
    def holds(bits: int) -> bool:
        v = _FLOAT.unpack(_BITS.pack(bits))[0]
        return drive_scale * v * v / 2.0 < capacity
    lo, hi = -1, 0x7FF0000000000000  # it holds "below 0" and fails at inf
    ratio = 2.0 * capacity / drive_scale if drive_scale > 0.0 else -1.0
    guess = _BITS.unpack(_FLOAT.pack(math.sqrt(ratio)))[0] if ratio >= 0.0 else -1
    if 2 <= guess < hi - 2:  # finite, and not -0.0
        lo = guess - 2 if holds(guess - 2) else lo
        hi = guess + 2 if not holds(guess + 2) else hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return _FLOAT.unpack(_BITS.pack(hi))[0]


def _stable_points(voltages: Iterable[float], mech: DerivedMechanics,
                   geom: DeviceGeometry) -> list[EquilibriumPoint | None]:
    """The stable equilibrium at each voltage, or None below 0 V, at NaN or at/above pull-in.

    Solves k*x*(g-x)^2 = eps0*A*V^2/2 for the root on the stable branch
    x < g/3 by the closed-form cubic root with Newton polish. The device
    constants are bound once, and the loop calls only acos and cos. Each clamp
    is the conditional min/max evaluate (the first argument unless the other is
    strictly smaller or larger), so NaN and -0.0 pass as under min/max; each
    Newton guard reads "not slope <= 0.1", so a NaN slope still takes its step.

    Up to three Newton steps, stopped at their fixed point: a step is a pure
    function of (u, q), so a step that returns u returns u at every later step,
    and the steps not taken would not move u. NaN never equals itself, so a NaN
    takes all three. No -0.0 reaches the compare: Viete's root of q == 0 is
    2.0 + (-2.0) = +0.0, and a step from +0.0 at q == 0 gives 0.0 - 0.0 = +0.0.
    """
    drive_scale, capacity = _drive_scale_and_capacity(mech, geom)
    k, g = mech.suspension_stiffness_N_m, geom.gap_m
    kg3, stress_divisor = solver_divisors(mech, geom)
    # Guided-cantilever surface stress at the clamped ends, 3*E*t*x/L^2,
    # written through the stored stiffness so the calibration factor cancels:
    # k = c_k*12*E*I/L^3  =>  3*E*t*x/L^2 = k*L*t*x / (4*I*c_k).
    stress_scale = k * geom.specimen_length_m * geom.specimen_thickness_m
    acos, cos, four_pi_thirds = math.acos, math.cos, 4.0 * math.pi / 3.0
    points: list[EquilibriumPoint | None] = []
    append, new, third = points.append, tuple.__new__, STABLE_FRACTION
    for V in voltages:
        if V == 0.0:
            append(new(EquilibriumPoint, (0.0, 0.0, 0.0)))
            continue
        drive = drive_scale * V * V / 2.0
        if not (V > 0.0 and drive < capacity):
            append(None)  # below 0 V, NaN or pull-in: no stable equilibrium exists
            continue
        # With u = x/g the balance is u*(1-u)^2 = q, q in [0, 4/27). Its root on
        # [0, 1/3] is Viete's trigonometric solution; rounding can push the acos
        # argument just past 1 below pull-in. Newton steps remove the cancellation
        # of 2 + 2*cos(...) at small q. They stop where the slope falls to 0.1
        # (u near 0.29): closer to pull-in a step is rounding noise over a flat
        # residual, less accurate than Viete's root and not monotone in V. Viete's
        # root is >= 0, and a step from u >= 0 lands below 0 only if
        # q < 2*u*u*(1-u), which no u within rounding of the root meets.
        q = drive / kg3
        a = 13.5 * q - 1.0
        u = (2.0 + 2.0 * cos(acos(1.0 if 1.0 < a else a) / 3.0 - four_pi_thirds)) / 3.0
        w = 1.0 - u
        if not (slope := w * (1.0 - 3.0 * u)) <= 0.1:
            t = u - (u * w ** 2 - q) / slope
            if t != u:
                u, w = t, 1.0 - t
                if not (slope := w * (1.0 - 3.0 * u)) <= 0.1:
                    t = u - (u * w ** 2 - q) / slope
                    if t != u:
                        u, w = t, 1.0 - t
                        if not (slope := w * (1.0 - 3.0 * u)) <= 0.1:
                            u -= (u * w ** 2 - q) / slope
        x = (third if third < u else u) * g
        append(new(EquilibriumPoint, (V, x, stress_scale * x / stress_divisor)))
    return points


def static_equilibrium(V: float, mech: DerivedMechanics,
                       geom: DeviceGeometry) -> EquilibriumPoint | None:
    """Stable static deflection under DC voltage V, or None at/above pull-in; ValueError
    where the solve refuses a V below 0 or NaN."""
    point = _stable_points((V,), mech, geom)[0]
    if point is None and not V >= 0:
        raise ValueError(f"voltage must be >= 0, got {V}")
    return point


def pull_in_voltage_closed_form(mech: DerivedMechanics, geom: DeviceGeometry) -> PullInResult:
    g = geom.gap_m
    v = math.sqrt(8.0 * mech.suspension_stiffness_N_m * g**3
                  / (27.0 * EPSILON_0 * mech.effective_area_m2))
    return PullInResult(v, g * STABLE_FRACTION)


def validate_sweep_steps(**steps: float) -> list[str]:
    """The "name: message" faults of the named sweep steps that are not finite and > 0."""
    return [f"{name}: must be finite and > 0, got {value}" for name, value in steps.items()
            if not 0.0 < value < math.inf]


def _supply_level(limit: float, step_V: float) -> float:
    """The first supply level k*step_V (k >= 1) at or above limit >= 0, for a finite
    step_V > 0. Below 2**52 steps to the limit, k and k*step_V are exact but for the
    product's rounding, so ceil(limit/step_V) is at most one level off either way. A
    finer step puts that level within two floats of the limit: it reads the limit."""
    if not (ratio := limit / step_V) < 2.0**52:
        return limit
    k = max(math.ceil(ratio), 1)
    k -= k > 1 and (k - 1) * step_V >= limit
    return (k + 1 if k * step_V < limit else k) * step_V


def pull_in_voltage_sweep(mech: DerivedMechanics, geom: DeviceGeometry,
                          step_V: float = DEFAULT_SWEEP_STEP_V) -> PullInResult:
    """Pull-in found on a stepped DC supply: the first level k*step_V (k >= 1) without
    equilibrium, its step bracket bisected down to SWEEP_TOL_V. step_V must pass
    validate_sweep_steps.

    An equilibrium exists at v while drive_scale*v*v/2.0 < capacity. For drive_scale
    >= 0 each IEEE operation in it is monotone in v >= 0, so it fails from the float
    _sweep_limit finds on: the level, read off the grid by _supply_level rather than
    walked to, and the bisection compare with that alone. The deflection at
    instability is read at the float below that limit, the last with an equilibrium
    (the 0 V point at a limit of 0 V): the deflection nears g/3 like sqrt(V_PI - V),
    so a reading at any coarser voltage falls short of it.
    """
    problems = validate_sweep_steps(step_V=step_V)
    if problems:
        raise ValueError("; ".join(problems))
    drive_scale, capacity = _drive_scale_and_capacity(mech, geom)
    if drive_scale < 0.0:
        raise ValueError(f"effective_area_m2: must be >= 0, got {mech.effective_area_m2}")
    limit = _sweep_limit(drive_scale, capacity)
    hi = _supply_level(limit, step_V)
    lo = max(hi - step_V, 0.0)
    # The bisection also ends where the bracket holds adjacent floats, whose midpoint
    # is one of its ends: above 2**43 V their spacing exceeds SWEEP_TOL_V.
    while hi - lo > SWEEP_TOL_V and lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if mid < limit else (lo, mid)
    eq = static_equilibrium(math.nextafter(limit, 0.0), mech, geom)
    return PullInResult(0.5 * (lo + hi), eq.deflection_m)


def natural_frequency(mech: DerivedMechanics) -> float:
    """Lumped natural frequency (1/2pi)*sqrt(k/m) in Hz."""
    return math.sqrt(mech.suspension_stiffness_N_m / mech.plate_mass_kg) / (2.0 * math.pi)


def stress_conversion_curve(mech: DerivedMechanics, geom: DeviceGeometry, V_max: float,
                            n_points: int = DEFAULT_CURVE_POINTS) -> list[EquilibriumPoint]:
    """Tabulate the static (voltage, deflection, stress) curve over [0, V_max] at MIN_ to
    MAX_CURVE_POINTS points; the curve's own solve rejects a NaN V_max or one outside [0, V_PI)."""
    if not MIN_CURVE_POINTS <= n_points <= MAX_CURVE_POINTS:
        raise ValueError(f"need {MIN_CURVE_POINTS} to {MAX_CURVE_POINTS} points, got {n_points}")
    # numpy.linspace(0.0, V_max, n_points) in floats: i*step, or i/div*V_max
    # where the step underflows to zero, and V_max itself last.
    div = n_points - 1
    step = V_max / div
    voltages = [i * step if step else i / div * V_max for i in range(div)] + [V_max]
    points = _stable_points(voltages, mech, geom)
    if None in points:
        v_pi = pull_in_voltage_closed_form(mech, geom).pull_in_voltage_V
        raise ValueError(f"V_max {V_max} V must lie in [0, {v_pi:.3f}) V, below pull-in")
    return points

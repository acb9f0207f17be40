"""Virtual test drivers: pull-in detection, constant-amplitude fatigue runs
with periodic pull-in monitoring, the stair-case campaign, and calibration
of the damage-model defaults against the published fatigue-limit levels.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from itertools import repeat
from typing import NamedTuple

from .damage import (UNBOUNDED, DamageModelParams, DamageState, SpecimenStrength,
                     cycles_to_failure, degraded_pull_in)
from .device import Device
from .electromech import _stable_points, pull_in_voltage_closed_form
from .loading import _is_whole, _tension_stresses

OUTCOME_FAILED = "failed"
OUTCOME_SURVIVED = "survived"
OUTCOME_INVALID = "invalid"  # test degenerated into displacement-imposed mode

DEFAULT_DETECTION_INTERVAL = 100_000   # load cycles between pull-in detections
DEFAULT_REFERENCE_CYCLES = 2_000_000   # load cycles defining a run-out
DEFAULT_DETECTION_STEP_V = 0.05        # DC supply step during a detection
DEFAULT_DROP_FRACTION = 0.2            # failure: >=20% drop between detections
DEFAULT_MIN_PULLIN_FRACTION = 0.5      # failure: pull-in below half the pristine value
DEFAULT_TARGET_V_D = 13.0              # calibration: the published fatigue limit
DEFAULT_TARGET_IMMEDIATE_V = 21.0      # calibration: collapse in the first interval
MAX_DETECTIONS = 100_000               # detections of one run, ceil(reference/interval)
MAX_SPECIMENS = 10_000                 # specimens of one population, campaign or replication
MIN_DETECTION_STEP_V = 1e-6            # finest DC supply step of a detection
GRID_GUARD = 1e-9                      # keeps ceil from pushing an exact grid value up one step
MIN_THRESHOLD_V = 0.1                  # lowest specimen threshold strength
DEFAULT_LEVELS_V = (12.0, 13.0, 14.0, 15.0)  # stair-case design: its test levels,
DEFAULT_STEP_V = 1.0                         # its step
DEFAULT_START_LEVEL_V = 15.0                 # and its first level


class FatigueRunRecord(NamedTuple):
    """A monitored run: the measured pull-in of each detection, in order, at the load
    counts of the detection grid. Detection j took place after
    min(j*detection_interval, reference_cycles) cycles, so a record stores one float
    per detection and no count."""

    drive_amplitude_V: float
    readings: tuple[float, ...]  # measured pull-in V, one per detection
    detection_interval: int
    outcome: str
    reference_cycles: int

    @property
    def final_cycles(self) -> int:
        """The load count of the last detection."""
        if not self.readings:
            raise ValueError("readings: a run record holds at least its pristine reading")
        return min((len(self.readings) - 1) * self.detection_interval,
                   int(self.reference_cycles))

    @property
    def detections(self) -> tuple[tuple[int, float], ...]:
        """(load cycles, measured pull-in V) of each detection, counts as ints."""
        counts = [*range(0, (len(self.readings) - 1) * self.detection_interval,
                         self.detection_interval), self.final_cycles]
        # From a list, never tuple(zip(...)): a tuple grown by resizing lands in
        # the interpreter's per-size free lists, which keep the memory.
        return tuple([*zip(counts, self.readings)])


class StairCaseTrial(NamedTuple):
    specimen_id: int
    level_V: float
    failure: bool


class StairCaseSequence(NamedTuple):
    trials: tuple[StairCaseTrial, ...]
    step_V: float
    levels_V: tuple[float, ...]


def _strength_scales(strengths_V: list[float], device: Device,
                     params: DamageModelParams) -> list[float]:
    """sigma_alt(v)/sigma_D of each threshold v, from one batched solve."""
    endurance = params.endurance_stress_Pa
    return [alt / endurance for _, alt in _tension_stresses(
        strengths_V, device.mechanics, device.geometry, "threshold")]


def strength_scale_from_threshold(threshold_V: float, device: Device,
                                  params: DamageModelParams) -> float:
    """Map a threshold drive voltage to a dimensionless strength scale.

    A specimen of scale s has endurance s*sigma_D, so it survives exactly
    the levels whose stress amplitude stays at or below the amplitude at
    its threshold voltage. The solve refuses a NaN threshold or one outside [0, V_PI) of
    the pristine device; a scale of 0 (at 0 V, or from an underflow) is refused here.
    """
    scale = _strength_scales([threshold_V], device, params)[0]
    if not scale > 0:  # 0 V, or a threshold so small that its stress underflows
        raise ValueError(f"threshold {threshold_V} V gives no stress amplitude")
    return scale


def population_thresholds(master_seed: int, strength_mean_V: float, strength_std_V: float,
                          n_specimens: int, device: Device,
                          strengths_V: Sequence[float] | None = None,
                          ) -> list[tuple[float, float]]:
    """(threshold, clamped threshold) of each of n_specimens specimens. The thresholds
    are the first n_specimens of a non-empty strengths_V, or else are drawn from
    Normal(strength_mean_V, strength_std_V), draw i from its own (master_seed, i) RNG
    stream so that no draw depends on another: numpy's
    default_rng((master_seed, i)).standard_normal(), which _normal reproduces bit for
    bit without loading numpy. The arguments must pass validate_population.

    A threshold outside [MIN_THRESHOLD_V, 0.99*V_PI] is clamped into it; a NaN threshold,
    which no clamp can place and the solve refuses, raises ValueError naming the specimen.
    """
    problems = validate_population(n_specimens, strengths_V, strength_mean_V, strength_std_V,
                                   master_seed)
    if problems:
        raise ValueError("invalid population: " + "; ".join(problems))
    pristine = pull_in_voltage_closed_form(device.mechanics, device.geometry).pull_in_voltage_V
    if not strengths_V:
        from ._normal import standard_normals  # only the draw needs it
        thresholds = [strength_mean_V + strength_std_V * z
                      for z in standard_normals(int(master_seed), n_specimens)]
    else:
        thresholds = [float(v) for v in strengths_V[:n_specimens]]
    pairs = []
    for i, v in enumerate(thresholds):
        clamped = min(max(v, MIN_THRESHOLD_V), 0.99 * pristine)
        if clamped != clamped:  # NaN
            raise ValueError(f"specimen {i}: threshold must be >= 0, got {clamped}")
        pairs.append((v, clamped))
    return pairs


def specimens_from_thresholds(strengths_V: Sequence[float], device: Device,
                              params: DamageModelParams) -> tuple[SpecimenStrength, ...]:
    """The specimens of thresholds in [MIN_THRESHOLD_V, 0.99*V_PI], from one batched
    equilibrium solve; each scale equals strength_scale_from_threshold of its threshold."""
    return tuple([SpecimenStrength(scale)
                  for scale in _strength_scales(strengths_V, device, params)])


def build_population(master_seed: int, strength_mean_V: float, strength_std_V: float,
                     n_specimens: int, device: Device, params: DamageModelParams,
                     strengths_V: Sequence[float] | None = None,
                     ) -> tuple[SpecimenStrength, ...]:
    """The specimens of the thresholds that population_thresholds draws or adopts and
    clamps, converted by specimens_from_thresholds."""
    pairs = population_thresholds(master_seed, strength_mean_V, strength_std_V, n_specimens,
                                  device, strengths_V)
    return specimens_from_thresholds([clamped for _, clamped in pairs], device, params)


class RunSettings(NamedTuple):
    """A monitored run's settings, bounded by validate_run_settings."""

    detection_interval: int = DEFAULT_DETECTION_INTERVAL
    reference_cycles: int = DEFAULT_REFERENCE_CYCLES
    detection_step_V: float = DEFAULT_DETECTION_STEP_V
    drop_fraction: float = DEFAULT_DROP_FRACTION
    min_pullin_fraction: float = DEFAULT_MIN_PULLIN_FRACTION


def _checked_settings(**run_kwargs) -> RunSettings:
    """The RunSettings of run_kwargs (TypeError on an unknown keyword), checked."""
    settings = RunSettings(**run_kwargs)
    problems = validate_run_settings(*settings)
    if problems:
        raise ValueError("; ".join(problems))
    return settings


def run_pull_in_detection(state: DamageState, device: Device,
                          params: DamageModelParams,
                          step_V: float = DEFAULT_DETECTION_STEP_V) -> float:
    """Measured pull-in of the (possibly damaged) device, adding no damage.

    The DC supply is stepped, so the reading is the degraded pull-in
    rounded up to the next step_V grid point; step_V is a run's detection_step_V.
    """
    step_V = _checked_settings(detection_step_V=step_V).detection_step_V
    v = degraded_pull_in(state, device.mechanics, device.geometry, params)
    return math.ceil(v / step_V - GRID_GUARD) * step_V


def validate_run_settings(detection_interval: int, reference_cycles: int, detection_step_V: float,
                          drop_fraction: float, min_pullin_fraction: float) -> list[str]:
    """The "name: message" faults of fatigue-run settings: whole counts >= 1 for at most
    MAX_DETECTIONS detections, a finite step >= MIN_DETECTION_STEP_V and fractions in
    [0, 1)."""
    problems = [f"{name}: must be a whole number >= 1, got {value}" for name, value in (
        ("detection_interval", detection_interval), ("reference_cycles", reference_cycles))
        if not (_is_whole(value) and value >= 1)]
    if not problems and -(-reference_cycles // detection_interval) > MAX_DETECTIONS:
        problems.append(f"reference_cycles: a run may take at most {MAX_DETECTIONS} detections")
    if not MIN_DETECTION_STEP_V <= detection_step_V < math.inf:
        problems.append(f"detection_step_V: must be finite and >= {MIN_DETECTION_STEP_V:g} V, "
                        f"got {detection_step_V!r}")
    problems += [f"{name}: must lie in [0, 1), got {value}" for name, value in (
        ("drop_fraction", drop_fraction), ("min_pullin_fraction", min_pullin_fraction))
        if not 0.0 <= value < 1.0]
    return problems


def validate_readings(device: Device, detection_step_V: float,
                      hardening_amplitude: float) -> list[str]:
    """The "name: message" fault of a run whose readings could leave the float range.
    The highest reading a run can form is the grid reading of
    pristine*sqrt(1 + hardening_amplitude): the softening factor and the bump are at
    most 1, and each IEEE operation of the reading is monotone. It must be finite."""
    pristine = pull_in_voltage_closed_form(device.mechanics, device.geometry).pull_in_voltage_V
    try:
        top = math.ceil(pristine * math.sqrt(1.0 + hardening_amplitude) / detection_step_V
                        - GRID_GUARD) * detection_step_V
    except OverflowError:  # ceil of an infinite quotient
        top = math.inf
    if top == math.inf:
        return [f"hardening_amplitude: {hardening_amplitude!r} lifts the highest reading, "
                f"pristine*sqrt(1 + hardening_amplitude) on the {detection_step_V:g} V grid, "
                "past the float range"]
    return []


def validate_population(n_specimens: int, strengths_V: Sequence[float] | None = None,
                        strength_mean_V: float | None = None, strength_std_V: float | None = None,
                        master_seed: int | None = None) -> list[str]:
    """The "name: message" faults of a population of 2 to MAX_SPECIMENS specimens, given
    as the first n_specimens of at most MAX_SPECIMENS strengths_V, or, when strengths_V
    is None or empty, drawn from Normal(strength_mean_V > 0, strength_std_V >= 0) by an
    integer master_seed >= 0. An argument left None is not checked. A NaN mean or
    spread passes, for the draw to name the specimen it makes NaN. One specimen is
    refused: Dixon-Mood needs a failure and a survival."""
    problems = []
    if not n_specimens >= 2:
        problems.append(f"n_specimens: need at least two specimens, got {n_specimens}")
    elif not isinstance(n_specimens, numbers.Integral) or n_specimens > MAX_SPECIMENS:
        problems.append(f"n_specimens: must be an integer <= {MAX_SPECIMENS}, "
                        f"got {n_specimens!r}")
    elif strengths_V and len(strengths_V) < n_specimens:
        problems.append(f"strengths_V: holds {len(strengths_V)} thresholds, "
                        f"{n_specimens} requested")
    if strengths_V is not None and len(strengths_V) > MAX_SPECIMENS:
        problems.append(f"strengths_V: may give at most {MAX_SPECIMENS} thresholds, "
                        f"got {len(strengths_V)}")
    if strength_mean_V is not None and strength_mean_V <= 0:
        problems.append(f"strength_mean_V: must be > 0, got {strength_mean_V!r}")
    if strength_std_V is not None and strength_std_V < 0:
        problems.append(f"strength_std_V: must be >= 0, got {strength_std_V!r}")
    if not (master_seed is None or isinstance(master_seed, numbers.Integral) and master_seed >= 0):
        problems.append(f"master_seed: must be an integer >= 0, got {master_seed!r}")
    return problems


def _softening_run_end(n: int, k: int, life: int, interval: int, end: int,
                       onset: float, pristine: float, step: float,
                       exponent: float) -> int:
    """The last count on the interval grid in (n, end] that still reads grid
    index k in the softening stretch, or n when none is confirmed.

    Index k holds while pristine*sqrt((1-d)**exponent)/step - GRID_GUARD > k - 1,
    so up to d* = 1 - ((k - 1 + GRID_GUARD)*step/pristine)**(2/exponent). The
    guess is aligned down to the grid and clipped to d <= onset, then
    confirmed with the reading's own float operations (the bump factor is
    exactly 1.0 there, as the amplitude is finite); a guess that misses
    predicts nothing, and the run reads its next detection.
    A base outside [0, 1) would give a complex power or an overflow, and
    predicts nothing.
    """
    target = (k - 1 + GRID_GUARD) * step / pristine
    if not 0.0 <= target < 1.0:
        return n
    last = min(int((1.0 - target ** (2.0 / exponent)) * life), int(onset * life),
               end) // interval * interval
    d = last / life
    if n < last and d <= onset and math.ceil(
            pristine * math.sqrt((1.0 - d) ** exponent) / step - GRID_GUARD) == k:
        return last
    return n


def _pristine_readings(device: Device, step_V: float,
                       params: DamageModelParams) -> tuple[float, float]:
    """The pristine pull-in and its reading on the step_V grid: _monitored_run's
    reading at d = 0, whose stiffness factor (1.0 - 0.0)**e * (1.0 + amplitude*0.0)
    is exactly 1.0 for the finite amplitude DamageModelParams requires. The readings
    must pass validate_readings."""
    problems = validate_readings(device, step_V, params.hardening_amplitude)
    if problems:
        raise ValueError("; ".join(problems))
    pristine = pull_in_voltage_closed_form(device.mechanics, device.geometry).pull_in_voltage_V
    return pristine, math.ceil(pristine / step_V - GRID_GUARD) * step_V


def run_fatigue_test(V_a: float, specimen: SpecimenStrength, device: Device,
                     params: DamageModelParams, **run_kwargs) -> FatigueRunRecord:
    """One constant-amplitude fatigue run with periodic pull-in monitoring.

    Load cycles are applied in detection-interval batches; after each
    batch the pull-in voltage is measured. The run ends on the failure
    rule (collapse, a >= drop_fraction step-to-step drop, or pull-in below
    min_pullin_fraction of pristine), on the reference cycle count
    (survived), or when the measured pull-in reaches the drive amplitude
    (invalid: the test has become displacement-imposed).

    The amplitude is constant, so the Miner sum after n cycles is exactly
    min(n, life)/life: the run keeps n in integers, with the first
    collapsing count ceil(collapse_threshold*life) fixed before the first
    batch. Each detection's reading is computed in the loop itself, with no
    call per detection: the stiffness law of
    ``damage.effective_stiffness_factor`` and the grid rounding of
    ``run_pull_in_detection``, in their float operations and order, so every
    reading is bit-equal to theirs. Readings and outcome equal those of
    accumulating each batch with ``damage.accumulate`` and measuring with
    ``run_pull_in_detection``. run_kwargs give its ``RunSettings``, checked by
    validate_run_settings, and its readings are checked by validate_readings. Its
    loop, ``_monitored_run``, runs each ``run_stair_case`` specimen.

    The record keeps one reading per detection and no count: detection j's count
    is the grid's min(j*interval, reference), which ``FatigueRunRecord.detections``
    pairs with each reading on demand and ``emit.emit_fatigue_run`` reads off its grid.

    Most detections repeat the reading before them, and the loop jumps over
    those it knows will:

    1. An undamaged run (below the endurance) evaluates no reading: at d = 0
       the stiffness factor is exactly 1.0, so every detection reads
       pristine_meas after pristine_meas. The first detection's checks decide
       whether it fails or is invalid; else it survives, its
       1 + ceil(reference/interval) readings written in one step.
    2. A damaged run reads each detection it reaches by one expression and one
       set of checks. In its softening stretch d <= hardening_onset, where the
       bump factor is exactly 1.0, after a detection that passes its checks
       with v == previous, the run of v is extended in one step to the count
       that ``_softening_run_end`` guesses, and one reading confirms, still reads v.
       Once a prediction has extended the run, the next new reading's run is
       predicted at once too, without waiting for its repeat: readings do not
       rise here, so a new reading that passed the drop check passes it against
       itself; a prediction that does not extend ends that until the next
       repeat. The hardening bump and the tail d > hardening_onset are read at
       every detection.

    soft_end, the end of every extension, is the last interval multiple
    strictly below both the reference and the collapse count, so the final
    detection and collapse stay per detection. No reading changes: every
    skipped detection lies between two that read v, where the reading cannot
    rise, since d = n/life grows with n and each float operation of the
    softening law is monotone (IEEE rounding of 1 - d, *, / and sqrt; libm
    pow monotone in its base). It therefore reads v too, and passes its
    checks as the repeat would: its previous reading is v itself, the floor
    and V_a are unchanged, and soft_end keeps it below the collapse count.
    This pays for runs whose readings hold over several detections: about
    half the rows of a run read every 1 000 cycles to 2 000 000. At a
    100 000-cycle interval no softening reading repeats, so no prediction is
    made, and none misses.
    """
    settings = _checked_settings(**run_kwargs)
    ((_, sigma_alt),) = _tension_stresses((V_a,), device.mechanics, device.geometry)
    life = cycles_to_failure(sigma_alt, params, specimen)
    pristine, pristine_meas = _pristine_readings(device, settings.detection_step_V, params)
    return _monitored_run(V_a, life, pristine, pristine_meas, params, settings)


def _monitored_run(V_a: float, life: int | None, pristine: float, pristine_meas: float,
                   params: DamageModelParams, settings: RunSettings) -> FatigueRunRecord:
    """The detection loop of run_fatigue_test at drive V_a, for a specimen of Basquin
    life ``life`` (UNBOUNDED below its endurance), on a device of pristine pull-in
    ``pristine`` read as ``pristine_meas``, with checked ``RunSettings``.

    An undamaged run evaluates no reading; a damaged one walks one loop, whose
    softening stretch extends repeated readings over the counts
    _softening_run_end predicts. It appends a float per detection and no
    count, and an extension repeats one float object.
    """
    interval, reference = int(settings.detection_interval), int(settings.reference_cycles)
    keep = 1.0 - settings.drop_fraction
    floor = settings.min_pullin_fraction * pristine_meas
    if life is UNBOUNDED:
        # Every detection reads pristine_meas after a reading of pristine_meas, so
        # the first one's checks decide the run.
        v = pristine_meas
        outcome = (OUTCOME_FAILED if v <= keep * v or v < floor
                   else OUTCOME_INVALID if v <= V_a else OUTCOME_SURVIVED)
        detected = 1 - (-reference // interval) if outcome == OUTCOME_SURVIVED else 2
        return FatigueRunRecord(V_a, (v,) * detected, interval, outcome,
                                settings.reference_cycles)
    # Damage n/life reaches the threshold p/q exactly when n >= ceil(p*life/q).
    p, q = params.collapse_threshold.as_integer_ratio()
    collapse_cycles = -(-p * life // q)
    # Everything the loop reads, bound once.
    step = settings.detection_step_V
    soft_end = (min(reference, collapse_cycles) - 1) // interval * interval
    exponent, amplitude = params.softening_exponent, params.hardening_amplitude
    onset, collapse = params.hardening_onset, params.collapse_threshold
    span = collapse - onset
    sqrt, ceil, sin, pi, guard = math.sqrt, math.ceil, math.sin, math.pi, GRID_GUARD
    readings = [pristine_meas]
    append = readings.append
    previous = pristine_meas
    eager = False  # the last prediction extended the run
    n = 0
    while True:
        n += interval
        if n > reference:
            n = reference
        d = n / life if n < life else 1.0
        # run_pull_in_detection's reading, inlined: the stiffness factor of
        # damage.effective_stiffness_factor, then the step-grid rounding.
        bump = sin(pi * ((d - onset) / span)) ** 2 if onset < d < collapse else 0.0
        k = ceil(pristine * sqrt((1.0 - d) ** exponent * (1.0 + amplitude * bump))
                 / step - guard)
        v = k * step
        append(v)
        if n >= collapse_cycles or v <= keep * previous or v < floor:
            outcome = OUTCOME_FAILED
            break
        if v <= V_a:
            outcome = OUTCOME_INVALID
            break
        if n >= reference:
            outcome = OUTCOME_SURVIVED
            break
        if d <= onset and (v == previous or eager):
            last = _softening_run_end(n, k, life, interval, soft_end, onset,
                                      pristine, step, exponent)
            eager = last > n
            if eager:
                readings.extend(repeat(v, (last - n) // interval))
                n = last
        previous = v
    return FatigueRunRecord(V_a, tuple(readings), interval, outcome, settings.reference_cycles)


def grid_index(level_V: float, origin_V: float, step_V: float) -> int | None:
    """k with level_V = origin_V + k*step_V to 1e-9 of the level or the step, else None."""
    k = (level_V - origin_V) / step_V
    if math.isfinite(k) and math.isclose(origin_V + round(k) * step_V, level_V,
                                         rel_tol=1e-9, abs_tol=1e-9 * step_V):
        return round(k)
    return None


def validate_design(levels_V: Sequence[float], step_V: float, start_level_V: float) -> list[str]:
    """Stair-case design faults as "name: message" strings, the device aside: step_V > 0,
    start_level_V among levels_V, each distinct level on its own index of the step_V grid
    from start_level_V, and, for two or more levels, a step_V that moves each in floats."""
    problems = [] if step_V > 0 else [f"step_V: must be > 0, got {step_V}"]
    if levels_V and not any(math.isclose(start_level_V, v) for v in levels_V):
        problems.append(f"start_level_V: {start_level_V} V not among levels {list(levels_V)}")
    if step_V > 0:
        indices = {grid_index(v, start_level_V, step_V) for v in levels_V}
        if None in indices or len(indices) < len(set(levels_V)):
            problems.append(f"levels_V: need every level on the {step_V:g} V grid "
                            f"from {start_level_V:g} V")
        stuck = [v for v in levels_V if v - step_V == v or v + step_V == v]
        if stuck and len(set(levels_V)) > 1:
            problems.append(f"step_V: {step_V:g} V is too small to move the walk off "
                            f"the {stuck[0]:g} V level")
    return problems


def validate_stair_case(levels_V: list[float], step_V: float, start_level_V: float,
                        n_specimens: int, device: Device) -> list[str]:
    """Stair-case argument faults as "name: message" strings: the population's, the
    design's, then no level, or one outside [0, V_PI) of the pristine device (at or above
    pull-in a test is displacement-imposed). The solve refuses exactly those voltages, so
    it reads the lowest and the highest; validate_design's grid check refuses a NaN."""
    problems = validate_population(n_specimens) + validate_design(levels_V, step_V, start_level_V)
    if not levels_V or None in _stable_points((min(levels_V), max(levels_V)),
                                              device.mechanics, device.geometry):
        v_pi = pull_in_voltage_closed_form(device.mechanics, device.geometry).pull_in_voltage_V
        problems.append(f"levels_V: need levels in [0, {v_pi:.3f}) V, the pristine pull-in")
    return problems


def next_level(level: float, failure: bool, step: float, low: float,
               high: float) -> tuple[float, str | None]:
    """The stair-case rule (Dixon and Mood): one step down after a failure and one up
    after a survival, clamped to the window [low, high]. Returns the next level and the
    end of the window that clamped it, "bottom" or "top", or None. The end is where the
    unclamped level fell, so a one-level window (low == high) still tells the two apart.
    """
    nxt = level - step if failure else level + step
    end = "bottom" if nxt < low else "top" if nxt > high else None
    return min(max(nxt, low), high), end


def run_stair_case(levels_V: list[float], step_V: float, start_level_V: float,
                   n_specimens: int, population: tuple[SpecimenStrength, ...],
                   device: Device, params: DamageModelParams,
                   **run_kwargs) -> tuple[StairCaseSequence, list[FatigueRunRecord]]:
    """Sequential stair-case campaign, stepped from level to level by ``next_level``.

    An invalid (displacement-imposed) run is counted as a failure for the
    level transition; it cannot feed a stress-imposed comparison.
    ``campaign_notes`` reports both events.

    Each record equals run_fatigue_test(level, specimen, device, params, **run_kwargs),
    run_kwargs giving its ``RunSettings``. What stays fixed over the campaign is worked
    out once: the run settings are checked, the pristine pull-in and its reading computed,
    and each distinct level reached solved for its sigma_alt, before each specimen goes
    through ``_monitored_run``. A level is kept as the float the walk reached, which
    drifts from the levels_V values with an off-grid step.
    """
    levels = sorted(float(v) for v in levels_V)
    problems = validate_stair_case(levels, step_V, start_level_V, n_specimens, device)
    if n_specimens > len(population):
        problems.append(f"population: holds {len(population)} specimens, "
                        f"{n_specimens} requested")
    if problems:
        raise ValueError("invalid stair case: " + "; ".join(problems))
    settings = _checked_settings(**run_kwargs)
    pristine, pristine_meas = _pristine_readings(device, settings.detection_step_V, params)
    sigma_alts: dict[float, float] = {}

    level = float(start_level_V)
    trials: list[StairCaseTrial] = []
    records: list[FatigueRunRecord] = []
    for idx in range(n_specimens):
        if level not in sigma_alts:
            ((_, sigma_alts[level]),) = _tension_stresses((level,), device.mechanics,
                                                          device.geometry)
        life = cycles_to_failure(sigma_alts[level], params, population[idx])
        record = _monitored_run(level, life, pristine, pristine_meas, params, settings)
        records.append(record)
        failure = record.outcome in (OUTCOME_FAILED, OUTCOME_INVALID)
        trials.append(StairCaseTrial(specimen_id=idx, level_V=level, failure=failure))
        level, _ = next_level(level, failure, step_V, levels[0], levels[-1])
    sequence = StairCaseSequence(trials=tuple(trials), step_V=step_V,
                                 levels_V=tuple(levels))
    return sequence, records


def campaign_notes(thresholds: Sequence[tuple[float, float]], sequence: StairCaseSequence,
                   records: Sequence[FatigueRunRecord]) -> list[str]:
    """One line per event of a campaign that its artifacts do not state: each threshold
    that population_thresholds clamped, then for each trial a displacement-imposed
    run counted as a failure, and a step that ``next_level`` clamped at an end of the
    level window, the step after the last trial included."""
    notes = [f"specimen {i} threshold {v:.3g} V clamped to {clamped:.3g} V"
             for i, (v, clamped) in enumerate(thresholds) if clamped != v]
    step, low, high = sequence.step_V, sequence.levels_V[0], sequence.levels_V[-1]
    for trial, record in zip(sequence.trials, records):
        if record.outcome == OUTCOME_INVALID:
            notes.append(f"specimen {trial.specimen_id} at {trial.level_V:.3g} V: "
                         "displacement-imposed run counted as failure for the level transition")
        edge, end = next_level(trial.level_V, trial.failure, step, low, high)
        if end:
            notes.append(f"level clamped at the {end} of the window ({edge:.3g} V)")
    return notes


def calibrate_defaults(device: Device, calibrate_target_V_D: float = DEFAULT_TARGET_V_D,
                       calibrate_immediate_V: float = DEFAULT_TARGET_IMMEDIATE_V,
                       **run_kwargs) -> DamageModelParams:
    """Damage-model parameters pinned to the observed fatigue behaviour.

    The endurance stress is the amplitude at calibrate_target_V_D, so that level
    sits exactly on the fatigue limit. The Basquin line is drawn through
    two anchors: life of 60% of the reference count one level step above
    the limit, and life of half a detection interval at calibrate_immediate_V,
    the amplitude that collapses immediately, for runs of the ``RunSettings`` run_kwargs
    give. A ValueError message starts with the name of the argument at fault.
    """
    settings = _checked_settings(**run_kwargs)
    step_above_V = calibrate_target_V_D + 1.0
    if not (0 < calibrate_target_V_D and step_above_V < calibrate_immediate_V):
        raise ValueError(
            f"calibrate_target_V_D: need 0 < calibrate_target_V_D and calibrate_target_V_D "
            f"+ 1 V < calibrate_immediate_V for a well-posed Basquin slope, got "
            f"{calibrate_target_V_D}, {calibrate_immediate_V}")
    # The solve names the first voltage at fault, so the highest goes first.
    sigma_imm, sigma_limit, sigma_step = (alt for _, alt in _tension_stresses(
        (calibrate_immediate_V, calibrate_target_V_D, step_above_V), device.mechanics,
        device.geometry, "calibrate_immediate_V: target"))
    if not (sigma_step > 0.0 and sigma_imm < math.inf):  # else the slope is not finite
        raise ValueError(f"calibrate_immediate_V: stress amplitudes {sigma_step:g} and "
                         f"{sigma_imm:g} Pa at the targets; need finite ones > 0")

    n_step = 0.6 * settings.reference_cycles   # finite life one step above the limit
    n_imm = 0.5 * settings.detection_interval  # collapse within the first interval
    if not n_imm < n_step:
        raise ValueError(f"detection_interval: half an interval ({n_imm:g} cycles) must "
                         f"stay below 60% of reference_cycles ({n_step:g})")
    b = math.log(sigma_imm / sigma_step) / math.log(n_imm / n_step)
    coefficient = sigma_step / power if (power := n_step**b) else math.inf
    if coefficient == math.inf:  # anchor lives so close that the slope is too steep
        raise ValueError(f"detection_interval: half an interval ({n_imm:g} cycles) lies too "
                         f"close to 60% of reference_cycles ({n_step:g}) for a finite coefficient")

    params = DamageModelParams(
        basquin_coefficient_Pa=coefficient,
        basquin_exponent=b,
        endurance_stress_Pa=sigma_limit,
    )
    # The line passes through both anchors, so only its rounding can fail these checks:
    # where a volt moves the stress by a few ulps, or not at all. Each names the target
    # whose anchor moved: the step above the limit, or the immediate target.
    n_at_step = cycles_to_failure(sigma_step, params)
    if n_at_step is UNBOUNDED or n_at_step >= settings.reference_cycles:
        raise ValueError(f"calibrate_target_V_D: need N(sigma({step_above_V} V)) "
                         f"< {settings.reference_cycles}")
    if cycles_to_failure(sigma_imm, params) > settings.detection_interval:
        raise ValueError(
            f"calibrate_immediate_V: need N(sigma({calibrate_immediate_V} V)) "
            f"<= {settings.detection_interval}")
    return params

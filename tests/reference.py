"""Slow references of the package's fast paths, each returning what its fast path
returns, and the rules and inputs the test modules share, each stated once."""

import bisect
import dataclasses
import json
import math
import statistics

import numpy as np

from microfatigue import protocols
from microfatigue.damage import DamageState, SpecimenStrength, accumulate
from microfatigue.device import Device, DeviceGeometry, Material
from microfatigue.electromech import (EPSILON_0, STABLE_FRACTION, SWEEP_TOL_V, EquilibriumPoint,
                                      PullInResult, pull_in_voltage_closed_form,
                                      static_equilibrium)
from microfatigue.errors import EstimationError
from microfatigue.loading import fatigue_parameters
from microfatigue.protocols import (GRID_GUARD, MIN_THRESHOLD_V, OUTCOME_FAILED,
                                    OUTCOME_INVALID, OUTCOME_SURVIVED, FatigueRunRecord,
                                    StairCaseSequence, StairCaseTrial, run_pull_in_detection,
                                    strength_scale_from_threshold)
from microfatigue.stats import dixon_mood, synthetic_stair_case


def result_or_fault(call):
    """What call returns, or the type and text of the exception it raises."""
    try:
        return call()
    except Exception as exc:  # the fault itself is what a path and its reference must agree on
        return type(exc), str(exc)


def drive_and_capacity(V, mech, geom):
    """The electrostatic drive eps0*A*V^2/2 and the restoring capacity at x = g/3."""
    g = geom.gap_m
    x_limit = g * STABLE_FRACTION
    return (EPSILON_0 * mech.effective_area_m2 * V * V / 2.0,
            mech.suspension_stiffness_N_m * x_limit * (g - x_limit) ** 2)


def electrostatic_force(V, x, mech, geom):
    """Attractive parallel-plate force at voltage V and plate deflection x (m)."""
    g = geom.gap_m
    if not 0.0 <= x < g:
        raise ValueError(f"deflection {x} m outside [0, gap) with gap {g} m")
    return EPSILON_0 * mech.effective_area_m2 * V * V / (2.0 * (g - x) ** 2)


def equilibrium_exists(V, mech, geom):
    """Whether a stable equilibrium exists at V: the drive stays below the capacity."""
    drive, capacity = drive_and_capacity(V, mech, geom)
    return drive < capacity


def bisect_equilibrium(V, mech, geom, iters=200):
    """Independent oracle: plain bisection of k*x*(g-x)^2 = eps0*A*V^2/2."""
    g = geom.gap_m
    k = mech.suspension_stiffness_N_m
    c = EPSILON_0 * mech.effective_area_m2 * V * V / 2.0
    lo, hi = 0.0, g / 3.0
    if k * hi * (g - hi) ** 2 < c:
        return None
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if k * mid * (g - mid) ** 2 < c:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def per_point_equilibrium(V, mech, geom):
    """Reference: the per-voltage solve, every device constant rebuilt for each point."""
    if V == 0.0:
        return EquilibriumPoint(0.0, 0.0, 0.0)
    drive, capacity = drive_and_capacity(V, mech, geom)
    if drive >= capacity:
        return None
    g = geom.gap_m
    q = drive / (mech.suspension_stiffness_N_m * g**3)
    u = (2.0 + 2.0 * math.cos(math.acos(min(13.5 * q - 1.0, 1.0)) / 3.0
                              - 4.0 * math.pi / 3.0)) / 3.0
    for _ in range(3):
        slope = (1.0 - u) * (1.0 - 3.0 * u)
        if slope <= 0.1:
            break
        u -= (u * (1.0 - u) ** 2 - q) / slope
    x = min(max(u, 0.0), STABLE_FRACTION) * g
    stress = (mech.suspension_stiffness_N_m * geom.specimen_length_m
              * geom.specimen_thickness_m * x
              / (4.0 * mech.area_moment_m4 * mech.stiffness_calibration))
    return EquilibriumPoint(V, x, stress)


def per_point_curve(mech, geom, V_max, n_points):
    """Reference of stress_conversion_curve for 0 <= V_max: one per-point solve at each
    np.linspace voltage, refused as the curve refuses a V_max at or above pull-in."""
    points = [per_point_equilibrium(v, mech, geom)
              for v in np.linspace(0.0, V_max, n_points).tolist()]
    if None in points:
        v_pi = pull_in_voltage_closed_form(mech, geom).pull_in_voltage_V
        raise ValueError(f"V_max {V_max} V must lie in [0, {v_pi:.3f}) V, below pull-in")
    return points


def two_loop_sweep(mech, geom, step_V):
    """Reference: the step-and-bisect sweep as supply levels k*step_V stepped for
    k = 1, 2, ..., then two separate bisection loops, the second ending where the
    bracket holds adjacent floats, its bottom the last float with an equilibrium,
    whose deflection is read."""
    k = 1
    while equilibrium_exists(v := k * step_V, mech, geom):
        k += 1
    lo, hi = max(v - step_V, 0.0), v
    while hi - lo > SWEEP_TOL_V and lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if equilibrium_exists(mid, mech, geom) else (lo, mid)
    detected = 0.5 * (lo + hi)
    # v - step_V can round up to a float without equilibrium; the second loop then
    # starts from 0 V.
    lo = lo if equilibrium_exists(lo, mech, geom) else 0.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if equilibrium_exists(mid, mech, geom) else (lo, mid)
    return PullInResult(detected, static_equilibrium(lo, mech, geom).deflection_m)


def first_supply_level(limit, step_V):
    """Reference of electromech._supply_level below 2**52 steps: the first level
    k*step_V, k >= 1, at or above limit, by doubling k and then bisecting it."""
    hi = 1
    while hi * step_V < limit:
        hi *= 2
    lo = hi // 2  # 0, or a k whose level lies below the limit
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid * step_V < limit else (lo, mid)
    return hi * step_V


def random_device(rng):
    """A device of layout lengths and Young's modulus drawn uniformly by rng."""
    geom = DeviceGeometry(
        specimen_length_um=float(rng.uniform(25, 100)),
        specimen_width_um=float(rng.uniform(5, 20)),
        specimen_thickness_um=float(rng.uniform(1.0, 3.6)),
        plate_length_um=float(rng.uniform(200, 800)),
        plate_width_um=float(rng.uniform(90, 360)),
        plate_thickness_um=float(rng.uniform(2.4, 9.6)),
        gap_um=float(rng.uniform(1.5, 6.0)),
        hole_side_um=20.0,
        hole_count=int(rng.integers(0, 41)),
    )
    mat = Material(E_GPa=float(rng.uniform(50, 200)))
    return Device.assemble(geom, mat)


def reference_run(V_a, specimen, device, params, detection_interval, reference_cycles,
                  detection_step_V, drop_fraction, min_pullin_fraction):
    """Reference of run_fatigue_test on valid settings, batch by batch: accumulate each
    batch with damage.accumulate, then measure with run_pull_in_detection. Returns the
    record and the (state.cycles_applied, reading) pairs it is built from, which state
    each count as the batches add up, not by the grid rule of FatigueRunRecord.
    Readings that could leave the float range are refused first, as validate_readings
    says."""
    sigma_alt = fatigue_parameters(V_a, device.mechanics, device.geometry)[0].sigma_alt_Pa
    problems = protocols.validate_readings(device, detection_step_V, params.hardening_amplitude)
    if problems:
        raise ValueError("; ".join(problems))
    state = DamageState.pristine()
    pristine_meas = run_pull_in_detection(state, device, params, detection_step_V)
    detections = [(0, pristine_meas)]
    outcome = OUTCOME_SURVIVED
    while state.cycles_applied < reference_cycles:
        batch = min(detection_interval, reference_cycles - state.cycles_applied)
        state = accumulate(state, sigma_alt, batch, params, specimen)
        v = run_pull_in_detection(state, device, params, detection_step_V)
        previous = detections[-1][1]
        detections.append((state.cycles_applied, v))
        if (state.failed or v <= (1.0 - drop_fraction) * previous
                or v < min_pullin_fraction * pristine_meas):
            outcome = OUTCOME_FAILED
            break
        if v <= V_a:
            outcome = OUTCOME_INVALID
            break
    record = FatigueRunRecord(V_a, tuple([v for _, v in detections]), int(detection_interval),
                              outcome, reference_cycles)
    return record, detections


def reference_fatigue_run(V_a, specimen, device, params, **run_settings):
    """The record of reference_run."""
    return reference_run(V_a, specimen, device, params, **run_settings)[0]


def softening_index(pristine, d, step, exponent):
    """Grid index of the reading at damage d <= onset, as run_pull_in_detection rounds it."""
    return math.ceil(pristine * math.sqrt((1.0 - d) ** exponent) / step - GRID_GUARD)


def reference_normals(master_seed, n):
    """numpy's own default_rng((master_seed, i)).standard_normal() for i in range(n): the
    oracle of the pure-Python port in microfatigue._normal."""
    return [float(np.random.default_rng((master_seed, i)).standard_normal()) for i in range(n)]


def reference_thresholds(master_seed, strength_mean_V, strength_std_V, n_specimens, device,
                         strengths_V=None):
    """Reference of population_thresholds on valid arguments: (threshold, clamped
    threshold) of each specimen, threshold i drawn from its own
    default_rng((master_seed, i)) stream (reference_normals) or the first n_specimens
    of a non-empty strengths_V, and clamped into [MIN_THRESHOLD_V, 0.99*V_PI]."""
    if not strengths_V:
        thresholds = [strength_mean_V + strength_std_V * z
                      for z in reference_normals(master_seed, n_specimens)]
    else:
        thresholds = [float(v) for v in strengths_V[:n_specimens]]
    top = 0.99 * pull_in_voltage_closed_form(device.mechanics, device.geometry).pull_in_voltage_V
    return [(v, min(max(v, MIN_THRESHOLD_V), top)) for v in thresholds]


def reference_specimens(strengths_V, device, params):
    """Reference of specimens_from_thresholds: one strength_scale_from_threshold per
    threshold, a fault naming its specimen."""
    specimens = []
    for i, v in enumerate(strengths_V):
        try:
            specimens.append(SpecimenStrength(strength_scale_from_threshold(v, device, params)))
        except ValueError as exc:
            raise ValueError(f"specimen {i}: {exc}") from None
    return tuple(specimens)


def reference_population(master_seed, mean_V, std_V, n, device, params, thresholds_V):
    """Reference of build_population: the argument check, then the specimens of the
    clamped thresholds."""
    problems = protocols.validate_population(n, thresholds_V, mean_V, std_V, master_seed)
    if problems:
        raise ValueError("invalid population: " + "; ".join(problems))
    pairs = reference_thresholds(master_seed, mean_V, std_V, n, device, thresholds_V)
    return reference_specimens([clamped for _, clamped in pairs], device, params)


def dixon_mood_step(level, failure, step, low, high):
    """The stair-case rule as Dixon and Mood state it: the level under test goes one
    step down after a failure and one up after a survival; a level past an end of the
    window stays at that end, which is then named."""
    target = level - step if failure else level + step
    if target < low:
        return low, "bottom"
    if target > high:
        return high, "top"
    return target, None


def reference_stair_case(levels_V, step_V, start_level_V, n_specimens, population, device,
                         params, **run_kwargs):
    """Reference of run_stair_case: one protocols.run_fatigue_test per specimen, looked up
    at each call, at the level the walk reached."""
    levels = sorted(float(v) for v in levels_V)
    problems = protocols.validate_stair_case(levels, step_V, start_level_V, n_specimens, device)
    if n_specimens > len(population):
        problems.append(f"population: holds {len(population)} specimens, "
                        f"{n_specimens} requested")
    if problems:
        raise ValueError("invalid stair case: " + "; ".join(problems))
    level, trials, records = float(start_level_V), [], []
    for idx in range(n_specimens):
        records.append(protocols.run_fatigue_test(level, population[idx], device, params,
                                                  **run_kwargs))
        failure = records[-1].outcome in (OUTCOME_FAILED, OUTCOME_INVALID)
        trials.append(StairCaseTrial(specimen_id=idx, level_V=level, failure=failure))
        level, _ = dixon_mood_step(level, failure, step_V, levels[0], levels[-1])
    return StairCaseSequence(trials=tuple(trials), step_V=step_V, levels_V=tuple(levels)), records


def campaign_events(config, summary):
    """Reference of a staircase run's notes: each clamped threshold of the config's or
    drawn thresholds, then for each trial of the summary a displacement-imposed run and a
    level step that the window clamped."""
    camp = config.campaign
    thresholds = reference_thresholds(camp.master_seed, camp.strength_mean_V,
                                      camp.strength_std_V, camp.n_specimens, config.device(),
                                      camp.strengths_V)
    events = ["specimen %d threshold %.3g V clamped to %.3g V" % (i, v, clamped)
              for i, (v, clamped) in enumerate(thresholds) if clamped != v]
    levels = sorted(float(v) for v in camp.levels_V)
    for trial, outcome in zip(summary["trials"], summary["run_outcomes"]):
        if outcome == "invalid":
            events.append("specimen %d at %.3g V: displacement-imposed run counted as failure "
                          "for the level transition" % (trial["specimen_id"], trial["level_V"]))
        level, end = dixon_mood_step(trial["level_V"], trial["outcome"], camp.step_V,
                                     levels[0], levels[-1])
        if end:
            events.append("level clamped at the %s of the window (%.3g V)" % (end, level))
    return events


# The published stair-case sequence of the paper: (level V, failure).
PUBLISHED = [(15.0, 1), (14.0, 1), (13.0, 0), (14.0, 1), (13.0, 1), (12.0, 0)]
# The paper's six specimen thresholds (V), which give the published sequence.
PAPER_THRESHOLDS_V = [14.5, 13.5, 13.2, 13.5, 12.8, 12.5]


def make_sequence(pairs, step=1.0):
    """The stair-case sequence of (level, failure) pairs."""
    trials = tuple(StairCaseTrial(specimen_id=i, level_V=lvl, failure=bool(out))
                   for i, (lvl, out) in enumerate(pairs))
    levels = tuple(sorted({lvl for lvl, _ in pairs}))
    return StairCaseSequence(trials=trials, step_V=step, levels_V=levels)


def walk_levels(levels_V, step_V, start_level_V):
    """The sorted floats that the stair-case rule reaches from start_level_V in the window of
    levels_V: every level a stair-case of the design can test."""
    low, high = min(map(float, levels_V)), max(map(float, levels_V))
    reached, todo = set(), [float(start_level_V)]
    while todo:
        level = todo.pop()
        if level not in reached:
            reached.add(level)
            todo += [dixon_mood_step(level, failure, step_V, low, high)[0]
                     for failure in (True, False)]
    return sorted(reached)


def recovery_by_replication(strength_mean_V, strength_std_V, n_specimens, replications,
                            master_seed, levels_V=(12.0, 13.0, 14.0, 15.0), step_V=1.0,
                            start_level_V=15.0):
    """Reference of estimator_recovery_trial: one synthetic_stair_case and one dixon_mood
    (with its grid check) per replication. At a spread of 0 every strength is the mean.
    Otherwise each specimen reads the next raw word of one PCG64(master_seed), and the
    cut points NormalDist(mean, std).cdf(level) * 2**64 at the levels the walk can reach
    place it in a cell m, the walk levels below it; its strength is the first walk
    level not below it, or inf."""
    levels = walk_levels(levels_V, step_V, start_level_V)
    if strength_std_V:
        law = statistics.NormalDist(strength_mean_V, strength_std_V)
        cuts = [min(int(law.cdf(level) * 2**64), 2**64 - 1) for level in levels]
    estimates = []
    skipped = 0
    bit_generator = np.random.PCG64(int(master_seed))
    for _ in range(replications):
        if strength_std_V:
            strengths = [(levels + [math.inf])[bisect.bisect_left(cuts, word)]
                         for word in bit_generator.random_raw(n_specimens).tolist()]
        else:
            strengths = [strength_mean_V] * n_specimens
        seq = synthetic_stair_case(strengths, levels_V, step_V, start_level_V)
        try:
            estimates.append(dixon_mood(seq).mean_V)
        except EstimationError:
            skipped += 1
    if not estimates:
        raise EstimationError("every replication produced a single-outcome sequence")
    biases = np.array(estimates) - strength_mean_V
    return {
        "true_mean_V": strength_mean_V,
        "true_std_V": strength_std_V,
        "n_specimens": n_specimens,
        "replications": replications,
        "valid_replications": len(estimates),
        "skipped_replications": skipped,
        "mean_bias_V": float(np.mean(biases)),
        "std_bias_V": float(np.std(biases)),
        "max_abs_bias_V": float(np.max(np.abs(biases))),
    }


def float_stair_case_levels(strengths, low, high, step_V, start_level_V):
    """Reference: the test levels of synthetic stair-cases, one row of strengths
    each, stepping every row at once in float arrays as synthetic_stair_case
    steps one row."""
    tested = np.empty_like(strengths)
    level = np.full(len(strengths), float(start_level_V))
    for j in range(strengths.shape[1]):
        tested[:, j] = level
        level = np.where(level >= strengths[:, j], level - step_V, level + step_V)
        level = np.minimum(np.maximum(level, low), high)
    return tested


def float_dixon_mood_means(tested, failed, step_V):
    """Reference: the Dixon-Mood mean of each row of tested levels with both
    outcomes, from the float levels themselves, as dixon_mood computes it."""
    n_fail = failed.sum(axis=1)
    n_surv = failed.shape[1] - n_fail
    both = (n_fail > 0) & (n_surv > 0)
    tested, failed = tested[both], failed[both]
    by_failures = n_fail[both] <= n_surv[both]
    basis = failed == by_failures[:, None]
    x0 = np.where(basis, tested, np.inf).min(axis=1)
    i = np.rint((tested - x0[:, None]) / step_V)
    n = basis.sum(axis=1)
    a = np.where(basis, i, 0.0).sum(axis=1)
    half = np.where(by_failures, -0.5, 0.5)
    return x0 + step_V * (a / n + half)


def polyfit_basquin(points):
    """The Basquin fit as np.polyfit computes it: (coefficient, exponent, residual)."""
    usable = sorted((p for p in points if not p.censored), key=lambda p: (p.cycles, p.level_V))
    log_n = np.log(np.array([p.cycles for p in usable], dtype=float))
    log_s = np.log(np.array([p.level_V for p in usable], dtype=float))
    slope, intercept = np.polyfit(log_n, log_s, 1)
    residual = np.sqrt(np.mean((log_s - (intercept + slope * log_n)) ** 2))
    return float(np.exp(intercept)), float(slope), float(residual)


def json_text(payload):
    """Reference of emit.dump_json: json.dumps with indent 2 and sorted keys, and a newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def asdict_dump(config):
    """Reference of serialize_config: the JSON text of the field dict of each section,
    _asdict of a NamedTuple section, dataclasses.asdict of a dataclass one."""
    sections = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    return json_text({name: section._asdict() if hasattr(section, "_asdict")
                      else dataclasses.asdict(section) for name, section in sections.items()})

import collections
import math
import re
import sys
import tracemalloc
import types
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from microfatigue import config, electromech, loading, protocols, stats
from microfatigue.damage import (DamageState, SpecimenStrength, cycles_to_failure,
                                 degraded_pull_in)
from microfatigue.device import Device, DeviceGeometry, Material
from microfatigue.electromech import pull_in_voltage_closed_form, static_equilibrium
from microfatigue.errors import shown
from microfatigue.loading import fatigue_parameters
from microfatigue.protocols import (MAX_DETECTIONS, MAX_SPECIMENS, OUTCOME_FAILED,
                                    OUTCOME_INVALID, OUTCOME_SURVIVED, StairCaseSequence,
                                    build_population, calibrate_defaults, campaign_notes,
                                    next_level, population_thresholds, run_fatigue_test,
                                    run_pull_in_detection, run_stair_case,
                                    specimens_from_thresholds, strength_scale_from_threshold)
from tests.reference import (PAPER_THRESHOLDS_V, dixon_mood_step, reference_fatigue_run,
                             reference_population, reference_run, reference_stair_case,
                             reference_thresholds, result_or_fault, softening_index)


def sigma_alt(device, v):
    return fatigue_parameters(v, device.mechanics, device.geometry)[0].sigma_alt_Pa


def assert_detections_are(record, pairs):
    """The record's detections are the batch-by-batch pairs of reference_run, each count
    as the batches add it up: int counts and float readings on both sides."""
    assert record.detections == tuple(pairs)
    assert {(type(n), type(v)) for n, v in [*record.detections, *pairs]} == {(int, float)}


def test_detection_rounds_up_to_grid(nominal_device, calibrated_params):
    d = nominal_device
    pristine = pull_in_voltage_closed_form(d.mechanics, d.geometry).pull_in_voltage_V
    measured = run_pull_in_detection(DamageState.pristine(), d, calibrated_params, 0.05)
    assert measured >= pristine
    assert measured - pristine < 0.05 + 1e-9
    assert measured / 0.05 == pytest.approx(round(measured / 0.05), abs=1e-6)


@pytest.mark.parametrize("damage", [Fraction(1, 3), Fraction(4, 5), Fraction(1)])
def test_damaged_detection_rounds_degraded_pull_in_up(nominal_device, calibrated_params,
                                                      damage):
    d = nominal_device
    state = DamageState.pristine()._replace(damage=damage)
    degraded = degraded_pull_in(state, d.mechanics, d.geometry, calibrated_params)
    measured = run_pull_in_detection(state, d, calibrated_params, 0.05)
    assert measured >= degraded
    assert measured - degraded < 0.05 + 1e-9


def test_detection_adds_no_damage(nominal_device, calibrated_params):
    d = nominal_device
    state = DamageState.pristine()
    first = run_pull_in_detection(state, d, calibrated_params)
    second = run_pull_in_detection(state, d, calibrated_params)
    assert first == second


@pytest.mark.parametrize("step_V", [0.0, 1e-9, math.nan, math.inf])
def test_detection_takes_the_run_step_bound(nominal_device, calibrated_params, step_V):
    # The run's detection_step_V bound, MIN_DETECTION_STEP_V, not a bound of its own.
    with pytest.raises(ValueError,
                       match=r"^detection_step_V: must be finite and >= 1e-06 V, got "):
        run_pull_in_detection(DamageState.pristine(), nominal_device, calibrated_params, step_V)


def test_calibration_endurance_at_13V(nominal_device, calibrated_params):
    assert calibrated_params.endurance_stress_Pa == sigma_alt(nominal_device, 13.0)
    assert cycles_to_failure(sigma_alt(nominal_device, 13.0), calibrated_params) is None


def test_calibration_14V_fails_before_reference(nominal_device, calibrated_params):
    n = cycles_to_failure(sigma_alt(nominal_device, 14.0), calibrated_params)
    assert n is not None and n < 2_000_000


def test_calibration_21V_fails_within_interval(nominal_device, calibrated_params):
    n = cycles_to_failure(sigma_alt(nominal_device, 21.0), calibrated_params)
    assert n is not None and n <= 100_000


def test_calibration_infeasible_targets(nominal_device):
    with pytest.raises(ValueError):
        calibrate_defaults(nominal_device, calibrate_target_V_D=13.0,
                           calibrate_immediate_V=40.0)
    with pytest.raises(ValueError):
        calibrate_defaults(nominal_device, calibrate_target_V_D=20.0,
                           calibrate_immediate_V=20.5)


def test_calibration_checks_each_target_life_once(nominal_device, monkeypatch):
    # The sanity check reads the life one step above the limit and the life at
    # the immediate-collapse target, one Basquin evaluation each.
    stresses = []

    def counted(sigma_alt_Pa, params, *args):
        stresses.append(sigma_alt_Pa)
        return cycles_to_failure(sigma_alt_Pa, params, *args)

    monkeypatch.setattr(protocols, "cycles_to_failure", counted)
    calibrate_defaults(nominal_device)
    assert len(stresses) == len(set(stresses)) == 2


@pytest.mark.parametrize("va", [0.0, 10.0, 12.0, 13.0])
def test_runs_at_or_below_limit_survive(nominal_device, calibrated_params, va):
    record = run_fatigue_test(va, SpecimenStrength(1.0), nominal_device, calibrated_params)
    assert record.outcome == OUTCOME_SURVIVED
    assert record.detections[-1][0] == record.reference_cycles
    readings = {v for _, v in record.detections}
    assert len(readings) == 1  # unchanged pull-in throughout


@pytest.mark.parametrize("va", [21.0, 22.5])
def test_high_amplitude_immediate_collapse(nominal_device, calibrated_params, va):
    record = run_fatigue_test(va, SpecimenStrength(1.0), nominal_device, calibrated_params)
    assert record.outcome == OUTCOME_FAILED
    assert record.detections[-1][0] <= 100_000  # first detection interval


@pytest.mark.parametrize("va", [14.0, 15.0])
def test_mid_amplitude_fails_with_bump_and_drop(nominal_device, calibrated_params, va):
    record = run_fatigue_test(va, SpecimenStrength(1.0), nominal_device, calibrated_params)
    assert record.outcome == OUTCOME_FAILED
    assert record.detections[-1][0] < 2_000_000
    life = cycles_to_failure(sigma_alt(nominal_device, va), calibrated_params)
    onset_cycles = calibrated_params.hardening_onset * life
    pre_onset = [v for n, v in record.detections if 0 < n < onset_cycles]
    post_onset = [v for n, v in record.detections if n >= onset_cycles]
    assert max(post_onset) > pre_onset[-1]  # work-hardening bump
    last, prev = record.detections[-1][1], record.detections[-2][1]
    assert last <= 0.8 * prev  # final failure drop


def test_detection_cycles_are_interval_multiples(nominal_device, calibrated_params):
    record = run_fatigue_test(14.0, SpecimenStrength(1.0), nominal_device,
                              calibrated_params, detection_interval=100_000)
    for n, _ in record.detections:
        assert n % 100_000 == 0
        assert n % 2 == 0  # even number of voltage cycles


def test_displacement_imposed_guard(nominal_device, calibrated_params):
    # With a short detection interval the pull-in trace reaches the drive
    # amplitude before any failure indication: the run must be invalid.
    record = run_fatigue_test(24.0, SpecimenStrength(1.0), nominal_device,
                              calibrated_params, detection_interval=1_000)
    assert record.outcome == OUTCOME_INVALID
    assert record.detections[-1][1] <= 24.0


def test_reading_equal_to_the_drive_amplitude_is_displacement_imposed(nominal_device,
                                                                      calibrated_params):
    # The trace falls onto the drive amplitude itself: a reading equal to it,
    # not only one below it, ends the run as invalid.
    d, p = nominal_device, calibrated_params
    specimen = SpecimenStrength(strength_scale_from_threshold(14.92, d, p))
    record = run_fatigue_test(15.0, specimen, d, p, detection_interval=1000)
    assert record.outcome == OUTCOME_INVALID
    assert record.detections[-1] == (1952000, 15.0)


def test_run_rejects_amplitude_at_pull_in(nominal_device, calibrated_params):
    with pytest.raises(ValueError):
        run_fatigue_test(27.0, SpecimenStrength(1.0), nominal_device, calibrated_params)


@pytest.mark.parametrize("counts", [
    {"detection_interval": 0.5}, {"detection_interval": 1000.5},
    {"detection_interval": 0}, {"detection_interval": math.nan},
    {"reference_cycles": 2500.5}, {"reference_cycles": math.inf},
])
def test_run_rejects_counts_that_are_not_whole(nominal_device, calibrated_params, counts):
    with pytest.raises(ValueError):
        run_fatigue_test(14.0, SpecimenStrength(1.0), nominal_device, calibrated_params,
                         **counts)


def test_run_bounds_its_detection_count(nominal_device, calibrated_params):
    # At 21 V the admitted run ends within half a default interval.
    record = run_fatigue_test(21.0, SpecimenStrength(1.0), nominal_device, calibrated_params,
                              detection_interval=20, reference_cycles=20 * MAX_DETECTIONS)
    assert record.outcome != OUTCOME_SURVIVED
    with pytest.raises(ValueError, match="^reference_cycles: "):
        run_fatigue_test(21.0, SpecimenStrength(1.0), nominal_device, calibrated_params,
                         detection_interval=20, reference_cycles=20 * MAX_DETECTIONS + 1)


@given(rnd=st.randoms(use_true_random=True),
       as_float=st.booleans(),
       onset=st.floats(0.05, 0.9),
       collapse=st.floats(0.0, 1.0),
       hardening_amplitude=st.sampled_from([0.0, 0.3, 1.5]),
       softening_exponent=st.sampled_from([0.05, 0.2, 1.0]),
       step_V=st.sampled_from([0.01, 0.05, 0.1, 0.5]),
       drop_fraction=st.sampled_from([0.0, 0.05, 0.2, 0.5]),
       min_pullin_fraction=st.sampled_from([0.1, 0.5, 0.9]))
@settings(max_examples=300, deadline=None)
def test_run_matches_batch_by_batch_reference(nominal_device, calibrated_params, rnd,
                                              as_float, onset, collapse,
                                              hardening_amplitude, softening_exponent,
                                              step_V, drop_fraction, min_pullin_fraction):
    # Amplitude, strength and counts are drawn uniformly: hypothesis' own
    # number strategies favour small values, which here mostly means runs
    # below the endurance. At most 300 batches per run, and a reference
    # count the interval need not divide, including 1 and 2 (0 is rejected:
    # BAD_RUN_SETTINGS).
    d = nominal_device
    params = replace(calibrated_params, hardening_onset=onset,
                     collapse_threshold=1.0 if collapse <= onset else collapse,
                     hardening_amplitude=hardening_amplitude,
                     softening_exponent=softening_exponent)
    V_a = rnd.random() * 0.999 * pull_in_voltage_closed_form(
        d.mechanics, d.geometry).pull_in_voltage_V
    specimen = SpecimenStrength(rnd.uniform(0.5, 2.0))
    life = cycles_to_failure(sigma_alt(d, V_a), params, specimen)
    interval = rnd.randint(1, 300_000)
    choice = rnd.random()
    if choice < 0.1:
        reference = rnd.choice([1, 2])
    elif choice < 0.4 and life is not None:
        # End the run on, or next to, the first count whose Miner sum
        # reaches the collapse threshold.
        collapse_cycles = math.ceil(Fraction(params.collapse_threshold) * life)
        reference = max(1, collapse_cycles + rnd.choice([-1, 0, 1]))
        interval = rnd.randint(max(1, reference // 300), max(1, reference))
    else:
        reference = max(1, rnd.randint(0, 300) * interval + rnd.randrange(interval))
    if as_float:
        interval, reference = float(interval), float(reference)
    kwargs = dict(detection_interval=interval, reference_cycles=reference,
                  detection_step_V=step_V, drop_fraction=drop_fraction,
                  min_pullin_fraction=min_pullin_fraction)
    record = run_fatigue_test(V_a, specimen, d, params, **kwargs)
    want, pairs = reference_run(V_a, specimen, d, params, **kwargs)
    assert record == want
    assert_detections_are(record, pairs)
    assert type(record.detection_interval) is int
    assert type(record.reference_cycles) is type(reference)


# Monitor-shaped runs: one detection per 1 000 cycles to 2 000 000, at the
# three drive levels, with thresholds that give each outcome.
LONG_RUNS = [
    (13.0, 13.0, OUTCOME_SURVIVED),  # at the endurance: no damage
    (13.0, 12.5, OUTCOME_FAILED),
    (14.0, 14.0, OUTCOME_SURVIVED),  # ends damaged inside the hardening window
    (14.0, 13.0, OUTCOME_INVALID),
    (14.0, 12.0, OUTCOME_FAILED),
    (15.0, 15.5, OUTCOME_SURVIVED),
    (15.0, 12.0, OUTCOME_INVALID),
    (15.0, 10.0, OUTCOME_FAILED),
]


def test_long_runs_match_batch_by_batch_reference(nominal_device, calibrated_params):
    d, params = nominal_device, calibrated_params
    kwargs = dict(detection_interval=1_000, reference_cycles=2_000_000,
                  detection_step_V=0.05, drop_fraction=0.2, min_pullin_fraction=0.5)
    hardened = 0
    for V_a, threshold, expected in LONG_RUNS:
        specimen = SpecimenStrength(strength_scale_from_threshold(threshold, d, params))
        record = run_fatigue_test(V_a, specimen, d, params, **kwargs)
        want, pairs = reference_run(V_a, specimen, d, params, **kwargs)
        assert record == want, (V_a, threshold)
        assert_detections_are(record, pairs)
        assert record.outcome == expected, (V_a, threshold)
        life = cycles_to_failure(sigma_alt(d, V_a), params, specimen)
        if life is not None and min(record.detections[-1][0], life) / life > params.hardening_onset:
            hardened += 1
    assert hardened >= 1


def test_readings_keep_the_grid_guard(nominal_device, calibrated_params):
    # A step whose grid holds the pristine pull-in but whose division lands
    # one ulp above the grid index: without the 1e-9 guard, ceil would read
    # one step high at every undamaged detection.
    d = nominal_device
    pristine = pull_in_voltage_closed_form(d.mechanics, d.geometry).pull_in_voltage_V
    step = next(pristine / k for k in range(100, 1000) if math.ceil(pristine / (pristine / k)) > k)
    record = run_fatigue_test(13.0, SpecimenStrength(2.0), d, calibrated_params,
                              detection_interval=1_000, reference_cycles=100_000,
                              detection_step_V=step)
    assert record.outcome == OUTCOME_SURVIVED
    assert {v for _, v in record.detections} == {run_pull_in_detection(
        DamageState.pristine(), d, calibrated_params, step)}


def test_long_run_makes_no_stiffness_call_per_detection(nominal_device, calibrated_params,
                                                        monkeypatch):
    # Guards the call-free detection loop without a clock: no reading, the pristine
    # one included, goes through the stiffness law or the degraded pull-in of damage.
    calls = []
    for name in ("effective_stiffness_factor", "degraded_pull_in"):
        monkeypatch.setattr(f"microfatigue.damage.{name}",
                            lambda *args, name=name: calls.append(name))
    specimen = SpecimenStrength(strength_scale_from_threshold(
        14.0, nominal_device, calibrated_params))
    record = run_fatigue_test(14.0, specimen, nominal_device, calibrated_params,
                              detection_interval=1_000, reference_cycles=2_000_000)
    assert (record.outcome, len(record.detections)) == (OUTCOME_SURVIVED, 2_001)
    assert record.detections[-1][1] != record.detections[0][1]  # damage accrued
    assert calls == []


def traced_growth(call):
    """What call returns, and the bytes of traced memory it leaves allocated."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("V_a, damaged", [(13.0, False), (14.0, True)])
def test_a_long_run_keeps_one_reading_per_stretch(nominal_device, calibrated_params,
                                                  V_a, damaged):
    # A record keeps a float and an int per stretch of equal readings and no count:
    # two pointers and the stretch's float, about 33 B a stretch. The 2 001 readings
    # are one stretch undamaged and about 240 damaged; a pointer per detection alone
    # would keep 16 KB.
    d, params = nominal_device, calibrated_params
    specimen = SpecimenStrength(strength_scale_from_threshold(V_a, d, params))
    kwargs = dict(detection_interval=1_000, reference_cycles=2_000_000)
    record, kept = traced_growth(lambda: run_fatigue_test(V_a, specimen, d, params, **kwargs))
    assert (record.outcome, sum(record.repeats), len(record.readings)) == (
        OUTCOME_SURVIVED, 2_001, 2_001)
    assert (len(record.values) > 1) == damaged
    assert len(record.values) <= 300
    assert kept <= 48 * len(record.values) + 1024, (kept, len(record.values))


def detections_build(device, params):
    record = run_fatigue_test(13.0, SpecimenStrength(1.0), device, params,
                              reference_cycles=1_500_000)
    assert len(record.detections) == 16
    return lambda: record.detections


def specimens_build(device, params):
    return lambda: specimens_from_thresholds(PAPER_THRESHOLDS_V, device, params)


def config_build(device, params):
    return lambda: config.parse_config('{"campaign":{"levels_V":[12,13,14,15]}}')


def recovery_build(device, params):
    return lambda: stats.estimator_recovery_trial(13.0, 0.55, 6, 20, 5)


@pytest.mark.parametrize("builder", [detections_build, specimens_build, config_build,
                                     recovery_build],
                         ids=["detections", "specimens_from_thresholds", "parse_config",
                              "estimator_recovery_trial"])
def test_repeated_builds_keep_no_memory(nominal_device, calibrated_params, builder):
    # A tuple grown by resizing, as tuple(zip(...)) or tuple(generator) builds one,
    # is freed into another size's free list than the next build draws from (up to
    # 2 000 tuples of each size up to 20) and keeps its memory; a tuple of a list's
    # size reuses its free-list slot. Earlier tests may have filled those free
    # lists, which would hide the growth: holding 2 000 tuples of each size
    # empties them first.
    build = builder(nominal_device, calibrated_params)
    build()  # first-call caches: the recovery trial's numpy import and tables
    held = [tuple([None] * size) for size in range(1, 21) for _ in range(2_000)]

    def build_many():
        for _ in range(3_000):
            build()

    _, kept = traced_growth(build_many)
    del held
    assert kept <= 64 * 1024, kept


@given(rnd=st.randoms(use_true_random=True),
       interval=st.integers(1, 1_000),
       damaging=st.booleans(),
       onset=st.floats(0.01, 0.95),
       collapse=st.floats(0.0, 1.0),
       hardening_amplitude=st.sampled_from([0.0, 0.3, 1.5]),
       softening_exponent=st.sampled_from([1e-3, 0.05, 0.2, 1.0, 50.0]),
       step_V=st.sampled_from([1e-6, 1e-3, 0.05, 3.0]),
       drop_fraction=st.sampled_from([0.0, 0.05, 0.2, 0.5]),
       min_pullin_fraction=st.sampled_from([0.0, 0.5, 0.9]))
@settings(max_examples=150, deadline=None)
def test_long_fine_run_matches_batch_by_batch_reference(
        nominal_device, calibrated_params, rnd, interval, damaging, onset, collapse,
        hardening_amplitude, softening_exponent, step_V, drop_fraction,
        min_pullin_fraction):
    # Runs of up to 2 000 detections at fine intervals, where the readings
    # repeat over long stretches. A damaging specimen has its threshold below
    # the drive, set for a life of 1 to 1 999 intervals (below the 2.04e6
    # cycles at which the calibrated Basquin line meets the endurance); the
    # others have it above, and take no damage at all.
    d = nominal_device
    params = replace(calibrated_params, hardening_onset=onset,
                     collapse_threshold=1.0 if collapse <= onset else collapse,
                     hardening_amplitude=hardening_amplitude,
                     softening_exponent=softening_exponent)
    V_a = rnd.uniform(1.0, 0.99 * pull_in_voltage_closed_form(
        d.mechanics, d.geometry).pull_in_voltage_V)
    sigma = sigma_alt(d, V_a)
    if damaging:
        life = interval * rnd.uniform(1.0, 1_999.0)
        specimen = SpecimenStrength(
            sigma / (params.basquin_coefficient_Pa * life ** params.basquin_exponent))
    else:
        specimen = SpecimenStrength(sigma / params.endurance_stress_Pa * rnd.uniform(1.01, 2.0))
    life = cycles_to_failure(sigma, params, specimen)
    assert (life is not None) == damaging
    if life is not None and rnd.random() < 0.4:
        # End the run on, or next to, the first collapsing count.
        collapse_cycles = math.ceil(Fraction(params.collapse_threshold) * life)
        reference = max(1, collapse_cycles + rnd.choice([-1, 0, 1]))
    else:
        reference = rnd.randint(1, 2_000 * interval)  # mostly ends mid-interval
    kwargs = dict(detection_interval=interval, reference_cycles=reference,
                  detection_step_V=step_V, drop_fraction=drop_fraction,
                  min_pullin_fraction=min_pullin_fraction)
    record = run_fatigue_test(V_a, specimen, d, params, **kwargs)
    want, pairs = reference_run(V_a, specimen, d, params, **kwargs)
    assert record == want
    assert_detections_are(record, pairs)


def count_readings(monkeypatch):
    """Count the readings run_fatigue_test evaluates: each takes one math.ceil."""
    calls = []

    def ceil(x):
        calls.append(x)
        return math.ceil(x)

    counted = types.SimpleNamespace(**{name: getattr(math, name) for name in dir(math)
                                       if not name.startswith("_")})
    counted.ceil = ceil
    monkeypatch.setattr(protocols, "math", counted)
    return calls


def test_long_runs_evaluate_each_repeated_reading_once(nominal_device, calibrated_params,
                                                       monkeypatch):
    # Guards the skip over repeated readings without a clock. An undamaged run
    # evaluates no reading of its own, and a softening reading whose run a
    # prediction extended has the run of the next reading predicted at once.
    d, params = nominal_device, calibrated_params
    calls = count_readings(monkeypatch)
    evaluated = detected = 0
    for V_a, threshold, _ in LONG_RUNS:
        specimen = SpecimenStrength(strength_scale_from_threshold(threshold, d, params))
        before = len(calls)
        record = run_fatigue_test(V_a, specimen, d, params, detection_interval=1_000,
                                  reference_cycles=2_000_000)
        if (V_a, threshold) == (13.0, 13.0):
            assert len(record.detections) == 2_001
            assert len(calls) - before == 2  # the reading bound and the pristine reading
        evaluated += len(calls) - before
        detected += len(record.detections)
    assert evaluated < detected / 2
    assert evaluated <= 2_459  # predicting only on a repeat evaluates 2 756


def test_coarse_runs_predict_no_softening_run(nominal_device, calibrated_params,
                                              monkeypatch):
    # At a 100 000-cycle interval no softening reading repeats, so a run that
    # predicted each new reading's run would pay for a prediction that misses at
    # every detection. None is made.
    d, params = nominal_device, calibrated_params
    calls = []
    softening_run_end = protocols._softening_run_end

    def counted(*args):
        calls.append(args)
        return softening_run_end(*args)

    monkeypatch.setattr(protocols, "_softening_run_end", counted)
    outcomes = []
    for V_a, threshold, _ in LONG_RUNS:
        specimen = SpecimenStrength(strength_scale_from_threshold(threshold, d, params))
        outcomes.append(run_fatigue_test(V_a, specimen, d, params, detection_interval=100_000,
                                         reference_cycles=2_000_000).outcome)
    assert OUTCOME_FAILED in outcomes and OUTCOME_SURVIVED in outcomes
    assert calls == []


@pytest.mark.parametrize("E_GPa, step_V, softening_exponent", [
    (1e22, 1e-6, 0.2),  # pristine/step above 2**53
    (Material().E_GPa, 0.05, 5e-324),  # 2/exponent overflows to inf
    (Material().E_GPa, 0.05, 1e-300),
    (Material().E_GPa, 0.05, 1.7e308),
])
@pytest.mark.parametrize("V_a", [14.0, 13.5])
def test_extreme_runs_match_batch_by_batch_reference(E_GPa, step_V, softening_exponent, V_a):
    d = Device.assemble(DeviceGeometry(), Material(E_GPa=E_GPa))
    params = replace(calibrate_defaults(d, detection_interval=1_000),
                     softening_exponent=softening_exponent)
    kwargs = dict(detection_interval=1_000, reference_cycles=2_000_000,
                  detection_step_V=step_V, drop_fraction=0.2, min_pullin_fraction=0.5)
    record = run_fatigue_test(V_a, SpecimenStrength(1.0), d, params, **kwargs)
    want, pairs = reference_run(V_a, SpecimenStrength(1.0), d, params, **kwargs)
    assert record == want
    assert_detections_are(record, pairs)


def test_a_detection_on_the_onset_matches_batch_by_batch_reference(nominal_device,
                                                                   calibrated_params):
    # The dyadic onset 0.75 puts detection 3 000 of a 4 000-cycle life exactly on
    # d == onset, the last count the softening prediction may reach, and the coarse
    # step makes readings repeat into it. The dyadic collapse 0.875 makes the count
    # 3 500 collapse, where the reference clips the last detection: the run fails
    # on the collapse count alone, its readings passing the drop and floor checks.
    d = nominal_device
    params = replace(calibrated_params, hardening_onset=0.75, collapse_threshold=0.875)
    sigma = sigma_alt(d, 14.0)
    specimen = SpecimenStrength(
        sigma / (params.basquin_coefficient_Pa * 4_000 ** params.basquin_exponent))
    assert cycles_to_failure(sigma, params, specimen) == 4_000
    kwargs = dict(detection_interval=1_000, reference_cycles=3_500, detection_step_V=3.0,
                  drop_fraction=0.2, min_pullin_fraction=0.5)
    record = run_fatigue_test(14.0, specimen, d, params, **kwargs)
    want, pairs = reference_run(14.0, specimen, d, params, **kwargs)
    assert record == want
    assert_detections_are(record, pairs)
    assert record.detections == ((0, 27.0), (1_000, 27.0), (2_000, 27.0), (3_000, 24.0),
                                 (3_500, 24.0))
    assert record.outcome == OUTCOME_FAILED


@given(j=st.integers(0, 5_000), life=st.integers(1, 10**12), interval=st.integers(1, 10**6),
       onset=st.floats(0.01, 0.95), pristine=st.floats(1.0, 1e12),
       step=st.sampled_from([1e-6, 1e-3, 0.05, 3.0]),
       exponent=st.sampled_from([5e-324, 1e-300, 1e-3, 0.05, 0.2, 1.0, 50.0, 1.7e308]),
       k_offset=st.sampled_from([0, 0, 0, -1, 1, None]))
@settings(max_examples=300, deadline=None)
def test_softening_run_end_confirms_its_prediction(j, life, interval, onset, pristine, step,
                                                   exponent, k_offset):
    # The predictor returns n, or a later count on the grid that reads index
    # k; it never raises. k is mostly the index read at n, sometimes one off
    # or arbitrary (negative, or beyond the float range of the base).
    n = j * interval
    if k_offset is None:
        k = (-2, 0, 2**80)[j % 3]
    elif n / life <= onset:
        k = softening_index(pristine, n / life, step, exponent) + k_offset
    else:
        k = 1
    end = n + interval * (j + 1) ** 2
    last = protocols._softening_run_end(n, k, life, interval, end, onset, pristine, step,
                                        exponent)
    assert type(last) is int
    if last != n:
        assert n < last <= end and last % interval == 0
        assert last / life <= onset
        assert softening_index(pristine, last / life, step, exponent) == k


def test_staircase_reproduces_published_sequence(nominal_device, calibrated_params):
    pop = build_population(0, 13.0, 0.55, 6, nominal_device, calibrated_params,
                           strengths_V=PAPER_THRESHOLDS_V)
    seq, records = run_stair_case([12, 13, 14, 15], 1.0, 15.0, 6, pop,
                                  nominal_device, calibrated_params)
    observed = [(t.level_V, int(t.failure)) for t in seq.trials]
    assert observed == [(15.0, 1), (14.0, 1), (13.0, 0), (14.0, 1), (13.0, 1), (12.0, 0)]
    assert all(r.outcome in (OUTCOME_FAILED, OUTCOME_SURVIVED) for r in records)


def test_staircase_transition_rule(nominal_device, calibrated_params):
    pop = build_population(11, 13.0, 0.55, 6, nominal_device, calibrated_params)
    seq, _ = run_stair_case([12, 13, 14, 15], 1.0, 15.0, 6, pop,
                            nominal_device, calibrated_params)
    levels = [t.level_V for t in seq.trials]
    for trial, nxt in zip(seq.trials, levels[1:]):
        assert nxt == pytest.approx(dixon_mood_step(trial.level_V, trial.failure, 1.0, 12.0,
                                                    15.0)[0])


@st.composite
def stair_case_windows(draw):
    """(level, step, low, high): a window of 1 to 5 levels on a step grid based at
    +-0.0, at a typical level or at 2**53 to 2**60 (where level +- 1.0 == level), and
    one of its levels, at times moved off the grid within validate_stair_case's 1e-9."""
    step = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]) | st.floats(1e-3, 10.0))
    base = draw(st.sampled_from([0.0, -0.0]) | st.floats(-5.0, 30.0)
                | st.integers(53, 60).map(lambda e: 2.0 ** e) | st.floats(2.0 ** 53, 2.0 ** 60))
    levels = [base + k * step if k else base for k in range(draw(st.integers(1, 5)))]
    level = draw(st.sampled_from(levels))
    if draw(st.booleans()):
        level *= 1.0 + draw(st.floats(-1e-9, 1e-9))
    return level, step, levels[0], levels[-1]


@given(window=stair_case_windows(), failure=st.booleans())
@example(window=(0.0, 1.0, -0.0, 1.0), failure=True)
@example(window=(1.0, 1.0, -0.0, 1.0), failure=True)
@example(window=(-0.0, 0.5, -0.0, 0.0), failure=False)
@example(window=(13.0, 1.0, 13.0, 13.0), failure=True)
@example(window=(13.0, 1.0, 13.0, 13.0), failure=False)
@example(window=(2.0 ** 53, 1.0, 2.0 ** 53, 2.0 ** 53 + 2.0), failure=False)
@example(window=(2.0 ** 60, 1.0, 2.0 ** 60, 2.0 ** 60), failure=True)
@settings(max_examples=200, deadline=None)
def test_next_level_steps_as_dixon_and_mood_state_the_rule(window, failure):
    # float.hex tells -0.0 from 0.0, so the level must be the very float.
    level, step, low, high = window
    got, end = next_level(level, failure, step, low, high)
    want, want_end = dixon_mood_step(level, failure, step, low, high)
    assert (got.hex(), end) == (want.hex(), want_end)


def test_staircase_single_survivor(nominal_device, calibrated_params):
    # A campaign of one specimen is refused, as Dixon-Mood needs both outcomes; two
    # specimens stronger than every level both survive.
    with pytest.raises(ValueError, match="n_specimens: need at least two specimens, got 1"):
        build_population(0, 13.0, 0.0, 1, nominal_device, calibrated_params,
                         strengths_V=[25.0])
    pop = build_population(0, 13.0, 0.0, 2, nominal_device, calibrated_params,
                           strengths_V=[25.0, 25.0])
    seq, records = run_stair_case([12, 13, 14, 15], 1.0, 15.0, 2, pop,
                                  nominal_device, calibrated_params)
    assert [t.failure for t in seq.trials] == [False, False]


def _campaign(thresholds, levels, n, device, params, **run_kwargs):
    population = specimens_from_thresholds([clamped for _, clamped in thresholds],
                                           device, params)
    return run_stair_case(levels, 1.0, 15.0, n, population, device, params, **run_kwargs)


def test_staircase_notes_each_clamp(nominal_device, calibrated_params):
    # 15 V survived: clamped at the top; then failures down past 12 V: at the
    # bottom, on the step after the last trial.
    thresholds = population_thresholds(0, 13.0, 0.0, 5, nominal_device,
                                       strengths_V=[25.0, 1.0, 1.0, 1.0, 1.0])
    seq, records = _campaign(thresholds, [12, 13, 14, 15], 5, nominal_device,
                             calibrated_params)
    assert [t.level_V for t in seq.trials] == [15.0, 15.0, 14.0, 13.0, 12.0]
    assert campaign_notes(thresholds, seq, records) == [
        "level clamped at the top of the window (15 V)",
        "level clamped at the bottom of the window (12 V)"]


def test_staircase_notes_each_displacement_imposed_run(nominal_device, calibrated_params):
    thresholds = population_thresholds(0, 13.0, 0.0, 2, nominal_device,
                                       strengths_V=[12.0, 12.0])
    seq, records = _campaign(thresholds, [14, 15], 2, nominal_device, calibrated_params,
                             detection_interval=1_000)
    assert [r.outcome for r in records] == [OUTCOME_INVALID, OUTCOME_FAILED]
    assert campaign_notes(thresholds, seq, records) == [
        "specimen 0 at 15 V: displacement-imposed run counted as failure for the level "
        "transition",
        "level clamped at the bottom of the window (14 V)"]


def test_population_notes_each_clamped_threshold(nominal_device, calibrated_params):
    top = 0.99 * pull_in_voltage_closed_form(nominal_device.mechanics,
                                             nominal_device.geometry).pull_in_voltage_V
    thresholds = population_thresholds(0, 13.0, 0.0, 3, nominal_device,
                                       strengths_V=[30.0, 13.0, 0.05])
    assert thresholds == [(30.0, top), (13.0, 13.0), (0.05, 0.1)]
    assert build_population(0, 13.0, 0.0, 3, nominal_device, calibrated_params,
                            strengths_V=[30.0, 13.0, 0.05]) == build_population(
        0, 13.0, 0.0, 3, nominal_device, calibrated_params, strengths_V=[top, 13.0, 0.1])
    no_trials = StairCaseSequence(trials=(), step_V=1.0, levels_V=(15.0,))
    assert campaign_notes(thresholds, no_trials, []) == [
        f"specimen 0 threshold 30 V clamped to {top:.3g} V",
        "specimen 2 threshold 0.05 V clamped to 0.1 V"]


@pytest.mark.parametrize("unused", [[15.0, 12.0], [math.nan], [-1.0, 40.0]])
def test_population_converts_only_the_specimens_it_holds(nominal_device, calibrated_params,
                                                         unused):
    # Thresholds past n_specimens are neither converted, checked nor clamped.
    d, p = nominal_device, calibrated_params
    assert population_thresholds(0, 13.0, 0.5, 2, d, strengths_V=[13.0, 14.0, *unused]) \
        == [(13.0, 13.0), (14.0, 14.0)]
    pop = build_population(0, 13.0, 0.5, 2, d, p, strengths_V=[13.0, 14.0, *unused])
    assert pop == build_population(0, 13.0, 0.5, 2, d, p, strengths_V=[13.0, 14.0])
    assert len(pop) == 2


def test_staircase_rejects_levels_off_the_step_grid(nominal_device, calibrated_params):
    pop = build_population(0, 13.0, 0.0, 2, nominal_device, calibrated_params,
                           strengths_V=[13.0, 13.0])
    with pytest.raises(ValueError, match="levels_V: need every level on the 1 V grid from 15 V"):
        run_stair_case([12.5, 15], 1.0, 15.0, 2, pop, nominal_device, calibrated_params)


@pytest.mark.parametrize("step_V, n_specimens, fault", [
    (math.nan, 2, "step_V: must be > 0, got nan"),
    (1.0, math.nan, "n_specimens: need at least two specimens, got nan"),
])
def test_staircase_names_a_nan_step_or_count_before_any_run(nominal_device, calibrated_params,
                                                           monkeypatch, step_V, n_specimens,
                                                           fault):
    pop = build_population(0, 13.0, 0.0, 2, nominal_device, calibrated_params,
                           strengths_V=[13.0, 13.0])
    assert fault in protocols.validate_stair_case([12, 13, 14, 15], step_V, 15.0, n_specimens,
                                                  nominal_device)
    monkeypatch.setattr(protocols, "_monitored_run", lambda *a, **k: pytest.fail("ran"))
    with pytest.raises(ValueError, match=fault):
        run_stair_case([12, 13, 14, 15], step_V, 15.0, n_specimens, pop, nominal_device,
                       calibrated_params)


@pytest.mark.parametrize("levels_V", [[0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
def test_stair_case_names_a_negative_level_wherever_it_stands(nominal_device, levels_V):
    # Neither the first nor the top level of the design is its lowest.
    assert protocols.validate_stair_case(levels_V, 1.0, 1.0, 6, nominal_device) == [
        "levels_V: need levels in [0, 26.395) V, the pristine pull-in"]


def test_a_step_that_moves_no_level_is_refused_in_a_window_of_two_or_more(nominal_device):
    assert protocols.validate_stair_case([13.0], 1e-300, 13.0, 6, nominal_device) == []
    assert protocols.validate_stair_case([12.0, 13.0], 1e-300, 13.0, 6, nominal_device) == [
        "step_V: 1e-300 V is too small to move the walk off the 12 V level"]


def test_population_seed_determinism(nominal_device, calibrated_params):
    a = build_population(99, 13.0, 0.55, 6, nominal_device, calibrated_params)
    b = build_population(99, 13.0, 0.55, 6, nominal_device, calibrated_params)
    assert a == b
    c = build_population(98, 13.0, 0.55, 6, nominal_device, calibrated_params)
    assert a != c


# Seeds on each side of a uint32 word boundary: numpy's entropy (master_seed, i) is two
# or more uint32 words, and five or more take SeedSequence's rounds past its pool of four.
@pytest.mark.parametrize("master_seed", [0, 2**32 - 1, 2**32, 2**96 - 1, 2**96, 2**300 + 1])
def test_population_draw_is_numpys_at_the_word_boundaries(nominal_device, master_seed):
    assert population_thresholds(master_seed, 13.0, 0.55, 6, nominal_device) \
        == reference_thresholds(master_seed, 13.0, 0.55, 6, nominal_device)


def test_population_draw_is_numpys_up_to_the_last_specimen(nominal_device):
    got = population_thresholds(7, 13.0, 0.55, MAX_SPECIMENS, nominal_device)
    assert got == reference_thresholds(7, 13.0, 0.55, MAX_SPECIMENS, nominal_device)


def test_population_bounds_its_specimen_count(nominal_device, calibrated_params):
    with pytest.raises(ValueError, match="n_specimens: "):
        build_population(99, 13.0, 0.55, MAX_SPECIMENS + 1, nominal_device, calibrated_params)
    with pytest.raises(ValueError, match="strengths_V: "):
        build_population(99, 13.0, 0.55, 6, nominal_device, calibrated_params,
                         strengths_V=[13.0] * (MAX_SPECIMENS + 1))


@pytest.mark.parametrize("n", [3, 6])
def test_population_needs_a_threshold_per_specimen(nominal_device, calibrated_params, n):
    message = f"invalid population: strengths_V: holds 2 thresholds, {n} requested"
    with pytest.raises(ValueError, match=f"^{message}$"):
        population_thresholds(99, 13.0, 0.55, n, nominal_device, strengths_V=[13.0, 14.0])
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_population(99, 13.0, 0.55, n, nominal_device, calibrated_params,
                         strengths_V=[13.0, 14.0])
    assert len(build_population(99, 13.0, 0.55, 2, nominal_device, calibrated_params,
                                strengths_V=[13.0, 14.0])) == 2


def test_strength_scale_threshold_semantics(nominal_device, calibrated_params):
    # a specimen with threshold 13 V has unit scale under the default calibration
    s = strength_scale_from_threshold(13.0, nominal_device, calibrated_params)
    assert s == pytest.approx(1.0, rel=1e-12)
    assert strength_scale_from_threshold(14.0, nominal_device, calibrated_params) > 1.0


def test_campaign_determinism(nominal_device, calibrated_params):
    pop = build_population(5, 13.0, 0.55, 6, nominal_device, calibrated_params)
    runs = [run_stair_case([12, 13, 14, 15], 1.0, 15.0, 6, pop,
                           nominal_device, calibrated_params) for _ in range(2)]
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda d, p: static_equilibrium(math.nan, d.mechanics, d.geometry),
                 "voltage", id="static_equilibrium"),
    pytest.param(lambda d, p: fatigue_parameters(math.nan, d.mechanics, d.geometry),
                 "drive amplitude", id="fatigue_parameters"),
    pytest.param(lambda d, p: cycles_to_failure(math.nan, p),
                 "stress amplitude", id="cycles_to_failure"),
    pytest.param(lambda d, p: SpecimenStrength(math.nan), "strength_scale:",
                 id="SpecimenStrength"),
    pytest.param(lambda d, p: strength_scale_from_threshold(math.nan, d, p),
                 "threshold", id="strength_scale_from_threshold"),
    pytest.param(lambda d, p: run_fatigue_test(math.nan, SpecimenStrength(), d, p),
                 None, id="run_fatigue_test"),
])
def test_nan_input_raises_value_error(call, name, nominal_device, calibrated_params):
    with pytest.raises(ValueError, match=f"^{name} must" if name else None):
        call(nominal_device, calibrated_params)


@pytest.mark.parametrize("threshold, message", [
    (-1.0, "threshold must be >= 0, got -1.0"),
    (0.0, "threshold 0.0 V gives no stress amplitude"),
    (1e-200, "threshold 1e-200 V gives no stress amplitude"),
    (30.0, "threshold 30.0 V at or above pull-in "),
])
def test_strength_scale_names_the_threshold(nominal_device, calibrated_params, threshold,
                                            message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        strength_scale_from_threshold(threshold, nominal_device, calibrated_params)


@pytest.mark.parametrize("std_V, thresholds_V, index", [
    (math.nan, None, 0),
    (0.5, [13.0, math.nan, 12.0], 1),
])
def test_population_names_a_nan_threshold(nominal_device, calibrated_params, std_V,
                                          thresholds_V, index):
    with pytest.raises(ValueError,
                       match=f"^specimen {index}: threshold must be >= 0, got nan$"):
        build_population(0, 13.0, std_V, 3, nominal_device, calibrated_params,
                         strengths_V=thresholds_V)


CAMPAIGN_RUN_SETTINGS = [
    {},
    dict(detection_interval=1_000),
    dict(detection_interval=250_000, reference_cycles=1_234_567),
    dict(detection_interval=100_000.0, reference_cycles=2_000_000.0),
    dict(detection_step_V=0.01, drop_fraction=0.05, min_pullin_fraction=0.9),
    dict(detection_step_V=0.5, drop_fraction=0.5, min_pullin_fraction=0.1),
]
BAD_RUN_SETTINGS = [
    dict(detection_interval=0),
    dict(reference_cycles=1.5),
    dict(detection_step_V=0.0),
    dict(detection_step_V=math.nan),
    dict(detection_interval=1, reference_cycles=MAX_DETECTIONS + 1),
    dict(reference_cycles=-5),
    dict(drop_fraction=math.nan),
    dict(drop_fraction=1.5),
    dict(min_pullin_fraction=math.nan),
    dict(min_pullin_fraction=-3.0),
    dict(reference_cycles=0),
]


@pytest.mark.parametrize("bad_run_kwargs", BAD_RUN_SETTINGS)
def test_run_names_its_bad_setting(nominal_device, calibrated_params, bad_run_kwargs):
    # The last keyword of each row is the one at fault.
    with pytest.raises(ValueError, match=f"^{list(bad_run_kwargs)[-1]}: "):
        run_fatigue_test(14.0, SpecimenStrength(), nominal_device, calibrated_params,
                         **bad_run_kwargs)


def test_the_reading_bound_admits_exactly_the_amplitudes_whose_readings_stay_finite():
    # A device of pull-in 2.6e149 V read on a 1e-6 V grid, calibrated to its own
    # targets. At the largest hardening_amplitude that validate_readings passes, a run
    # through the bump reads finite floats only, as the batch-by-batch reference does;
    # one float higher, the run, the campaign and the reference refuse it by name.
    device = Device.assemble(DeviceGeometry(), Material(), c_k=1e296)
    kwargs = dict(detection_interval=1_000, reference_cycles=2_000_000,
                  detection_step_V=1e-6, drop_fraction=0.2, min_pullin_fraction=0.5)
    passes, fails = 0.0, sys.float_info.max
    while math.nextafter(passes, fails) < fails:
        mid = passes + (fails - passes) / 2
        if protocols.validate_readings(device, 1e-6, mid):
            fails = mid
        else:
            passes = mid
    params = replace(calibrate_defaults(device, **kwargs), hardening_amplitude=passes)
    record = run_fatigue_test(14.0, SpecimenStrength(), device, params, **kwargs)
    assert record == reference_fatigue_run(14.0, SpecimenStrength(), device, params, **kwargs)
    assert max(v for _, v in record.detections) > 1e300
    assert all(math.isfinite(v) for _, v in record.detections)
    params = replace(params, hardening_amplitude=fails)
    population = (SpecimenStrength(),) * 2
    for run in (lambda: run_fatigue_test(14.0, SpecimenStrength(), device, params, **kwargs),
                lambda: reference_fatigue_run(14.0, SpecimenStrength(), device, params, **kwargs),
                lambda: run_stair_case([13.0, 14.0], 1.0, 14.0, 2, population, device, params,
                                       **kwargs)):
        with pytest.raises(ValueError, match="^hardening_amplitude: "):
            run()


CAMPAIGN_FAULTS = ["run", "step", "start", "grid", "count", "population", "nan std",
                   "nan threshold"]


@given(step_V=st.one_of(st.sampled_from([1.0, 0.5]), st.floats(0.05, 1.5)),
       start_V=st.floats(10.0, 16.0),
       below=st.integers(0, 4),
       above=st.integers(0, 2),
       n=st.integers(2, 8),
       explicit=st.booleans(),
       thresholds_V=st.lists(st.floats(-1.0, 30.0), min_size=8, max_size=8),
       master_seed=st.one_of(st.integers(0, 2**32), st.integers(0, 2**160)),
       std_V=st.sampled_from([0.0, 0.3, 0.55, 1.5]),
       run_kwargs=st.sampled_from(CAMPAIGN_RUN_SETTINGS),
       bad_run_kwargs=st.sampled_from(BAD_RUN_SETTINGS),
       fault=st.one_of(st.none(), st.sampled_from(CAMPAIGN_FAULTS)),
       hardening_amplitude=st.sampled_from([0.0, 0.3, 1.5]),
       softening_exponent=st.sampled_from([0.05, 0.2, 1.0]))
@settings(max_examples=300, deadline=None)
def test_campaign_matches_per_specimen_reference(nominal_device, calibrated_params, step_V,
                                                 start_V, below, above, n, explicit,
                                                 thresholds_V, master_seed, std_V,
                                                 run_kwargs, bad_run_kwargs, fault,
                                                 hardening_amplitude, softening_exponent):
    # build_population + run_stair_case against strength_scale_from_threshold and
    # run_fatigue_test per specimen: records, element types and faults alike. An
    # off-grid step makes the walk reach levels that drift from the levels_V values;
    # explicit thresholds outside [MIN_THRESHOLD_V, 0.99*V_PI] are clamped.
    d = nominal_device
    params = replace(calibrated_params, hardening_amplitude=hardening_amplitude,
                     softening_exponent=softening_exponent)
    levels = [start_V + i * step_V for i in range(-below, above + 1)]
    step, start = step_V, start_V
    thresholds = thresholds_V[:n] if explicit else None
    held = None  # the stair case runs the first held specimens of the population
    if fault == "run":
        run_kwargs = bad_run_kwargs
    elif fault == "step":
        step = math.nan
    elif fault == "start":
        start = start_V + step_V / 3
    elif fault == "grid":
        levels.append(start_V + step_V / 2)
    elif fault == "count":
        n = 0
    elif fault == "population":
        held = n - 1
    elif fault == "nan std":
        thresholds, std_V = None, math.nan
    elif fault == "nan threshold":
        thresholds = thresholds_V[:n]
        thresholds[n // 2] = math.nan
    args = (levels, step, start, n)

    def campaign():
        pop = build_population(master_seed, 13.0, std_V, n, d, params, thresholds)
        return pop, run_stair_case(*args, pop[:held], d, params, **run_kwargs)

    def reference():
        pop = reference_population(master_seed, 13.0, std_V, n, d, params, thresholds)
        return pop, reference_stair_case(*args, pop[:held], d, params, **run_kwargs)

    got, want = result_or_fault(campaign), result_or_fault(reference)
    assert got == want
    assert (fault is None) == (type(want[1]) is tuple and type(want[1][1]) is list)
    if fault is None:
        (seq, records), (want_seq, want_records) = got[1], want[1]
        assert [type(t.level_V) for t in seq.trials] == [
            type(t.level_V) for t in want_seq.trials]
        assert [(type(r.drive_amplitude_V), type(r.detection_interval),
                 type(r.reference_cycles)) for r in records] == [
            (type(r.drive_amplitude_V), type(r.detection_interval),
             type(r.reference_cycles)) for r in want_records]
        # The last run's counts against the batch walk; the records above equal the
        # per-specimen runs, whose counts the run differentials check.
        trial = seq.trials[-1]
        _, pairs = reference_run(trial.level_V, got[0][trial.specimen_id], d, params,
                                 **protocols.RunSettings(**run_kwargs)._asdict())
        assert_detections_are(records[-1], pairs)


@pytest.mark.parametrize("n_specimens", [2, 6, 60])
def test_campaign_solves_each_level_once(nominal_device, calibrated_params, monkeypatch,
                                         n_specimens):
    # Clock-free: one batched solve for the population, then one for the design's
    # levels, however many specimens run.
    sizes = []
    solve = loading._stable_points

    def counted(voltages, *args):
        sizes.append(len(voltages))
        return solve(voltages, *args)

    monkeypatch.setattr(loading, "_stable_points", counted)
    pop = build_population(7, 13.0, 0.55, n_specimens, nominal_device, calibrated_params)
    assert sizes == [n_specimens]
    run_stair_case([12, 13, 14, 15], 1.0, 15.0, n_specimens, pop, nominal_device,
                   calibrated_params)
    assert sizes == [n_specimens, 4]


def test_campaign_solves_a_level_off_its_design_when_the_walk_first_reaches_it(
        nominal_device, calibrated_params, monkeypatch):
    # 0.1 is not exact in binary, so the walk from 12.3 V drifts off the design's two
    # levels: each drifted level is solved once, on its first reach.
    sizes = []
    solve = loading._stable_points

    def counted(voltages, *args):
        sizes.append(len(voltages))
        return solve(voltages, *args)

    pop = build_population(0, 12.15, 0.3, 12, nominal_device, calibrated_params)
    monkeypatch.setattr(loading, "_stable_points", counted)
    seq, _ = run_stair_case([12.0, 12.3], 0.1, 12.3, 12, pop, nominal_device,
                            calibrated_params)
    drifted = {t.level_V for t in seq.trials} - {12.0, 12.3}
    assert len(drifted) == 4
    assert sizes == [2] + [1] * len(drifted)


def test_a_device_derives_its_constants_once_across_a_campaign_and_a_run(monkeypatch):
    # Clock-free: each deriving function of the device-constant memo runs once per
    # device, though calibration, the population, two campaigns and a run all read it.
    derived = collections.Counter()
    for name in ("_drive_scale_and_capacity", "_solve_scales", "_closed_form"):
        def counted(mech, geom, name=name, derive=getattr(electromech, name)):
            derived[name] += 1
            return derive(mech, geom)
        monkeypatch.setattr(electromech, name, counted)
    for device in (Device.nominal(), Device.nominal(c_k=1.5), Device.nominal()):
        derived.clear()
        params = calibrate_defaults(device)
        pop = build_population(7, 13.0, 0.55, 6, device, params)
        for _ in range(2):
            run_stair_case([12, 13, 14, 15], 1.0, 15.0, 6, pop, device, params)
        run_fatigue_test(14.0, pop[0], device, params)
        assert derived == {"_drive_scale_and_capacity": 1, "_solve_scales": 1,
                           "_closed_form": 1}


def test_the_design_memo_answers_each_call_in_its_own_spelling(nominal_device):
    # -0.0 == 0.0 keys one entry, and a design with faults is validated afresh. The
    # recovery trial reads the same memo.
    for step_V in (0.0, -0.0, 0.0, -0.0):
        assert protocols.validate_stair_case([12.0, 13.0], step_V, 13.0, 6, nominal_device) \
            == [f"step_V: must be > 0, got {step_V}"]
        with pytest.raises(ValueError, match=f"^step_V: must be > 0, got {step_V}$"):
            stats.estimator_recovery_trial(13.0, 0.55, 6, 20, 1, levels_V=(12.0, 13.0),
                                           step_V=step_V, start_level_V=13.0)
    for start_V in (13.0, 13):
        assert protocols.validate_stair_case([12.0, 14.0], 1.0, start_V, 6, nominal_device) \
            == [f"start_level_V: {start_V} V not among levels [12.0, 14.0]"]
    # Equal designs of two types: an int step moves Fraction levels exactly, and does
    # not move the equal floats.
    exact, rounded = [Fraction(10**20), Fraction(10**20 + 16384)], [1e20, 1e20 + 16384.0]
    assert exact == rounded
    above = "levels_V: need levels in [0, 26.395) V, the pristine pull-in"
    assert protocols.validate_stair_case(exact, 1, exact[0], 6, nominal_device) == [above]
    assert protocols.validate_stair_case(rounded, 1, rounded[0], 6, nominal_device) == [
        "step_V: 1 V is too small to move the walk off the 1e+20 V level", above]


@pytest.mark.parametrize("step_V, start_V, past", [
    (10**400, 13.0, ["step_V"]),
    (-10**400, 13.0, ["step_V"]),
    (1.0, 10**400, ["start_level_V"]),
    (10**400, -10**400, ["step_V", "start_level_V"]),
])
def test_stair_case_names_a_step_or_start_past_the_float_range(nominal_device, step_V,
                                                               start_V, past):
    # Ints past the float range, named alone: no check past this one can read them as
    # floats. Each value is shown bounded.
    values = {"step_V": step_V, "start_level_V": start_V}
    assert protocols.validate_stair_case([12.0, 13.0], step_V, start_V, 6, nominal_device) \
        == [f"{name}: must be finite, got {shown(str(values[name]))}" for name in past]


@pytest.mark.parametrize("levels_V", [[10**400, 15.0], [15.0, -10**400], [-10**400, 10**401]])
def test_stair_case_names_a_level_past_the_float_range(nominal_device, calibrated_params,
                                                       levels_V):
    # Named alone, by the first such level, before the campaign reads a level as a float.
    first = next(v for v in levels_V if type(v) is int)
    fault = f"levels_V: must be finite, got {shown(str(first))}"
    assert protocols.validate_stair_case(levels_V, 1.0, 15.0, 6, nominal_device) == [fault]
    population = (SpecimenStrength(),) * 6
    with pytest.raises(ValueError, match=f"^invalid stair case: {re.escape(fault)}$"):
        run_stair_case(levels_V, 1.0, 15.0, 6, population, nominal_device, calibrated_params)


@pytest.mark.parametrize("field, value", [("strength_mean_V", -10**400),
                                          ("strength_std_V", -10**400),
                                          ("strength_mean_V", -1e308)])
def test_population_shows_a_refused_mean_or_spread_bounded(field, value):
    # A library call: config values reach it within the float range.
    bound = "> 0" if field == "strength_mean_V" else ">= 0"
    assert protocols.validate_population(6, None, **{field: value}) == [
        f"{field}: must be {bound}, got {shown(repr(value))}"]

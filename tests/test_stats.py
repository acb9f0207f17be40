import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from microfatigue import stats
from microfatigue.errors import EstimationError
from microfatigue.protocols import MAX_SPECIMENS, StairCaseSequence, StairCaseTrial
from microfatigue.stats import (WohlerPoint, dixon_mood, estimator_recovery_trial,
                                fit_basquin, synthetic_stair_case)


def make_sequence(pairs, step=1.0):
    trials = tuple(StairCaseTrial(specimen_id=i, level_V=lvl, failure=bool(out))
                   for i, (lvl, out) in enumerate(pairs))
    levels = tuple(sorted({lvl for lvl, _ in pairs}))
    return StairCaseSequence(trials=trials, step_V=step, levels_V=levels)


PUBLISHED = [(15.0, 1), (14.0, 1), (13.0, 0), (14.0, 1), (13.0, 1), (12.0, 0)]


def test_published_sequence_mean():
    est = dixon_mood(make_sequence(PUBLISHED))
    assert est.mean_V == pytest.approx(13.0, abs=1e-12)
    assert est.basis_event == "non-failure"


def test_published_sequence_dispersion_fallback():
    est = dixon_mood(make_sequence(PUBLISHED))
    # validity ratio (2*1 - 1)/4 = 0.25 < 0.3 -> 0.53*d fallback
    assert not est.dispersion_valid
    assert est.std_V == pytest.approx(0.53, abs=1e-12)
    assert round(est.q10_V, 1) == 12.3
    assert round(est.q90_V, 1) == 13.7


def test_quantile_symmetry():
    est = dixon_mood(make_sequence(PUBLISHED))
    assert est.q10_V + est.q90_V == pytest.approx(2 * est.mean_V)


def test_alternating_sequence_midpoint():
    pairs = [(14.0, 1), (13.0, 0)] * 4
    est = dixon_mood(make_sequence(pairs))
    assert est.mean_V == pytest.approx(13.5)
    # swapping which event is the basis must agree: force the other basis
    pairs_extra_failure = pairs + [(14.0, 1)]
    est2 = dixon_mood(make_sequence(pairs_extra_failure))
    assert est2.basis_event == "non-failure"
    assert est2.mean_V == pytest.approx(13.5)


def test_single_outcome_errors():
    with pytest.raises(EstimationError, match="no non-failure"):
        dixon_mood(make_sequence([(14.0, 1), (13.0, 1)]))
    with pytest.raises(EstimationError, match="no failure"):
        dixon_mood(make_sequence([(14.0, 0), (15.0, 0)]))


@given(scale=st.floats(min_value=0.1, max_value=10),
       offset=st.floats(min_value=-20, max_value=20),
       seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_affine_equivariance(scale, offset, seed):
    rng = np.random.default_rng(seed)
    strengths = 13.0 + 0.7 * rng.standard_normal(8)
    seq = synthetic_stair_case(list(strengths), [11, 12, 13, 14, 15], 1.0, 13.0)
    try:
        base = dixon_mood(seq)
    except EstimationError:
        return
    mapped = make_sequence([(scale * t.level_V + offset, int(t.failure))
                            for t in seq.trials], step=scale * seq.step_V)
    est = dixon_mood(mapped)
    assert est.mean_V == pytest.approx(scale * base.mean_V + offset, rel=1e-9, abs=1e-9)
    assert est.std_V == pytest.approx(scale * base.std_V, rel=1e-9)


def test_dispersion_formula_valid_branch():
    # basis events spread over three levels to push the ratio above 0.3
    pairs = [(14.0, 1), (13.0, 0), (14.0, 1), (13.0, 0), (14.0, 1),
             (13.0, 1), (12.0, 0), (13.0, 1), (12.0, 1), (11.0, 0)]
    est = dixon_mood(make_sequence(pairs))
    assert est.basis_event == "non-failure"
    # basis levels 13,13,12,11: X0=11, n=(1,1,2), A=0+1+2*2=5, B=0+1+2*4=9
    ratio = (4 * 9 - 25) / 16
    assert ratio >= 0.3
    assert est.dispersion_valid
    assert est.std_V == pytest.approx(1.62 * 1.0 * (ratio + 0.029))
    assert est.mean_V == pytest.approx(11 + (5 / 4 + 0.5))


@pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf])
def test_dixon_mood_names_a_step_that_is_not_finite_and_positive(step):
    with pytest.raises(EstimationError, match=f"^step_V must be finite and > 0, got {step}$"):
        dixon_mood(make_sequence(PUBLISHED, step=step))


def test_dixon_mood_refuses_quantiles_that_overflow():
    # A one-level window at a step near the float maximum: the mean is finite,
    # 13 - step/2, but q10 = mean - Z_90 * 0.53 * step overflows to -inf.
    pairs = [(13.0, 0), (13.0, 0), (13.0, 1), (13.0, 1), (13.0, 0), (13.0, 1)]
    with pytest.raises(EstimationError, match=r"^the quantiles -inf, .* overflow a float"):
        dixon_mood(make_sequence(pairs, step=1.7e308))


@pytest.mark.parametrize("cycles", [1.5, math.nan, math.inf, 0, 0.0, -3])
def test_wohler_point_rejects_cycles_that_are_not_whole_and_positive(cycles):
    with pytest.raises(ValueError, match="^cycles: must be a whole number >= 1, got "):
        WohlerPoint(13.0, cycles)


@pytest.mark.parametrize("level", [math.nan, -1.0, 0.0, math.inf])
def test_basquin_names_a_level_that_is_not_finite_and_positive(level):
    points = [WohlerPoint(20.0, 10**3), WohlerPoint(level, 10**4), WohlerPoint(14.0, 10**6)]
    with pytest.raises(EstimationError, match=f"^level must be finite and > 0 V, got {level}$"):
        fit_basquin(points)
    # A censored point takes no part in the fit, whatever its level.
    points[1] = WohlerPoint(level, 10**4, censored=True)
    assert fit_basquin(points) == fit_basquin(points[::2])


def test_basquin_exact_recovery():
    b_true = -0.1
    coeff = 30.0
    points = [WohlerPoint(level_V=coeff * n**b_true, cycles=n)
              for n in (10**3, 10**4, 10**5, 10**6)]
    fit = fit_basquin(points)
    assert fit.exponent == pytest.approx(b_true, abs=1e-6)
    assert fit.coefficient == pytest.approx(coeff, rel=1e-6)
    assert fit.residual < 1e-12


def test_basquin_two_point_slope():
    points = [WohlerPoint(20.0, 10**3), WohlerPoint(14.0, 10**6)]
    fit = fit_basquin(points)
    assert fit.exponent == pytest.approx(math.log(14 / 20) / math.log(10**3), rel=1e-9)
    assert fit.exponent == pytest.approx(-0.0516, abs=5e-4)


def test_basquin_censored_excluded():
    points = [WohlerPoint(20.0, 10**3), WohlerPoint(14.0, 10**6)]
    with_censored = points + [WohlerPoint(12.0, 2 * 10**6, censored=True)]
    assert fit_basquin(points) == fit_basquin(with_censored)


def test_basquin_permutation_invariant():
    points = [WohlerPoint(20.0, 10**3), WohlerPoint(17.0, 10**4),
              WohlerPoint(14.0, 10**6)]
    assert fit_basquin(points) == fit_basquin(list(reversed(points)))


def test_basquin_degenerate_errors():
    with pytest.raises(EstimationError):
        fit_basquin([WohlerPoint(20.0, 10**3), WohlerPoint(20.0, 10**4)])
    with pytest.raises(EstimationError):
        fit_basquin([WohlerPoint(20.0, 10**3, censored=True),
                     WohlerPoint(14.0, 10**6, censored=True)])


def test_basquin_unbounded_fits_error():
    # One cycle count leaves the slope undefined; these extremes put C = e**(about 725).
    with pytest.raises(EstimationError, match="one cycle count"):
        fit_basquin([WohlerPoint(20.0, 10**3), WohlerPoint(14.0, 10**3)])
    with pytest.raises(EstimationError, match="overflows"):
        fit_basquin([WohlerPoint(5.0, 10**300), WohlerPoint(1e299, 10**15)])


@pytest.mark.parametrize("points, message", [
    ([WohlerPoint(14.0, 10**15), WohlerPoint(15.0, 10**15 + 1)],
     "all uncensored points share one cycle count; slope is undefined"),
    ([WohlerPoint(1e15, 10**3), WohlerPoint(1e15 + 0.125, 10**6)],
     "all uncensored points share one level; a Basquin exponent of 0 gives no finite life"),
], ids=["cycles", "levels"])
def test_basquin_rejects_values_whose_logs_coincide(points, message):
    # Two distinct values whose logs are one float leave the log-log line no spread:
    # one log cycle count leaves the slope undefined, one log level makes it 0.
    with pytest.raises(EstimationError, match=f"^{message}$"):
        fit_basquin(points)


def _polyfit_basquin(points):
    """The Basquin fit as np.polyfit computes it: (coefficient, exponent, residual)."""
    usable = sorted((p for p in points if not p.censored), key=lambda p: (p.cycles, p.level_V))
    log_n = np.log(np.array([p.cycles for p in usable], dtype=float))
    log_s = np.log(np.array([p.level_V for p in usable], dtype=float))
    slope, intercept = np.polyfit(log_n, log_s, 1)
    residual = np.sqrt(np.mean((log_s - (intercept + slope * log_n)) ** 2))
    return float(np.exp(intercept)), float(slope), float(residual)


@st.composite
def basquin_points(draw):
    """2 to 50 points level = C * N**b * noise, N in [1, 1e7] over at least a decade.

    np.polyfit loses digits as the log cycle counts bunch up: on two counts near
    1e7 one apart, its exponent is 7e-8 relative off the exact least-squares
    slope of the same logs. So the oracle is held to S-N data that span a
    decade, as a test series does."""
    coefficient = draw(st.floats(10.0, 1000.0))
    exponent = draw(st.floats(-0.5, -0.01))
    cycles = draw(st.lists(st.integers(1, 10**7), min_size=2, max_size=50).filter(
        lambda ns: max(ns) >= 10 * min(ns)))
    noise = draw(st.lists(st.floats(0.8, 1.25), min_size=len(cycles), max_size=len(cycles)))
    return [WohlerPoint(coefficient * n**exponent * e, n) for n, e in zip(cycles, noise)]


@given(points=basquin_points())
@settings(max_examples=300, deadline=None)
def test_basquin_fit_agrees_with_polyfit(points):
    coefficient, exponent, residual = _polyfit_basquin(points)
    fit = fit_basquin(points)
    assert fit.coefficient == pytest.approx(coefficient, rel=1e-9, abs=0.0)
    assert fit.exponent == pytest.approx(exponent, rel=1e-9, abs=0.0)
    assert fit.residual == pytest.approx(residual, rel=0.0, abs=1e-12)


def test_basquin_noise_robustness():
    b_true = -0.08
    coeff = 40.0
    rng = np.random.default_rng(7)
    errors = []
    for _ in range(100):
        cycles = np.array([10**3, 10**4, 10**5, 10**6], dtype=float)
        noisy = cycles * (1.0 + 0.05 * rng.standard_normal(cycles.size))
        points = [WohlerPoint(coeff * n**b_true, max(1, int(m)))
                  for n, m in zip(cycles, noisy)]
        fit = fit_basquin(points)
        errors.append(abs(fit.exponent - b_true) / abs(b_true))
    assert np.mean(errors) < 0.05


def test_recovery_trial_bias_bound():
    summary = estimator_recovery_trial(13.0, 0.55, n_specimens=6,
                                       replications=200, master_seed=42)
    assert summary["valid_replications"] > 150
    assert abs(summary["mean_bias_V"]) < 0.3


def test_recovery_trial_zero_scatter():
    summary = estimator_recovery_trial(13.0, 0.0, n_specimens=6,
                                       replications=20, master_seed=1)
    assert summary["max_abs_bias_V"] <= 1.0  # within one step of the true mean


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_recovery_trial_draws_a_strength_past_the_float_range_as_infinite():
    # mean + std*z overflows for |z| > 1.06: such a strength is +-inf, which the
    # state-code walk places at a window end, and no overflow warning is raised.
    summary = estimator_recovery_trial(13.0, 1.7e308, 6, 200, master_seed=20080409)
    with np.errstate(over="ignore"):  # the reference's float draw overflows alike
        assert summary == recovery_by_replication(13.0, 1.7e308, 6, 200, 20080409)


def test_recovery_trial_determinism():
    a = estimator_recovery_trial(13.0, 0.55, 6, 50, master_seed=3)
    b = estimator_recovery_trial(13.0, 0.55, 6, 50, master_seed=3)
    assert a == b


def test_recovery_doubling_levels_doubles_estimate():
    rng = np.random.default_rng(0)
    strengths = list(13.0 + 0.5 * rng.standard_normal(8))
    seq = synthetic_stair_case(strengths, [12, 13, 14, 15], 1.0, 13.0)
    base = dixon_mood(seq)
    doubled = synthetic_stair_case([2 * s for s in strengths],
                                   [24, 26, 28, 30], 2.0, 26.0)
    est = dixon_mood(doubled)
    assert est.mean_V == pytest.approx(2 * base.mean_V, rel=1e-12)


# (mean_bias_V, std_bias_V, valid_replications) at master_seed 42 with 20 000
# replications, recorded when each replication drew from its own
# default_rng((master_seed, rep)) stream.
PER_REPLICATION_STREAM_SUMMARY = {
    (13.0, 0.55, 6): (0.010900000000000003, 0.32682916196556117, 20000),
    (13.0, 0.8, 24): (0.057349229797979795, 0.19964559216937913, 20000),
}


@pytest.mark.parametrize("trial", sorted(PER_REPLICATION_STREAM_SUMMARY))
def test_one_generator_stream_agrees_with_per_replication_streams(trial):
    parent_mean, parent_std, parent_valid = PER_REPLICATION_STREAM_SUMMARY[trial]
    summary = estimator_recovery_trial(*trial, replications=20000, master_seed=42)
    combined_se = math.hypot(summary["std_bias_V"] / math.sqrt(summary["valid_replications"]),
                             parent_std / math.sqrt(parent_valid))
    assert abs(summary["mean_bias_V"] - parent_mean) <= 5 * combined_se


def recovery_by_replication(strength_mean_V, strength_std_V, n_specimens, replications,
                            master_seed):
    """Reference: one synthetic_stair_case and one dixon_mood (with its grid
    check) per replication, each drawing the next n_specimens normals from
    one default_rng(master_seed)."""
    base = round(strength_mean_V)
    levels = [base - 1.0 + i for i in range(4)]
    start = min(levels, key=lambda v: abs(v - strength_mean_V))
    estimates = []
    skipped = 0
    rng = np.random.default_rng(int(master_seed))
    for _ in range(replications):
        strengths = strength_mean_V + strength_std_V * rng.standard_normal(n_specimens)
        seq = synthetic_stair_case(list(strengths), levels, 1.0, start)
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


@st.composite
def recovery_trials(draw):
    # Means ending in .5 tie the two nearest window levels for the start; far
    # means keep the window on its grid too. From 2**52 on, window levels 1 V
    # apart coincide as floats.
    mean = draw(st.integers(8, 18).map(lambda k: k + 0.5)
                     | st.floats(8.0, 18.0, allow_subnormal=False)
                     | st.floats(-1e6, 1e6, allow_subnormal=False)
                     | st.floats(2.0**51, 2.0**60))
    return dict(
        strength_mean_V=mean,
        strength_std_V=draw(st.sampled_from([0.0, 1e-12, 1e-6]) | st.floats(0.0, 2.0)),
        n_specimens=draw(st.integers(1, 30)),
        replications=draw(st.integers(1, 60)),
        # Past 2**64 and 2**96: seeds of three and more 32-bit entropy words.
        master_seed=draw(st.integers(0, 2**32) | st.integers(0, 2**200)),
    )


def _summary_or_error(fn, kwargs):
    try:
        return fn(**kwargs)
    except EstimationError as exc:
        return ("EstimationError", str(exc))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(trial=recovery_trials(), block_elements=st.sampled_from([1, 7, stats._BLOCK_ELEMENTS]))
@settings(max_examples=300, deadline=None)
def test_batched_recovery_equals_replication_loop(trial, block_elements):
    if not trial["strength_mean_V"] > 0:  # a threshold distribution needs a positive mean
        with pytest.raises(ValueError, match="^strength_mean_V: must be > 0"):
            estimator_recovery_trial(**trial)
        return
    with mock.patch.object(stats, "_BLOCK_ELEMENTS", block_elements):
        batched = _summary_or_error(estimator_recovery_trial, trial)
    assert batched == _summary_or_error(recovery_by_replication, trial)


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


# Window bases past 2**52 make window levels 1 V apart coincide as floats.
WINDOW_BASES = st.integers(10, 15) | st.integers(2**51, 2**60)
STRENGTH_OFFSETS_V = st.floats(-3.0, 4.0) | st.sampled_from([math.nan, math.inf, -math.inf, 1])


@st.composite
def window_stair_cases(draw, min_specimens=0):
    """(rows of strengths, the recovery window's four levels, start index): up to
    5 rows of min_specimens to 30 strengths around a window of 1 V steps."""
    base = draw(WINDOW_BASES)
    n = draw(st.integers(min_specimens, 30))
    offsets = draw(st.lists(st.lists(STRENGTH_OFFSETS_V, min_size=n, max_size=n),
                            min_size=1, max_size=5))
    rows = [[base + offset for offset in row] for row in offsets]
    return rows, [base - 1.0 + i for i in range(4)], draw(st.integers(0, 3))


@given(case=window_stair_cases())
@settings(max_examples=300, deadline=None)
def test_state_code_walk_steps_as_synthetic_stair_case(case):
    rows, levels, start = case
    window, next_code, _, _ = stats._window_tables(levels)
    strengths = np.array(rows, dtype=float).reshape(len(rows), -1)
    codes = stats._stair_case_codes(strengths, window, next_code, 5 * start)
    for row, row_codes in zip(rows, codes.T.tolist()):
        trials = synthetic_stair_case(row, levels, 1.0, levels[start]).trials
        assert [t.level_V for t in trials] == [levels[code // 5] for code in row_codes]
        assert [t.failure for t in trials] == [code // 5 >= code % 5 for code in row_codes]
        assert all(type(t.level_V) is float and type(t.failure) is bool for t in trials)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(case=window_stair_cases(min_specimens=1))
@settings(max_examples=300, deadline=None)
def test_dixon_mood_from_counts_equals_the_float_array_reference(case):
    rows, levels, start = case
    strengths = np.array(rows, dtype=float).reshape(len(rows), -1)
    tested = float_stair_case_levels(strengths, levels[0], levels[-1], 1.0, levels[start])
    expected = float_dixon_mood_means(tested, tested >= strengths, 1.0)
    window, next_code, cell, sums = stats._window_tables(levels)
    codes = stats._stair_case_codes(strengths, window, next_code, 5 * start)
    assert stats._dixon_mood_means(codes, window, cell, sums).tolist() == expected.tolist()


@pytest.mark.parametrize("fault, name", [
    ({"replications": 0}, "replications"),
    ({"n_specimens": 0}, "n_specimens"),
    ({"n_specimens": -3}, "n_specimens"),
    ({"n_specimens": 2.5}, "n_specimens"),
    ({"master_seed": -1}, "master_seed"),
    ({"strength_std_V": -1.0}, "strength_std_V"),
    ({"strength_std_V": math.nan}, "strength_std_V"),
    ({"strength_mean_V": math.nan}, "strength_mean_V"),
    ({"strength_mean_V": math.inf}, "strength_mean_V"),
    ({"replications": stats.MAX_REPLICATIONS + 1}, "replications"),
    ({"n_specimens": MAX_SPECIMENS + 1}, "n_specimens"),
    ({"strength_mean_V": 0.0}, "strength_mean_V"),
    ({"strength_mean_V": -13.0}, "strength_mean_V"),
    ({"master_seed": 1.0}, "master_seed"),
])
def test_recovery_trial_rejects_arguments_before_seeding(fault, name):
    kwargs = {"strength_mean_V": 13.0, "strength_std_V": 0.55, "n_specimens": 6,
              "replications": 20, "master_seed": 1, **fault}
    with mock.patch("numpy.random.default_rng", side_effect=AssertionError("seeded")):
        with pytest.raises(ValueError, match=f"^{name}: "):
            estimator_recovery_trial(**kwargs)

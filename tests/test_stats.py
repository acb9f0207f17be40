import math
import re
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from microfatigue import stats
from microfatigue.errors import SHOWN_CHARS, EstimationError
from microfatigue.protocols import MAX_SPECIMENS
from microfatigue.stats import (WohlerPoint, dixon_mood, estimator_recovery_trial,
                                fit_basquin, synthetic_stair_case)
from tests.reference import (PUBLISHED, float_dixon_mood_means, float_stair_case_levels,
                             make_sequence, polyfit_basquin, recovery_by_replication,
                             result_or_fault, walk_levels)


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


def test_dixon_mood_names_a_basis_level_off_the_step_grid():
    # Failures are the basis (two against three survivals); 12.5 V lies half a
    # step from the lowest failure level.
    pairs = [(12.0, 1), (13.0, 0), (12.5, 1), (14.0, 0), (15.0, 0)]
    with pytest.raises(EstimationError, match=r"^level 12\.5 V is not on the step grid "
                                              r"\(step 1\.0 V from 12\.0 V\)$"):
        dixon_mood(make_sequence(pairs, step=1.0))


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
    coefficient, exponent, residual = polyfit_basquin(points)
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


# The design the trial walked before it took the campaign's: 12-15 V from 13 V, the
# level nearest the mean. The figures recorded on it stay as they were.
OLD_WINDOW = {"levels_V": (12.0, 13.0, 14.0, 15.0), "step_V": 1.0, "start_level_V": 13.0}


def test_recovery_trial_bias_bound():
    summary = estimator_recovery_trial(13.0, 0.55, n_specimens=6,
                                       replications=200, master_seed=42, **OLD_WINDOW)
    assert summary["valid_replications"] > 150
    assert abs(summary["mean_bias_V"]) < 0.3


def test_recovery_trial_zero_scatter():
    summary = estimator_recovery_trial(13.0, 0.0, n_specimens=6,
                                       replications=20, master_seed=1, **OLD_WINDOW)
    assert summary["max_abs_bias_V"] <= 1.0  # within one step of the true mean


def test_recovery_runs_the_campaign_design_by_default():
    # 200 000 pure-threshold replications of the default campaign (12-15 V from 15 V,
    # n 6, Normal(13.0, 0.55)) spread the estimate with an SD of 0.407 V; the old
    # design's start at 13 V gave 0.325 V. The standard error of an SD over n
    # replications is about SD / sqrt(2 n).
    summary = estimator_recovery_trial(13.0, 0.55, 6, 20_000, master_seed=20080409)
    se = 0.407 / math.sqrt(2 * summary["valid_replications"])
    assert abs(summary["std_bias_V"] - 0.407) <= 5 * se
    assert summary == estimator_recovery_trial(13.0, 0.55, 6, 20_000, 20080409,
                                               (15.0, 14.0, 13.0, 12.0), 1.0, 15.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_recovery_trial_cuts_every_level_at_one_half_past_the_float_range():
    # std * sqrt(2) overflows to inf, so every cell probability is Phi(0) = 1/2, the
    # limit that a spread of 1e300 already reaches; no overflow warning is raised.
    summary = estimator_recovery_trial(13.0, 1.7e308, 6, 200, master_seed=20080409)
    assert summary == recovery_by_replication(13.0, 1.7e308, 6, 200, 20080409)
    assert summary == {**estimator_recovery_trial(13.0, 1e300, 6, 200, master_seed=20080409),
                       "true_std_V": 1.7e308}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n_specimens", [2, 3, 6])
def test_recovery_trial_refuses_a_design_at_the_float_range_without_a_warning(n_specimens):
    # The Dixon-Mood means and their biases would overflow to inf or NaN; the entry names
    # the step and the mean's distance to a level before any draw.
    with pytest.raises(ValueError, match=re.escape(
            "step_V: must be below 2**499 V, got 1.7e+308; strength_mean_V: must lie within "
            "2**499 V of each level, got 1e+308")):
        estimator_recovery_trial(1e308, 1e308, n_specimens, 20, 0, levels_V=(0.0, 1.7e308),
                                 step_V=1.7e308, start_level_V=0.0)


# The float-range bound of the recovery trial's entry: a step, or a distance from the
# mean to the farther end of the window, of 2**499 V or more is refused.
BOUND_V = 2.0**499
BELOW_V = math.nextafter(BOUND_V, 0.0)


@st.composite
def far_trials(draw):
    """Recovery trials whose step, window ends and mean reach up to and past 2**499 V:
    one to four levels on the exact grid of a power-of-two step, from j steps off 0 V,
    or one level anywhere in the float range; the levels in any order, the mean a power
    of two off one of them, and the spread 0 or about that power of two."""
    step = 2.0 ** draw(st.integers(-4, 520) | st.integers(497, 501))
    if draw(st.booleans()):
        j = draw(st.integers(-2**20, 2**20))
        levels = [(j + k) * step for k in range(draw(st.integers(1, 4)))]
    else:
        levels = [draw(st.floats(-1.7e308, 1.7e308))]
    levels = draw(st.permutations(levels))
    offset = draw(st.integers(-4, 1020) | st.integers(496, 502))
    mean = abs(draw(st.sampled_from(levels)) + draw(st.sampled_from([-1.0, 1.0])) * 2.0**offset)
    assume(0.0 < mean < math.inf)
    spread = draw(st.just(None) | st.integers(-2, 2))
    return dict(strength_mean_V=mean,
                strength_std_V=0.0 if spread is None else 2.0 ** min(offset + spread, 1023),
                n_specimens=draw(st.integers(2, 6)), replications=draw(st.integers(1, 8)),
                master_seed=draw(st.integers(0, 2**32)), levels_V=tuple(levels), step_V=step,
                start_level_V=draw(st.sampled_from(levels)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(trial=far_trials())
@settings(max_examples=200, deadline=None)
def test_a_recovery_trial_runs_finite_or_names_the_term_past_the_float_range_bound(trial):
    levels, mean = trial["levels_V"], trial["strength_mean_V"]
    far = max(abs(mean - min(levels)), abs(mean - max(levels)))  # inf past the float range
    past = [name for name, value in (("step_V", trial["step_V"]), ("strength_mean_V", far))
            if value >= BOUND_V]
    result = result_or_fault(lambda: estimator_recovery_trial(**trial))
    if past:
        assert result[0] is ValueError
        assert [fault.partition(":")[0] for fault in result[1].split("; ")] == past
    else:
        assert result == result_or_fault(lambda: recovery_by_replication(**trial))
        assert (all(map(math.isfinite, result.values())) if isinstance(result, dict)
                else result[0] is EstimationError)


# Levels in neither order, so that the farther end is neither the first nor the last.
FAR_LEVELS_V = (2.0**497, 0.0, 2.0**498)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("design, fault", [
    ((BELOW_V / 2, (0.0, BELOW_V), BELOW_V, 0.0), None),
    ((BOUND_V / 2, (0.0, BOUND_V), BOUND_V, 0.0),
     f"step_V: must be below 2**499 V, got {BOUND_V!r}"),
    ((BELOW_V, FAR_LEVELS_V, 2.0**497, 0.0), None),
    ((BOUND_V, FAR_LEVELS_V, 2.0**497, 0.0),
     f"strength_mean_V: must lie within 2**499 V of each level, got {BOUND_V!r}"),
    # the distance overflows a float: inf in Python, a RuntimeWarning in numpy scalars
    ((1.7e308, (-1.7e308,), 1.0, -1.7e308),
     "strength_mean_V: must lie within 2**499 V of each level, got 1.7e+308"),
], ids=["step-below", "step-at", "mean-below", "mean-at", "mean-past-the-float-range"])
def test_the_float_range_bound_refuses_a_step_or_a_distance_at_2_to_the_499(design, fault):
    mean, levels, step, start = design
    trial = dict(strength_mean_V=mean, strength_std_V=1e300, n_specimens=6, replications=50,
                 master_seed=3, levels_V=levels, step_V=step, start_level_V=start)
    if fault is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(fault)}$"):
            estimator_recovery_trial(**trial)
        return
    summary = estimator_recovery_trial(**trial)
    assert summary == recovery_by_replication(**trial)
    assert summary["valid_replications"] > 0
    assert 2.0**498 < summary["max_abs_bias_V"] < 2.0**500


def test_the_recovery_trial_names_the_faults_of_population_and_design_at_once():
    with pytest.raises(ValueError, match="^strength_std_V: .*; replications: .*; levels_V: "):
        estimator_recovery_trial(13.0, -1.0, 6, 0, 1, (12.5, 15.0), 1.0, 15.0)


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


# (master_seed, mean_bias_V, std_bias_V, valid_replications) with 20 000 replications
# on the recovery benchmark's inputs and OLD_WINDOW, each row at its own seed (42 +
# row index) so that the rows are independent checks, recorded when the trial drew
# each strength as mean + std * z, z from one default_rng(master_seed)
# standard_normal stream: an independent sample of the same law.
PER_REPLICATION_STREAM_SUMMARY = {
    (13.0, 0.3, 6): (42, -0.005199999999999993, 0.28984318365473244, 20000),
    (13.0, 0.55, 6): (43, 0.007783333333333336, 0.32550896514364824, 20000),
    (13.0, 0.8, 6): (44, 0.027800000000000016, 0.39280960047104524, 20000),
    (13.0, 0.3, 12): (45, 0.00016166666666665987, 0.20461081343614268, 20000),
    (13.0, 0.55, 12): (46, 0.010850833333333332, 0.23264230047763837, 20000),
    (13.0, 0.8, 12): (47, 0.03976166666666667, 0.2828711600662433, 20000),
    (13.0, 0.3, 24): (48, -0.001459090909090913, 0.14528732994931684, 20000),
    (13.0, 0.55, 24): (49, 0.013030833333333339, 0.16466321634191422, 20000),
    (13.0, 0.8, 24): (50, 0.05692522727272727, 0.19987050532886957, 20000),
}


@pytest.mark.parametrize("trial", sorted(PER_REPLICATION_STREAM_SUMMARY))
def test_one_generator_stream_agrees_with_per_replication_streams(trial):
    # The mean bias within 5 standard errors of the float draw's at the same seed, and
    # the skipped share within 5 binomial standard deviations of the two samples'
    # pooled share.
    seed, parent_mean, parent_std, parent_valid = PER_REPLICATION_STREAM_SUMMARY[trial]
    summary = estimator_recovery_trial(*trial, replications=20000, master_seed=seed,
                                       **OLD_WINDOW)
    combined_se = math.hypot(summary["std_bias_V"] / math.sqrt(summary["valid_replications"]),
                             parent_std / math.sqrt(parent_valid))
    assert abs(summary["mean_bias_V"] - parent_mean) <= 5 * combined_se
    skipped, parent_skipped = summary["skipped_replications"], 20000 - parent_valid
    pooled = (skipped + parent_skipped) / 40000
    assert abs(skipped - parent_skipped) / 20000 <= 5 * math.sqrt(pooled * (1 - pooled) * 2 / 20000)


# Steps exact in binary, and steps that are not (0.1, 1/3, 0.7, 0.05), whose walk
# drifts off the design's levels in floats.
DESIGN_STEPS = st.sampled_from([1.0, 0.5, 0.25, 2.0, 0.1, 1 / 3, 0.7, 0.05])


@st.composite
def designs(draw):
    """(levels_V, step_V, start_level_V): 1 to 8 levels on the step grid from the
    start, at times with grid points left out, the start any of them."""
    step = draw(DESIGN_STEPS)
    indices = sorted(draw(st.sets(st.integers(0, 11), min_size=1, max_size=8)))
    start = draw(st.sampled_from(indices))
    start_level = draw(st.floats(5.0, 20.0))
    return [start_level + (i - start) * step for i in indices], step, start_level


@st.composite
def recovery_trials(draw):
    levels, step, start = draw(designs())
    mean = draw(st.floats(levels[0] - 2 * step, levels[-1] + 2 * step)
                | st.floats(-1e6, 1e6, allow_subnormal=False) | st.floats(2.0**51, 2.0**60))
    return dict(
        strength_mean_V=mean,
        strength_std_V=draw(st.sampled_from([0.0, 1e-12, 1e-6]) | st.floats(0.0, 2.0)),
        n_specimens=draw(st.integers(2, 30)),
        replications=draw(st.integers(1, 60)),
        # Past 2**64 and 2**96: seeds of three and more 32-bit entropy words.
        master_seed=draw(st.integers(0, 2**32) | st.integers(0, 2**200)),
        levels_V=levels, step_V=step, start_level_V=start,
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(trial=recovery_trials(), block_elements=st.sampled_from([1, 7, stats._BLOCK_ELEMENTS]))
@settings(max_examples=300, deadline=None)
def test_batched_recovery_equals_replication_loop(trial, block_elements):
    if not trial["strength_mean_V"] > 0:  # a threshold distribution needs a positive mean
        with pytest.raises(ValueError, match="^strength_mean_V: must be > 0"):
            estimator_recovery_trial(**trial)
        return
    with mock.patch.multiple(stats, _BLOCK_ELEMENTS=block_elements, _MIN_BLOCK_ROWS=1):
        batched = result_or_fault(lambda: estimator_recovery_trial(**trial))
    assert batched == result_or_fault(lambda: recovery_by_replication(**trial))


def test_window_tables_are_read_only():
    tables = stats._window_tables((12.0, 13.0, 14.0, 15.0), 1.0, 15.0)
    for table in tables[:-2]:  # the arrays; the start code and the step are numbers
        with pytest.raises(ValueError, match="read-only"):
            table[0] = table[1]


def test_window_tables_memo_keeps_each_window_apart():
    # The same levels walked from another start or with another step, and the same
    # start and step over other levels, each make their own walk; a memo keyed on
    # less than the whole design would hand one of them another's tables.
    trials = [(13.0, 0.55, 12, 300, 7, *design) for design in (
        ((12.0, 13.0, 14.0, 15.0), 1.0, 15.0), ((12.0, 13.0, 14.0, 15.0), 1.0, 13.0),
        ((13.0, 15.0), 1.0, 15.0), ((13.0, 15.0), 2.0, 15.0), ((12, 13, 14, 15), 1, 15),
        ((12.0, 13.0, 14.0, 15.0), 1.0, 15.0))]
    stats._window_tables.cache_clear()
    interleaved = [estimator_recovery_trial(*trial) for trial in trials]
    assert interleaved == [recovery_by_replication(*trial) for trial in trials]
    fresh = []
    for trial in trials:
        stats._window_tables.cache_clear()
        fresh.append(estimator_recovery_trial(*trial))
    assert interleaved == fresh


def test_wide_trials_pass_at_least_the_row_floor(monkeypatch):
    # 10 000 specimens fit 6 rows in _BLOCK_ELEMENTS; the floor takes 64.
    rows, walk = [], stats._stair_case_codes
    monkeypatch.setattr(stats, "_stair_case_codes",
                        lambda cells, *tables: rows.append(cells.shape[1]) or walk(cells, *tables))
    estimator_recovery_trial(13.0, 0.55, MAX_SPECIMENS, 130, master_seed=1)
    assert rows == [stats._MIN_BLOCK_ROWS, stats._MIN_BLOCK_ROWS, 2]


def test_a_basis_level_sum_fills_its_packed_field_without_carrying():
    # MAX_WALK_LEVELS levels 1 V apart, from the top: MAX_SPECIMENS - 1 strengths above
    # every level survive there, held by the clamp, and the last specimen fails there.
    # The survivals' index sum, (MAX_WALK_LEVELS - 1) * (MAX_SPECIMENS - 1), fills its
    # field; a carry out of it would move the sum of the single failure, the basis.
    levels = tuple(float(k) for k in range(stats.MAX_WALK_LEVELS))
    tables = stats._window_tables(levels, 1.0, levels[-1])
    cells = np.full((MAX_SPECIMENS, 1), len(levels))
    cells[-1] = 0
    codes = stats._stair_case_codes(cells, tables[1], tables[-2])
    assert stats._dixon_mood_means(codes, tables).tolist() == [levels[-1] - 0.5]


@pytest.mark.parametrize("levels, step", [
    (tuple(float(k) for k in range(stats.MAX_WALK_LEVELS + 1)), 1.0),
    ((12.0, 15.0), 0.001),  # 3 001 grid levels, and about as many again drifted
])
def test_a_walk_past_the_level_bound_is_refused_before_any_table(levels, step):
    with mock.patch("numpy.array", side_effect=AssertionError("built a table")):
        with pytest.raises(ValueError, match=f"^levels_V: the walk from {levels[-1]:g} V in steps "
                                             f"of {step:g} V reaches more than 210 levels$"):
            estimator_recovery_trial(13.0, 0.55, 6, 20, 1, levels, step, levels[-1])


# A strength as a float offset in steps above a design's lowest level, or as an int
# that picks one of its walk's levels, which a tie at a drifted level needs.
STRENGTHS = (st.floats(-3.0, 15.0) | st.sampled_from([math.nan, math.inf, -math.inf])
             | st.integers(0, 63))


@st.composite
def window_stair_cases(draw, min_specimens=0):
    """(rows of strengths, a design of designs()): up to 5 rows of min_specimens to 30
    strengths of STRENGTHS."""
    design = draw(designs())
    levels, step, _ = design
    walk = walk_levels(*design)
    n = draw(st.integers(min_specimens, 30))
    rows = draw(st.lists(st.lists(STRENGTHS, min_size=n, max_size=n), min_size=1, max_size=5))
    return [[walk[v % len(walk)] if type(v) is int else levels[0] + v * step for v in row]
            for row in rows], design


@given(case=window_stair_cases())
@settings(max_examples=300, deadline=None)
def test_state_code_walk_steps_as_synthetic_stair_case(case):
    rows, design = case
    tables = stats._window_tables(tuple(design[0]), *design[1:])
    walk, next_code, width = tables[0], tables[1], len(tables[0]) + 1
    assert walk.tolist() == walk_levels(*design)
    strengths = np.array(rows, dtype=float).reshape(len(rows), -1)
    # m, the walk levels below each strength; a NaN strength counts them all and
    # survives, as level >= NaN is false.
    codes = stats._stair_case_codes(walk.searchsorted(strengths.T), next_code, tables[-2])
    for row, row_codes in zip(rows, codes.T.tolist()):
        trials = synthetic_stair_case(row, *design).trials
        assert [t.level_V for t in trials] == [walk[code // width] for code in row_codes]
        assert [t.failure for t in trials] == [code // width >= code % width
                                               for code in row_codes]
        assert all(type(t.level_V) is float and type(t.failure) is bool for t in trials)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(case=window_stair_cases(min_specimens=1))
@settings(max_examples=300, deadline=None)
def test_dixon_mood_from_counts_equals_the_float_array_reference(case):
    rows, (levels, step, start) = case
    strengths = np.array(rows, dtype=float).reshape(len(rows), -1)
    tested = float_stair_case_levels(strengths, levels[0], levels[-1], step, start)
    expected = float_dixon_mood_means(tested, tested >= strengths, step)
    tables = stats._window_tables(tuple(levels), step, start)
    codes = stats._stair_case_codes(tables[0].searchsorted(strengths.T), tables[1], tables[-2])
    assert stats._dixon_mood_means(codes, tables).tolist() == expected.tolist()


@pytest.mark.parametrize("size", [1, 2, 7, 8, 9, 127, 128, 129, 200, 1000, 4097])
def test_bias_summary_equals_numpy_mean_std_and_max(size):
    # Sizes on both sides of numpy's pairwise-summation blocks (8 and 128 elements);
    # values as a trial's biases: Dixon-Mood means X0 + (A/N +/- 1/2) less a true mean.
    rng = np.random.default_rng(size)
    n = rng.integers(1, 13, size)
    estimates = rng.integers(12, 16, size) + (rng.integers(0, 3 * n + 1) / n
                                              + rng.choice([-0.5, 0.5], size))
    biases = estimates - 12.7
    assert list(map(repr, stats._bias_summary(biases))) == list(map(repr, (
        float(np.mean(biases)), float(np.std(biases)), float(np.max(np.abs(biases))))))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bias_summary_of_a_million_biases_below_2_to_the_500_is_finite():
    # The trial's entry keeps every bias below 2**500 V; MAX_REPLICATIONS squares of
    # such biases, about 2**1020 V**2 summed, stay finite.
    biases = np.full(stats.MAX_REPLICATIONS, math.nextafter(2.0**500, 0.0))
    biases[::2] *= -1.0
    summary = stats._bias_summary(biases)
    assert all(map(math.isfinite, summary))
    assert summary[2] == math.nextafter(2.0**500, 0.0)


@pytest.mark.parametrize("strength_std_V", [0.55, 0.0])
def test_recovery_trial_enters_no_numpy_python_reduction(strength_std_V):
    # numpy's mean(), std(), sum() and max() run their reductions through the Python
    # wrappers of numpy/_core/_methods.py; the trial calls the ufunc reductions direct.
    calls = []
    sys.setprofile(lambda frame, event, arg: event == "call" and calls.append(frame.f_code))
    try:
        estimator_recovery_trial(13.0, strength_std_V, 12, 200, master_seed=7)
    finally:
        sys.setprofile(None)
    assert "_dixon_mood_means" in {code.co_name for code in calls}
    assert [code.co_name for code in calls if Path(code.co_filename).match("numpy/*/_methods.py")] == []


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
    ({"n_specimens": 1}, "n_specimens"),  # Dixon-Mood needs both outcomes
    ({"step_V": 0.0}, "step_V"),
    ({"start_level_V": 12.5}, "start_level_V"),
    ({"levels_V": (13.5, 15.0)}, "levels_V"),
    ({"step_V": 1e-300}, "step_V"),
    ({"step_V": 0.001}, "levels_V"),  # past MAX_WALK_LEVELS
    ({"levels_V": (15.0,), "step_V": 2.0**499}, "step_V"),  # the float-range bound
    ({"strength_mean_V": 2.0**499}, "strength_mean_V"),
    ({"levels_V": ()}, "levels_V"),  # the CLI's check_campaign refuses it first
    ({"strength_mean_V": 10**400}, "strength_mean_V"),  # an int past the float range
    ({"strength_std_V": 10**400}, "strength_std_V"),
    ({"strength_mean_V": -10**400}, "strength_mean_V"),
    ({"step_V": 10**400}, "step_V"),  # an int step or start past the float range
    ({"start_level_V": 10**400}, "start_level_V"),
    ({"levels_V": (10**400, 15.0)}, "levels_V"),  # an int level past the float range
    ({"levels_V": (-10**400, 15.0)}, "levels_V"),
])
def test_recovery_trial_rejects_arguments_before_seeding(fault, name):
    kwargs = {"strength_mean_V": 13.0, "strength_std_V": 0.55, "n_specimens": 6,
              "replications": 20, "master_seed": 1, "levels_V": (12.0, 15.0), "step_V": 1.0,
              "start_level_V": 15.0, **fault}
    with mock.patch("numpy.random.PCG64", side_effect=AssertionError("seeded")):
        with pytest.raises(ValueError, match=f"^{name}: "):
            estimator_recovery_trial(**kwargs)


def test_recovery_trial_shows_an_int_past_the_float_range_bounded():
    with pytest.raises(ValueError) as raised:
        estimator_recovery_trial(13.0, 10**400, 6, 20, 1)
    assert str(raised.value) == ("strength_std_V: must be finite, got "
                                 f"{'1' + '0' * (SHOWN_CHARS - 1)}... (length 401)")

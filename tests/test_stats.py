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
    assert not est.dispersion_formula_valid
    assert est.std_V == pytest.approx(0.53, abs=1e-12)
    assert round(est.quantile_10_V, 1) == 12.3
    assert round(est.quantile_90_V, 1) == 13.7


def test_quantile_symmetry():
    est = dixon_mood(make_sequence(PUBLISHED))
    assert est.quantile_10_V + est.quantile_90_V == pytest.approx(2 * est.mean_V)


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
    assert est.dispersion_formula_valid
    assert est.std_V == pytest.approx(1.62 * 1.0 * (ratio + 0.029))
    assert est.mean_V == pytest.approx(11 + (5 / 4 + 0.5))


@pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf])
def test_dixon_mood_names_a_step_that_is_not_finite_and_positive(step):
    with pytest.raises(EstimationError, match=f"^step_V must be finite and > 0, got {step}$"):
        dixon_mood(make_sequence(PUBLISHED, step=step))


@pytest.mark.parametrize("cycles", [1.5, math.nan, math.inf, 0, 0.0, -3])
def test_wohler_point_rejects_cycles_that_are_not_whole_and_positive(cycles):
    with pytest.raises(ValueError, match="^cycles must be a whole number >= 1, got "):
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
    # One cycle count leaves the slope undefined; these extremes put C = e**(about 4e5).
    with pytest.raises(EstimationError, match="one cycle count"):
        fit_basquin([WohlerPoint(20.0, 10**3), WohlerPoint(14.0, 10**3)])
    with pytest.raises(EstimationError, match="overflows"):
        fit_basquin([WohlerPoint(5.0, 10**300), WohlerPoint(1e299, 10**15)])


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
                                       replications=200, seed=42)
    assert summary["valid_replications"] > 150
    assert abs(summary["mean_bias_V"]) < 0.3


def test_recovery_trial_zero_scatter():
    summary = estimator_recovery_trial(13.0, 0.0, n_specimens=6,
                                       replications=20, seed=1)
    assert summary["max_abs_bias_V"] <= 1.0  # within one step of the true mean


def test_recovery_trial_determinism():
    a = estimator_recovery_trial(13.0, 0.55, 6, 50, seed=3)
    b = estimator_recovery_trial(13.0, 0.55, 6, 50, seed=3)
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


# (mean_bias_V, std_bias_V, valid_replications) at seed 42 with 20 000
# replications, recorded when each replication drew from its own
# default_rng((seed, rep)) stream.
PER_REPLICATION_STREAM_SUMMARY = {
    (13.0, 0.55, 6): (0.010900000000000003, 0.32682916196556117, 20000),
    (13.0, 0.8, 24): (0.057349229797979795, 0.19964559216937913, 20000),
}


@pytest.mark.parametrize("trial", sorted(PER_REPLICATION_STREAM_SUMMARY))
def test_one_generator_stream_agrees_with_per_replication_streams(trial):
    parent_mean, parent_std, parent_valid = PER_REPLICATION_STREAM_SUMMARY[trial]
    summary = estimator_recovery_trial(*trial, replications=20000, seed=42)
    combined_se = math.hypot(summary["std_bias_V"] / math.sqrt(summary["valid_replications"]),
                             parent_std / math.sqrt(parent_valid))
    assert abs(summary["mean_bias_V"] - parent_mean) <= 5 * combined_se


def recovery_by_replication(true_mean_V, true_std_V, n_specimens, replications, seed):
    """Reference: one synthetic_stair_case and one dixon_mood (with its grid
    check) per replication, each drawing the next n_specimens normals from
    one default_rng(seed)."""
    base = round(true_mean_V)
    levels = [base - 1.0 + i for i in range(4)]
    start = min(levels, key=lambda v: abs(v - true_mean_V))
    estimates = []
    skipped = 0
    rng = np.random.default_rng(int(seed))
    for _ in range(replications):
        strengths = true_mean_V + true_std_V * rng.standard_normal(n_specimens)
        seq = synthetic_stair_case(list(strengths), levels, 1.0, start)
        try:
            estimates.append(dixon_mood(seq).mean_V)
        except EstimationError:
            skipped += 1
    if not estimates:
        raise EstimationError("every replication produced a single-outcome sequence")
    biases = np.array(estimates) - true_mean_V
    return {
        "true_mean_V": true_mean_V,
        "true_std_V": true_std_V,
        "n_specimens": n_specimens,
        "replications": replications,
        "valid_replications": len(estimates),
        "skipped_replications": skipped,
        "mean_bias_V": float(np.mean(biases)),
        "std_bias_V": float(np.std(biases)),
        "max_abs_bias_V": float(np.max(np.abs(biases))),
    }


STEPS_V = st.sampled_from([0.1, 0.3, 0.7, 1.0, 2.0])


@st.composite
def recovery_trials(draw):
    # Means ending in .5 tie the two nearest window levels for the start; far
    # means keep the window on its grid too.
    true_mean = draw(st.integers(8, 18).map(lambda k: k + 0.5)
                     | st.floats(8.0, 18.0, allow_subnormal=False)
                     | st.floats(-1e6, 1e6, allow_subnormal=False))
    return dict(
        true_mean_V=true_mean,
        true_std_V=draw(st.sampled_from([0.0, 1e-12, 1e-6]) | st.floats(0.0, 2.0)),
        n_specimens=draw(st.integers(1, 30)),
        replications=draw(st.integers(1, 60)),
        # Past 2**64 and 2**96: seeds of three and more 32-bit entropy words.
        seed=draw(st.integers(0, 2**32) | st.integers(0, 2**200)),
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
    with mock.patch.object(stats, "_BLOCK_ELEMENTS", block_elements):
        batched = _summary_or_error(estimator_recovery_trial, trial)
    assert batched == _summary_or_error(recovery_by_replication, trial)


STRENGTHS_V = st.floats(9.0, 17.0) | st.sampled_from([math.nan, math.inf, -math.inf, 13])


@given(rows=st.integers(0, 30).flatmap(lambda n: st.lists(
           st.lists(STRENGTHS_V, min_size=n, max_size=n), min_size=1, max_size=5)),
       levels=st.lists(st.floats(10.0, 16.0), min_size=1, max_size=6),
       step=STEPS_V, start=st.floats(10.0, 16.0))
@settings(max_examples=200, deadline=None)
def test_synthetic_stair_case_steps_one_specimen_at_a_time(rows, levels, step, start):
    strengths = np.array(rows, dtype=float).reshape(len(rows), -1)
    tested = stats._stair_case_levels(strengths, min(levels), max(levels), step, start)
    for row, strength_row, tested_row in zip(rows, strengths, tested):
        trials = synthetic_stair_case(row, levels, step, start).trials
        assert [t.level_V for t in trials] == tested_row.tolist()
        assert [t.failure for t in trials] == (tested_row >= strength_row).tolist()
        assert all(type(t.level_V) is float and type(t.failure) is bool for t in trials)


@pytest.mark.parametrize("fault, name", [
    ({"replications": 0}, "replications"),
    ({"n_specimens": 0}, "n_specimens"),
    ({"n_specimens": -3}, "n_specimens"),
    ({"n_specimens": 2.5}, "n_specimens"),
    ({"seed": -1}, "seed"),
    ({"true_std_V": -1.0}, "true_std_V"),
    ({"true_std_V": math.nan}, "true_std_V"),
    ({"true_mean_V": math.nan}, "true_mean_V"),
    ({"true_mean_V": math.inf}, "true_mean_V"),
    ({"replications": stats.MAX_REPLICATIONS + 1}, "replications"),
    ({"n_specimens": MAX_SPECIMENS + 1}, "n_specimens"),
])
def test_recovery_trial_rejects_arguments_before_seeding(fault, name):
    kwargs = {"true_mean_V": 13.0, "true_std_V": 0.55, "n_specimens": 6,
              "replications": 20, "seed": 1, **fault}
    with mock.patch("numpy.random.default_rng", side_effect=AssertionError("seeded")):
        with pytest.raises(ValueError, match=f"^{name} "):
            estimator_recovery_trial(**kwargs)

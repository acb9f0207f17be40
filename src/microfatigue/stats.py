"""Statistical post-processing: Dixon-Mood estimation of the fatigue limit
from a stair-case sequence, Basquin (S-N) curve fitting, and a Monte-Carlo
harness validating the estimator on synthetic threshold-strength specimens.

``dixon_mood`` is the scalar estimator for one campaign. The Monte-Carlo
harness runs all replications of a trial as arrays (one stair-case step per
specimen across the replication axis, then Dixon-Mood moments per row).
A trial draws from one generator, ``default_rng(seed)``, with replication
rep taking the next n_specimens normals after those of replications 0 to
rep - 1.

``dixon_mood`` and ``fit_basquin`` (a closed-form least-squares line) work in
plain floats; numpy is imported inside the recovery trial's array functions,
so the two estimators and the importers of this module's types load none of it.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

from .errors import EstimationError
from .protocols import (StairCaseSequence, StairCaseTrial, _is_whole, grid_index,
                        validate_population)

Z_90 = 1.2816  # standard normal 90th percentile
DISPERSION_VALIDITY_RATIO = 0.3
DISPERSION_FALLBACK_FACTOR = 0.53
_BLOCK_ELEMENTS = 2**16  # strengths per array pass of a recovery trial, bounding its memory
MIN_REPLICATIONS = 1          # replications of one recovery trial: one at least
MAX_REPLICATIONS = 1_000_000  # replications of one recovery trial, bounding its work


class StairCaseEstimate(NamedTuple):
    mean_V: float
    std_V: float
    quantile_10_V: float
    quantile_90_V: float
    basis_event: str  # "failure" | "non-failure"
    dispersion_formula_valid: bool


class _WohlerPoint(NamedTuple):
    level_V: float
    cycles: int
    censored: bool  # survived the reference count (run-out)


class WohlerPoint(_WohlerPoint):
    __slots__ = ()

    def __new__(cls, level_V: float, cycles: int, censored: bool = False):
        if not _is_whole(cycles) or cycles < 1:
            raise ValueError(f"cycles: must be a whole number >= 1, got {cycles}")
        return tuple.__new__(cls, (level_V, cycles, censored))


class BasquinFit(NamedTuple):
    coefficient: float  # level at N = 1
    exponent: float
    residual: float     # RMS in log-log space


def dixon_mood(seq: StairCaseSequence) -> StairCaseEstimate:
    """Closed-form mean/std of the fatigue limit from a stair-case sequence.

    The estimate is computed over the less frequent outcome (ties broken
    toward failures). With the basis-event levels indexed i = 0, 1, ...
    from the lowest occupied one, mean = X0 + d*(A/N +/- 1/2) (+ for a
    non-failure basis). The dispersion formula is only valid when
    (N*B - A^2)/N^2 >= 0.3; below that, std falls back to 0.53*d. The step d
    must be finite and > 0.
    """
    if not 0.0 < seq.step_V < math.inf:
        raise EstimationError(f"step_V must be finite and > 0, got {seq.step_V}")
    failures = [t for t in seq.trials if t.failure]
    survivals = [t for t in seq.trials if not t.failure]
    if not failures:
        raise EstimationError("estimation impossible: no failure events in the sequence")
    if not survivals:
        raise EstimationError("estimation impossible: no non-failure events in the sequence")

    if len(failures) <= len(survivals):
        basis, basis_event, half = failures, "failure", -0.5
    else:
        basis, basis_event, half = survivals, "non-failure", +0.5

    d = seq.step_V
    x0 = min(t.level_V for t in basis)
    indices = [grid_index(t.level_V, x0, d) for t in basis]
    if None in indices:
        level = basis[indices.index(None)].level_V
        raise EstimationError(f"level {level} V is not on the step grid (step {d} V from {x0} V)")
    n, a, b = len(indices), sum(indices), sum(i * i for i in indices)
    mean = x0 + d * (a / n + half)
    ratio = (n * b - a * a) / n**2
    valid = ratio >= DISPERSION_VALIDITY_RATIO
    std = 1.62 * d * (ratio + 0.029) if valid else DISPERSION_FALLBACK_FACTOR * d
    return StairCaseEstimate(
        mean_V=mean, std_V=std,
        quantile_10_V=mean - Z_90 * std,
        quantile_90_V=mean + Z_90 * std,
        basis_event=basis_event,
        dispersion_formula_valid=valid,
    )


def fit_basquin(points: list[WohlerPoint]) -> BasquinFit:
    """Least-squares Basquin line level = C * N^b in log-log space.

    Censored (run-out) points are excluded; the rest need two distinct log
    levels and two distinct log cycle counts, each level finite and > 0, and
    a coefficient that fits a float. Each sum is one math.fsum, rounded once
    from the exact sum, so the fit does not depend on the order of the points.
    """
    usable = [p for p in points if not p.censored]
    for p in usable:
        if not 0.0 < p.level_V < math.inf:
            raise EstimationError(f"level must be finite and > 0 V, got {p.level_V}")
    if len(usable) < 2:
        raise EstimationError(f"need at least 2 uncensored points, got {len(usable)}")
    log_s = [math.log(p.level_V) for p in usable]
    log_n = [math.log(p.cycles) for p in usable]
    for name, values in (("level", log_s), ("cycle count", log_n)):
        if len(set(values)) < 2:
            raise EstimationError(f"all uncensored points share one {name}; slope is undefined")
    x_bar, y_bar = math.fsum(log_n) / len(usable), math.fsum(log_s) / len(usable)
    dx = [x - x_bar for x in log_n]
    slope = math.fsum(d * (y - y_bar) for d, y in zip(dx, log_s)) / math.fsum(d * d for d in dx)
    intercept = y_bar - slope * x_bar
    residual = math.sqrt(math.fsum((y - (intercept + slope * x)) ** 2
                                   for x, y in zip(log_n, log_s)) / len(usable))
    try:
        coefficient = math.exp(intercept)
    except OverflowError:
        raise EstimationError(f"the Basquin coefficient exp({intercept:.6g}) overflows a float")
    return BasquinFit(coefficient=coefficient, exponent=slope, residual=residual)


def _stair_case_levels(strengths: np.ndarray, low: float, high: float,
                       step_V: float, start_level_V: float) -> np.ndarray:
    """Test levels of synthetic stair-cases, one per row of threshold strengths.

    Column j tests specimen j of every row at once: failure iff level >=
    strength, then one step down after a failure and up otherwise, clamped
    to [low, high]. The float operations are those of synthetic_stair_case.
    """
    import numpy as np
    tested = np.empty_like(strengths)
    level = np.full(len(strengths), float(start_level_V))
    for j in range(strengths.shape[1]):
        tested[:, j] = level
        level = np.where(level >= strengths[:, j], level - step_V, level + step_V)
        level = np.minimum(np.maximum(level, low), high)
    return tested


def synthetic_stair_case(strengths_V: list[float], levels_V: list[float],
                         step_V: float, start_level_V: float) -> StairCaseSequence:
    """Stair-case over pure threshold specimens: failure iff level >= strength.

    One specimen at a time in plain floats, stepping and clamping as one row
    of _stair_case_levels does.
    """
    levels = sorted(float(v) for v in levels_V)
    low, high = levels[0], levels[-1]
    level = float(start_level_V)
    trials = []
    for idx, strength in enumerate(strengths_V):
        failure = level >= float(strength)
        trials.append(StairCaseTrial(specimen_id=idx, level_V=level, failure=failure))
        level = min(max(level - step_V if failure else level + step_V, low), high)
    return StairCaseSequence(trials=tuple(trials), step_V=step_V, levels_V=tuple(levels))


def _dixon_mood_means(tested: np.ndarray, failed: np.ndarray, step_V: float) -> np.ndarray:
    """Dixon-Mood mean of each stair-case row with both outcomes, in row order.

    Rows with a single outcome are dropped, where dixon_mood raises
    EstimationError. Levels are taken to lie on the step_V grid, unchecked.
    Per row, with the basis levels indexed i = rint((level - X0)/d) (round
    half to even, as round() does), the mean is X0 + d*(A/N +/- 1/2) with N
    the basis count and A the sum of i.
    """
    import numpy as np
    n_fail = failed.sum(axis=1)
    n_surv = failed.shape[1] - n_fail
    both = (n_fail > 0) & (n_surv > 0)   # so every basis below is non-empty
    tested, failed = tested[both], failed[both]
    by_failures = n_fail[both] <= n_surv[both]
    basis = failed == by_failures[:, None]
    x0 = np.where(basis, tested, np.inf).min(axis=1)
    i = np.rint((tested - x0[:, None]) / step_V)
    n = basis.sum(axis=1)
    a = np.where(basis, i, 0.0).sum(axis=1)
    half = np.where(by_failures, -0.5, 0.5)
    return x0 + step_V * (a / n + half)


def estimator_recovery_trial(true_mean_V: float, true_std_V: float,
                             n_specimens: int, replications: int, seed: int) -> dict:
    """Bias/spread summary of the Dixon-Mood estimator on synthetic campaigns.

    Each replication draws threshold strengths from Normal(true_mean,
    true_std) and runs a stair-case over the fixed window of 1 V steps,
    round(true_mean) - 1 to round(true_mean) + 2 V, from the level nearest
    the true mean. Replications with only one outcome are skipped and counted.
    The arguments must pass protocols.validate_population, the mean and spread finite.

    All replications draw from one default_rng(seed), row after row, and run
    at once as arrays. A generator's draws come in order, so the block size
    leaves them unchanged, and the summary equals that of one
    synthetic_stair_case and dixon_mood per replication.
    """
    problems = validate_population(n_specimens, None, true_mean_V, true_std_V, seed)
    problems += [f"{name}: must be finite, got {value}" for name, value in (
        ("true_mean_V", true_mean_V), ("true_std_V", true_std_V)) if not math.isfinite(value)]
    if not (isinstance(replications, numbers.Integral)
            and MIN_REPLICATIONS <= replications <= MAX_REPLICATIONS):
        problems.append(f"replications: must be an integer in "
                        f"[{MIN_REPLICATIONS}, {MAX_REPLICATIONS}], got {replications!r}")
    if problems:  # raised before the generator is seeded
        raise ValueError("; ".join(problems))
    import numpy as np
    levels = [round(true_mean_V) - 1.0 + i for i in range(4)]
    start = min(levels, key=lambda v: abs(v - true_mean_V))

    rng = np.random.default_rng(int(seed))
    block = max(1, _BLOCK_ELEMENTS // n_specimens)   # replications per array pass
    chunks = []
    for first in range(0, replications, block):
        z = rng.standard_normal((min(block, replications - first), n_specimens))
        strengths = true_mean_V + true_std_V * z
        tested = _stair_case_levels(strengths, levels[0], levels[-1], 1.0, start)
        chunks.append(_dixon_mood_means(tested, tested >= strengths, 1.0))
    estimates = np.concatenate(chunks)
    if not estimates.size:
        raise EstimationError("every replication produced a single-outcome sequence")
    biases = estimates - true_mean_V
    return {
        "true_mean_V": true_mean_V,
        "true_std_V": true_std_V,
        "n_specimens": n_specimens,
        "replications": replications,
        "valid_replications": estimates.size,
        "skipped_replications": replications - estimates.size,
        "mean_bias_V": float(np.mean(biases)),
        "std_bias_V": float(np.std(biases)),
        "max_abs_bias_V": float(np.max(np.abs(biases))),
    }

"""Statistical post-processing: Dixon-Mood estimation of the fatigue limit
from a stair-case sequence, Basquin (S-N) curve fitting, and a Monte-Carlo
harness validating the estimator on synthetic threshold-strength specimens.

``dixon_mood`` is the scalar estimator for one campaign. The Monte-Carlo
harness runs all replications of a trial as arrays (one stair-case step per
specimen across the replication axis, then Dixon-Mood moments per row), while
each replication still draws from its own ``default_rng((seed, rep))``
stream; seeding those generators is what a trial costs at the least.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .protocols import StairCaseSequence, StairCaseTrial

Z_90 = 1.2816  # standard normal 90th percentile
DISPERSION_VALIDITY_RATIO = 0.3
DISPERSION_FALLBACK_FACTOR = 0.53
_BLOCK_ELEMENTS = 2**16  # strengths per array pass of a recovery trial, bounding its memory


@dataclass(frozen=True)
class StairCaseEstimate:
    mean_V: float
    std_V: float
    quantile_10_V: float
    quantile_90_V: float
    basis_event: str  # "failure" | "non-failure"
    dispersion_formula_valid: bool


@dataclass(frozen=True)
class WohlerPoint:
    level_V: float
    cycles: int
    censored: bool = False  # survived the reference count (run-out)
    stress_Pa: float | None = None

    def __post_init__(self):
        if self.cycles < 1:
            raise ValueError(f"cycles must be >= 1, got {self.cycles}")


@dataclass(frozen=True)
class BasquinFit:
    coefficient: float  # level at N = 1
    exponent: float
    residual: float     # RMS in log-log space


def dixon_mood(seq: StairCaseSequence) -> StairCaseEstimate:
    """Closed-form mean/std of the fatigue limit from a stair-case sequence.

    The estimate is computed over the less frequent outcome (ties broken
    toward failures). With the basis-event levels indexed i = 0, 1, ...
    from the lowest occupied one, mean = X0 + d*(A/N +/- 1/2) (+ for a
    non-failure basis). The dispersion formula is only valid when
    (N*B - A^2)/N^2 >= 0.3; below that, std falls back to 0.53*d.
    """
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
    counts: dict[int, int] = {}
    for t in basis:
        i = round((t.level_V - x0) / d)
        if not math.isclose(x0 + i * d, t.level_V, rel_tol=1e-9, abs_tol=1e-9 * d):
            raise EstimationError(
                f"level {t.level_V} V is not on the step grid (step {d} V from {x0} V)")
        counts[i] = counts.get(i, 0) + 1

    n = sum(counts.values())
    a = sum(i * c for i, c in counts.items())
    b = sum(i * i * c for i, c in counts.items())
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

    Censored (run-out) points are excluded; at least two uncensored points
    at two distinct levels are required.
    """
    # Sorted so the fit is exactly permutation-invariant in its input list.
    usable = sorted((p for p in points if not p.censored),
                    key=lambda p: (p.cycles, p.level_V))
    if len(usable) < 2:
        raise EstimationError(
            f"need at least 2 uncensored points, got {len(usable)}")
    levels = np.array([p.level_V for p in usable], dtype=float)
    cycles = np.array([p.cycles for p in usable], dtype=float)
    if np.unique(levels).size < 2:
        raise EstimationError("all uncensored points share one level; slope is undefined")
    log_n = np.log(cycles)
    log_s = np.log(levels)
    slope, intercept = np.polyfit(log_n, log_s, 1)
    residual = float(np.sqrt(np.mean((log_s - (intercept + slope * log_n)) ** 2)))
    return BasquinFit(coefficient=float(np.exp(intercept)), exponent=float(slope),
                      residual=residual)


def _stair_case_levels(strengths: np.ndarray, low: float, high: float,
                       step_V: float, start_level_V: float) -> np.ndarray:
    """Test levels of synthetic stair-cases, one per row of threshold strengths.

    Column j tests specimen j of every row at once: failure iff level >=
    strength, then one step down after a failure and up otherwise, clamped
    to [low, high]. The float operations are those of one scalar stair-case.
    """
    tested = np.empty_like(strengths)
    level = np.full(len(strengths), float(start_level_V))
    for j in range(strengths.shape[1]):
        tested[:, j] = level
        level = np.where(level >= strengths[:, j], level - step_V, level + step_V)
        level = np.minimum(np.maximum(level, low), high)
    return tested


def synthetic_stair_case(strengths_V: list[float], levels_V: list[float],
                         step_V: float, start_level_V: float) -> StairCaseSequence:
    """Stair-case over pure threshold specimens: failure iff level >= strength."""
    levels = sorted(float(v) for v in levels_V)
    strengths = np.asarray(strengths_V, dtype=float).reshape(1, -1)
    tested = _stair_case_levels(strengths, levels[0], levels[-1], step_V, start_level_V)[0]
    failed = tested >= strengths[0]
    trials = tuple(StairCaseTrial(specimen_id=idx, level_V=level, failure=failure)
                   for idx, (level, failure) in enumerate(zip(tested.tolist(), failed.tolist())))
    return StairCaseSequence(trials=trials, step_V=step_V, levels_V=tuple(levels))


def _dixon_mood_means(tested: np.ndarray, failed: np.ndarray, step_V: float) -> np.ndarray:
    """Dixon-Mood mean of each stair-case row that dixon_mood accepts, in row order.

    Rows with a single outcome or an off-grid basis level are dropped, where
    dixon_mood raises EstimationError. Per row, with the basis levels indexed
    i = rint((level - X0)/d) (round half to even, as round() does), the mean
    is X0 + d*(A/N +/- 1/2) with N the basis count and A the sum of i.
    """
    n_fail = failed.sum(axis=1)
    n_surv = failed.shape[1] - n_fail
    both = (n_fail > 0) & (n_surv > 0)   # so every basis below is non-empty
    tested, failed = tested[both], failed[both]
    by_failures = n_fail[both] <= n_surv[both]
    basis = failed == by_failures[:, None]
    x0 = np.where(basis, tested, np.inf).min(axis=1)
    i = np.rint((tested - x0[:, None]) / step_V)
    grid = x0[:, None] + i * step_V
    # math.isclose(grid, level, rel_tol=1e-9, abs_tol=1e-9 * d), elementwise
    tol = np.maximum(1e-9 * np.maximum(np.abs(grid), np.abs(tested)), 1e-9 * step_V)
    on_grid = ((np.abs(tested - grid) <= tol) | ~basis).all(axis=1)
    n = basis.sum(axis=1)
    a = np.where(basis, i, 0.0).sum(axis=1)
    half = np.where(by_failures, -0.5, 0.5)
    return (x0 + step_V * (a / n + half))[on_grid]


def estimator_recovery_trial(true_mean_V: float, true_std_V: float,
                             n_specimens: int, replications: int, seed: int,
                             levels_V: list[float] | None = None,
                             step_V: float = 1.0) -> dict:
    """Bias/spread summary of the Dixon-Mood estimator on synthetic campaigns.

    Each replication draws threshold strengths from Normal(true_mean,
    true_std), runs a stair-case starting at the level nearest the true
    mean, and records the estimated mean. Replications whose sequence has
    only one outcome, or a basis level off the step grid, are skipped and
    counted.

    All replications run at once as arrays: the stair-case steps across the
    replication axis and Dixon-Mood reduces to per-row moments. Replication
    rep still draws from its own default_rng((seed, rep)) stream, so the
    summary equals that of one synthetic_stair_case and dixon_mood per
    replication. Seeding those generators is most of what is left to pay.
    """
    _check_recovery_args(true_mean_V, true_std_V, n_specimens, replications, seed,
                         levels_V, step_V)
    if levels_V is None:
        base = round(true_mean_V)
        levels_V = [base - 1.0 + i * step_V for i in range(4)]
    levels = sorted(float(v) for v in levels_V)
    start = min(levels, key=lambda v: abs(v - true_mean_V))

    block = max(1, _BLOCK_ELEMENTS // n_specimens)   # replications per array pass
    chunks = []
    for first in range(0, replications, block):
        z = np.empty((min(block, replications - first), n_specimens))
        for row in range(len(z)):
            np.random.default_rng((int(seed), first + row)).standard_normal(out=z[row])
        strengths = true_mean_V + true_std_V * z
        tested = _stair_case_levels(strengths, levels[0], levels[-1], step_V, start)
        chunks.append(_dixon_mood_means(tested, tested >= strengths, step_V))
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


def _check_recovery_args(true_mean_V, true_std_V, n_specimens, replications, seed,
                         levels_V, step_V) -> None:
    """Raise ValueError, starting with the argument name, for a trial that cannot run."""
    for name, value, low in (("n_specimens", n_specimens, 1),
                             ("replications", replications, 1), ("seed", seed, 0)):
        if not isinstance(value, numbers.Integral) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    if not math.isfinite(true_mean_V):
        raise ValueError(f"true_mean_V must be finite, got {true_mean_V}")
    if not (math.isfinite(true_std_V) and true_std_V >= 0):
        raise ValueError(f"true_std_V must be finite and >= 0, got {true_std_V}")
    if not (math.isfinite(step_V) and step_V > 0):
        raise ValueError(f"step_V must be finite and > 0, got {step_V}")
    if levels_V is not None and not (levels_V and all(math.isfinite(v) for v in levels_V)):
        raise ValueError(f"levels_V must be non-empty and finite, got {levels_V!r}")

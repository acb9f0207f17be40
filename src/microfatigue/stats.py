"""Statistical post-processing: Dixon-Mood estimation of the fatigue limit
from a stair-case sequence, Basquin (S-N) curve fitting, and a Monte-Carlo
harness validating the estimator on synthetic threshold-strength specimens.

``dixon_mood`` is the scalar estimator for one campaign. The Monte-Carlo
harness runs all replications of a trial as arrays. On its window of four
levels a stair-case is a walk over 20 state codes 5*k + m: level k is under
test and m window levels lie below the specimen's strength, so the specimen
fails iff k >= m. Each specimen column is one add and one lookup in a 20-entry
next-state table (from ``protocols.next_level``) across the replication axis;
one bincount then counts each replication's trials per (outcome, level) cell,
and Dixon-Mood works from those counts. A trial draws from one generator,
``default_rng(seed)``, with replication rep taking the next n_specimens
normals after those of replications 0 to rep - 1.

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
                        next_level, validate_population)

Z_90 = 1.2816  # standard normal 90th percentile
DISPERSION_VALIDITY_RATIO = 0.3
DISPERSION_FALLBACK_FACTOR = 0.53
_BLOCK_ELEMENTS = 2**16  # strengths per array pass of a recovery trial, bounding its memory
MIN_REPLICATIONS = 1          # replications of one recovery trial: one at least
MAX_REPLICATIONS = 1_000_000  # replications of one recovery trial, bounding its work


class StairCaseEstimate(NamedTuple):
    mean_V: float
    std_V: float
    q10_V: float
    q90_V: float
    basis_event: str  # "failure" | "non-failure"
    dispersion_valid: bool


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
        q10_V=mean - Z_90 * std,
        q90_V=mean + Z_90 * std,
        basis_event=basis_event,
        dispersion_valid=valid,
    )


def fit_basquin(points: list[WohlerPoint]) -> BasquinFit:
    """Least-squares Basquin line level = C * N^b in log-log space.

    Censored (run-out) points are excluded; the rest need two distinct log
    cycle counts (else the slope is undefined), two distinct log levels (else
    the exponent is 0, a flat line that crosses no level at a finite life),
    each level finite and > 0, and a coefficient that fits a float. Each sum
    is one math.fsum, rounded once from the exact sum, so the fit does not
    depend on the order of the points.
    """
    usable = [p for p in points if not p.censored]
    for p in usable:
        if not 0.0 < p.level_V < math.inf:
            raise EstimationError(f"level must be finite and > 0 V, got {p.level_V}")
    if len(usable) < 2:
        raise EstimationError(f"need at least 2 uncensored points, got {len(usable)}")
    log_s = [math.log(p.level_V) for p in usable]
    log_n = [math.log(p.cycles) for p in usable]
    if len(set(log_n)) < 2:
        raise EstimationError("all uncensored points share one cycle count; slope is undefined")
    if len(set(log_s)) < 2:  # the least-squares slope is then 0
        raise EstimationError("all uncensored points share one level; "
                              "a Basquin exponent of 0 gives no finite life")
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


def synthetic_stair_case(strengths_V: list[float], levels_V: list[float],
                         step_V: float, start_level_V: float) -> StairCaseSequence:
    """Stair-case over pure threshold specimens: failure iff level >= strength,
    stepped by ``protocols.next_level``.

    One specimen at a time in plain floats. On a window of four levels 1 V
    apart, the state-code walk of estimator_recovery_trial (_window_tables)
    takes the same steps for every replication at once.
    """
    levels = sorted(float(v) for v in levels_V)
    level = float(start_level_V)
    trials = []
    for idx, strength in enumerate(strengths_V):
        failure = level >= float(strength)
        trials.append(StairCaseTrial(specimen_id=idx, level_V=level, failure=failure))
        level, _ = next_level(level, failure, step_V, levels[0], levels[-1])
    return StairCaseSequence(trials=tuple(trials), step_V=step_V, levels_V=tuple(levels))


def _window_tables(levels: list[float]):
    """The stair-case walk on a window of four sorted levels 1 V apart, as arrays.

    State code 5*k + m: level k is under test and m = searchsorted(levels,
    strength) window levels lie below the strength, so the trial fails iff
    k >= m, exactly when level >= strength (a NaN strength counts 4 and
    survives, as level >= NaN is false). Returns the levels, the next state
    5*k' of each code, its cell (k for a failure, 4 + k for a survival) and
    the 8x4 matrix that takes a row of cell counts to the failure and survival
    counts and each outcome's sum of level - levels[0]. Level k' is the first
    equal to the level ``protocols.next_level`` steps to with a 1 V step, as in
    synthetic_stair_case, so windows whose levels coincide as floats (means of
    2**53 and more) walk as it does.
    """
    import numpy as np
    low, high = levels[0], levels[-1]
    next_code, cell = [], []
    for k, level in enumerate(levels):
        down = 5 * levels.index(next_level(level, True, 1.0, low, high)[0])
        up = 5 * levels.index(next_level(level, False, 1.0, low, high)[0])
        next_code += [down] * (k + 1) + [up] * (4 - k)
        cell += [k] * (k + 1) + [4 + k] * (4 - k)
    above_low = [int(level - low) for level in levels]  # whole volts, so exact
    sums = [[1, 0, d, 0] for d in above_low] + [[0, 1, 0, d] for d in above_low]
    return np.array(levels), np.array(next_code), np.array(cell), np.array(sums)


def _stair_case_codes(strengths: np.ndarray, levels: np.ndarray, next_code: np.ndarray,
                      start_code: int) -> np.ndarray:
    """State code of every trial of synthetic stair-cases, one row of strengths
    each: column j of the result holds specimen j of every row."""
    codes = levels.searchsorted(strengths.T)
    state = start_code
    for column in codes:
        column += state
        state = next_code[column]
    return codes


def _dixon_mood_means(codes: np.ndarray, levels: np.ndarray, cell: np.ndarray,
                      sums: np.ndarray) -> np.ndarray:
    """Dixon-Mood mean of each stair-case column of codes with both outcomes, in order.

    One bincount counts each column's trials per cell; columns with a single
    outcome are dropped before any division, where dixon_mood raises
    EstimationError. Per outcome, X0 is its lowest occupied level, N its count
    and A the sum of count * (level - X0), exact as the levels are whole
    volts; the mean is X0 + d*(A/N +/- 1/2), d = 1 V, over the less frequent
    outcome (ties to failures), in the float operations of dixon_mood.
    """
    import numpy as np
    rows = codes.shape[1]
    cells = cell[codes]
    cells += np.arange(0, 8 * rows, 8)
    counts = np.bincount(cells.ravel(), minlength=8 * rows).reshape(rows, 8)
    # Per row: failures, survivals and their level sums above levels[0]. An
    # integer product, so no BLAS buffer is allocated for it.
    totals = counts @ sums
    both = np.logical_and(totals[:, 0], totals[:, 1])
    totals = totals[both]
    x0 = levels[(counts[both] > 0).reshape(-1, 2, 4).argmax(axis=2)]  # per outcome
    n = totals[:, :2]
    a = totals[:, 2:] - n * (x0 - levels[0])
    means = x0 + (a / n + (-0.5, 0.5))
    return np.where(n[:, 0] <= n[:, 1], means[:, 0], means[:, 1])


def estimator_recovery_trial(true_mean_V: float, true_std_V: float,
                             n_specimens: int, replications: int, seed: int) -> dict:
    """Bias/spread summary of the Dixon-Mood estimator on synthetic campaigns.

    Each replication draws threshold strengths from Normal(true_mean,
    true_std) and runs a stair-case over the fixed window of 1 V steps,
    round(true_mean) - 1 to round(true_mean) + 2 V, from the level nearest
    the true mean. Replications with only one outcome are skipped and counted.
    The arguments must pass protocols.validate_population, the mean and spread finite.

    All replications draw from one default_rng(seed), row after row, and run
    at once as arrays: each specimen column is one step of a walk over the
    window's 20 state codes (_window_tables), and Dixon-Mood works from each
    replication's counts per (outcome, level) cell. A generator's draws come
    in order, so the block size leaves them unchanged, and the summary equals
    that of one synthetic_stair_case and dixon_mood per replication.
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
    start = min(range(4), key=lambda k: abs(levels[k] - true_mean_V))
    window, next_code, cell, sums = _window_tables(levels)

    rng = np.random.default_rng(int(seed))
    block = max(1, _BLOCK_ELEMENTS // n_specimens)   # replications per array pass
    chunks = []
    for first in range(0, replications, block):
        z = rng.standard_normal((min(block, replications - first), n_specimens))
        strengths = true_mean_V + true_std_V * z
        codes = _stair_case_codes(strengths, window, next_code, 5 * start)
        chunks.append(_dixon_mood_means(codes, window, cell, sums))
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

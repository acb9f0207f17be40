"""Statistical post-processing: Dixon-Mood estimation of the fatigue limit
from a stair-case sequence, Basquin (S-N) curve fitting, and a Monte-Carlo
harness validating the estimator on synthetic threshold-strength specimens.

``dixon_mood`` is the scalar estimator for one campaign. The Monte-Carlo
harness (``estimator_recovery_trial``) runs all replications of a trial as
arrays over the campaign's design: a walk over state codes whose tables are
built once per design and kept (``_window_tables``), and one Dixon-Mood step
over every replication's packed counts (``_dixon_mood_means``).

``dixon_mood`` and ``fit_basquin`` (a closed-form least-squares line) work in
plain floats; numpy is imported inside the recovery trial's array functions,
so the two estimators and the importers of this module's types load none of it.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import NamedTuple

from .errors import EstimationError
from .protocols import (DEFAULT_LEVELS_V, DEFAULT_START_LEVEL_V, DEFAULT_STEP_V, MAX_SPECIMENS,
                        StairCaseSequence, StairCaseTrial, _is_whole, grid_index, next_level,
                        validate_design, validate_population)

Z_90 = 1.2816  # standard normal 90th percentile
DISPERSION_VALIDITY_RATIO = 0.3
DISPERSION_FALLBACK_FACTOR = 0.53
# Replications per array pass of a recovery trial: _BLOCK_ELEMENTS // n_specimens
# words, but never under _MIN_BLOCK_ROWS rows, so a wide trial does not pay two
# numpy calls per specimen column for a handful of rows. An array of a pass holds at
# most max(_BLOCK_ELEMENTS, MAX_SPECIMENS * _MIN_BLOCK_ROWS) * 8 B = 5.12 MB.
_BLOCK_ELEMENTS = 2**16
_MIN_BLOCK_ROWS = 64
MIN_REPLICATIONS = 1          # replications of one recovery trial: one at least
MAX_REPLICATIONS = 1_000_000  # replications of one recovery trial, bounding its work
MAX_WALK_LEVELS = 210         # distinct floats the walk of one recovery trial may reach
# Width of the fields packed in a code's weight: no index sum passes (K - 1) * n.
_FIELD_BITS = ((MAX_WALK_LEVELS - 1) * MAX_SPECIMENS).bit_length()
_FIELD_MASK = (1 << _FIELD_BITS) - 1
# No recovery bias reaches 2**_BIAS_BITS V: the trial's entry keeps the step and the
# mean's distance to each level below half that, and each estimate X0 + d*(A/N +/- 1/2)
# lies within d/2 of the window. Their squares, summed over MAX_REPLICATIONS, stay finite.
_BIAS_BITS = 500
_MAX_BIAS_V = float(1 << _BIAS_BITS)
_design_faults = functools.lru_cache(maxsize=8)(validate_design)  # kept per design like the walk


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
    must be finite and > 0, and both quantiles must come out finite.
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
    ratio = (n * b - a * a) / (n * n)
    valid = ratio >= DISPERSION_VALIDITY_RATIO
    std = 1.62 * d * (ratio + 0.029) if valid else DISPERSION_FALLBACK_FACTOR * d
    q10, q90 = mean - Z_90 * std, mean + Z_90 * std
    if not (math.isfinite(q10) and math.isfinite(q90)):
        raise EstimationError(f"the quantiles {q10}, {q90} V overflow a float at step {d} V")
    return StairCaseEstimate(mean_V=mean, std_V=std, q10_V=q10, q90_V=q90,
                             basis_event=basis_event, dispersion_valid=valid)


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

    One specimen at a time in plain floats. The state-code walk of
    estimator_recovery_trial (_window_tables) takes the same steps for every
    replication at once.
    """
    levels = sorted(float(v) for v in levels_V)
    level = float(start_level_V)
    trials = []
    for idx, strength in enumerate(strengths_V):
        failure = level >= float(strength)
        trials.append(StairCaseTrial(specimen_id=idx, level_V=level, failure=failure))
        level, _ = next_level(level, failure, step_V, levels[0], levels[-1])
    return StairCaseSequence(trials=tuple(trials), step_V=step_V, levels_V=tuple(levels))


@functools.lru_cache(maxsize=8)
def _window_tables(levels_V: tuple[float, ...], step_V: float, start_level_V: float):
    """The stair-case walk of a design that ``protocols.validate_design`` passes and the
    tables that count it, as read-only arrays built once per design; ValueError names a
    walk past MAX_WALK_LEVELS levels.

    The walk's levels are the floats that ``protocols.next_level`` reaches from the
    start, so a step that is not exact in binary drifts as in synthetic_stair_case.
    With K of them, state code (K+1)*k + m fails iff k >= m. Returns the walk's
    levels; the next state (K+1)*k' of each code; its weight, 1 for a failure plus
    its level's grid index (steps above the lowest) in its outcome's sum, in three
    _FIELD_BITS fields (failure count, survival sum, failure sum); its (k, K) for a
    failure and (K, k) for a survival, whose minimum over a stair-case is the lowest
    level of each outcome, or K for none; each level's grid index; the shifts of the
    failure and survival sums and the half steps -1/2 and +1/2, as columns; the
    start's code; and the step as a float.
    """
    import numpy as np
    low, high = min(map(float, levels_V)), max(map(float, levels_V))
    step_V, start_level_V = float(step_V), float(start_level_V)
    reached, todo = set(), [start_level_V]
    while todo and len(reached) <= MAX_WALK_LEVELS:
        if (level := todo.pop()) not in reached:
            reached.add(level)
            todo += [next_level(level, failure, step_V, low, high)[0] for failure in (True, False)]
    if len(reached) > MAX_WALK_LEVELS:
        raise ValueError(f"levels_V: the walk from {start_level_V:g} V in steps of {step_V:g} V "
                         f"reaches more than {MAX_WALK_LEVELS} levels")
    levels = sorted(reached)
    width, index = len(levels) + 1, {level: k for k, level in enumerate(levels)}
    grid = [round((level - levels[0]) / step_V) for level in levels]
    next_code, weight, lowest = [], [], []
    for k, level in enumerate(levels):
        for failure, count in ((True, k + 1), (False, width - k - 1)):
            next_code += [width * index[next_level(level, failure, step_V, low, high)[0]]] * count
            weight += [failure + (grid[k] << (2 if failure else 1) * _FIELD_BITS)] * count
            lowest += [(k, width - 1) if failure else (width - 1, k)] * count
    tables = (np.array(levels), np.array(next_code), np.array(weight, dtype=np.int64),
              np.array(lowest, dtype=np.uint8), np.array(grid),
              np.array([[2 * _FIELD_BITS], [_FIELD_BITS]]), np.array([[-0.5], [0.5]]),
              width * index[start_level_V], step_V)
    for table in tables[:-2]:
        table.flags.writeable = False
    return tables


def _stair_case_codes(cells: np.ndarray, next_code: np.ndarray, start_code: int) -> np.ndarray:
    """State code of every trial of synthetic stair-cases, one column each: row j of
    cells holds the m of specimen j of every stair-case and becomes its code in place."""
    state = start_code
    for column in cells:
        column += state
        state = next_code[column]
    return cells


def _dixon_mood_means(codes: np.ndarray, tables: tuple) -> np.ndarray:
    """Dixon-Mood mean of each stair-case column of codes with both outcomes, in order.

    One sum of the codes' weights gives each column's failure count and index sums,
    and one minimum per outcome its lowest level (tables from _window_tables). Per
    outcome, X0 is its lowest level, N its count and A the integer sum of the grid
    steps above X0; the mean is X0 + d*(A/N +/- 1/2) over the less frequent outcome
    (ties to failures), in the float operations of dixon_mood. A column with one
    outcome, where dixon_mood raises EstimationError, divides its absent outcome's 0
    by 1 and is dropped at the end. Each array has one row per outcome.
    """
    import numpy as np
    levels, _, weight, lowest, grid, shifts, half, _, step_V = tables
    packed = np.add.reduce(weight.take(codes), axis=0)
    counts = abs((packed & _FIELD_MASK) - np.array([[0], [len(codes)]]))  # failures, survivals
    k0 = np.minimum.reduce(lowest.take(codes, axis=0), axis=0).T  # K for an absent outcome
    a = ((packed >> shifts) & _FIELD_MASK) - counts * grid.take(k0, mode="clip")
    means = levels.take(k0, mode="clip") + step_V * (a / np.maximum(counts, 1) + half)
    return np.where(counts[0] <= counts[1], means[0], means[1]).compress(
        np.logical_and.reduce(counts))


def _bias_summary(biases: np.ndarray) -> tuple[float, float, float]:
    """Mean, ddof-0 spread and largest magnitude of a non-empty 1-D float64 array, as
    float(biases.mean()), float(biases.std()) and float(np.abs(biases).max()) give them:
    the ufunc reductions those wrappers run. The mean is numpy's pairwise add.reduce over
    the size; the spread the square root of the same mean of the squared deviations."""
    import numpy as np
    largest = float(np.maximum.reduce(np.abs(biases)))
    size = biases.size
    mean = float(np.add.reduce(biases)) / size
    deviations = biases - mean
    deviations *= deviations
    return mean, math.sqrt(float(np.add.reduce(deviations)) / size), largest


def estimator_recovery_trial(strength_mean_V: float, strength_std_V: float,
                             n_specimens: int, replications: int, master_seed: int,
                             levels_V: tuple = DEFAULT_LEVELS_V, step_V: float = DEFAULT_STEP_V,
                             start_level_V: float = DEFAULT_START_LEVEL_V) -> dict:
    """Bias/spread summary of the Dixon-Mood estimator on synthetic campaigns.

    Each replication draws threshold strengths from Normal(strength_mean_V,
    strength_std_V) and runs a stair-case of the design (the campaign's by default)
    over pure threshold specimens, with no fatigue run. Replications with only one
    outcome are skipped and counted. Before any draw, ValueError names each fault of
    validate_population and validate_design, a mean or spread not finite, replications
    out of range, then a step_V, or a mean as far from a level, of 2**(_BIAS_BITS - 1) V
    or more (see _BIAS_BITS); and a walk past MAX_WALK_LEVELS levels.

    The walk needs only m, the walk levels below a strength, and level L lies below
    a strength of normal quantile u iff Phi((L - mean)/std) < u. So each specimen
    reads one raw word of PCG64(master_seed), and m counts the cuts
    min(floor(Phi((L - mean)/std) * 2**64), 2**64 - 1) that the word exceeds (each
    cut is 2**63 when std * sqrt(2) overflows); at a spread of 0, m counts the
    levels below the mean. Each replication takes the n_specimens words after the
    previous one's, and all run at once as arrays, in blocks of replications, so the
    summary equals that of one synthetic_stair_case and dixon_mood per replication
    on strengths in the same cells. The summary (_bias_summary) is numpy's pairwise
    add.reduce mean of the biases and their ddof-0 spread: numpy's summation order,
    which NEP 19 does not freeze.
    """
    problems = validate_population(n_specimens, None, strength_mean_V, strength_std_V, master_seed)
    problems += [f"{name}: must be finite, got {value}" for name, value in (
        ("strength_mean_V", strength_mean_V), ("strength_std_V", strength_std_V))
        if not math.isfinite(value)]
    if not (isinstance(replications, numbers.Integral)
            and MIN_REPLICATIONS <= replications <= MAX_REPLICATIONS):
        problems.append(f"replications: must be an integer in "
                        f"[{MIN_REPLICATIONS}, {MAX_REPLICATIONS}], got {replications!r}")
    problems += _design_faults(tuple(levels_V), step_V, start_level_V)
    if not problems:  # in Python floats, which overflow to inf without a warning
        if not float(step_V) < _MAX_BIAS_V / 2:
            problems.append(f"step_V: must be below 2**{_BIAS_BITS - 1} V, got {step_V!r}")
        if not max(abs(float(strength_mean_V) - float(v)) for v in levels_V) < _MAX_BIAS_V / 2:
            problems.append(f"strength_mean_V: must lie within 2**{_BIAS_BITS - 1} V of each "
                            f"level, got {strength_mean_V!r}")
    if problems:
        raise ValueError("; ".join(problems))
    tables = _window_tables(tuple(levels_V), step_V, start_level_V)
    import numpy as np
    levels, next_code, start_code = tables[0], tables[1], tables[-2]
    if strength_std_V:  # Phi((level - mean)/std) * 2**64 per level, in NormalDist.cdf's floats
        cuts = [np.uint64(min(int(0.5 * math.erfc((strength_mean_V - level)
                                                  / (strength_std_V * math.sqrt(2))) * 2**64),
                              2**64 - 1)) for level in levels.tolist()]

    words = np.random.PCG64(int(master_seed))
    block = max(_MIN_BLOCK_ROWS, _BLOCK_ELEMENTS // n_specimens)   # replications per pass
    chunks = []
    for first in range(0, replications, block):
        rows = min(block, replications - first)
        if strength_std_V:
            raw = words.random_raw((rows, n_specimens)).T
            cells = (raw > cuts[0]).astype(np.intp)
            for cut in cuts[1:]:
                cells += raw > cut
        else:  # every strength is the mean
            cells = np.full((n_specimens, rows), sum(levels < strength_mean_V))
        codes = _stair_case_codes(cells, next_code, start_code)
        chunks.append(_dixon_mood_means(codes, tables))
    estimates = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    if not estimates.size:
        raise EstimationError("every replication produced a single-outcome sequence")
    mean_bias, std_bias, max_abs_bias = _bias_summary(estimates - strength_mean_V)
    return {
        "true_mean_V": strength_mean_V,
        "true_std_V": strength_std_V,
        "n_specimens": n_specimens,
        "replications": replications,
        "valid_replications": estimates.size,
        "skipped_replications": replications - estimates.size,
        "mean_bias_V": mean_bias,
        "std_bias_V": std_bias,
        "max_abs_bias_V": max_abs_bias,
    }

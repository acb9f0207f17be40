"""Statistical post-processing: Dixon-Mood estimation of the fatigue limit
from a stair-case sequence, Basquin (S-N) curve fitting, and a Monte-Carlo
harness validating the estimator on synthetic threshold-strength specimens.

``dixon_mood`` is the scalar estimator for one campaign. The Monte-Carlo
harness runs all replications of a trial as arrays. On its window of four
levels a stair-case is a walk over 20 state codes 5*k + m: level k is under
test and m window levels lie below the specimen's strength, so the specimen
fails iff k >= m. Each specimen column is one add and one lookup in a 20-entry
next-state table (from ``protocols.next_level``) across the replication axis.
One lookup and sum over each replication's codes then gives its failure and
survival counts and level sums, packed in one integer, and one OR its mask of
occupied (outcome, level) cells; Dixon-Mood works from those. The tables are
built once per window and kept (``_window_tables``). A specimen's m is drawn by
inversion: one raw 64-bit word of ``PCG64(master_seed)``, whose stream NEP 19
freezes, counts the window levels whose normal cell probabilities, scaled to
2**64, it exceeds. Replication rep takes the next n_specimens words after those
of replications 0 to rep - 1, in blocks of at least ``_MIN_BLOCK_ROWS``
replications whatever n_specimens is.

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
from .protocols import (StairCaseSequence, StairCaseTrial, _is_whole, grid_index,
                        next_level, validate_population)

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
    ratio = (n * b - a * a) / n**2
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


@functools.lru_cache(maxsize=8)
def _window_tables(levels: tuple[float, ...]):
    """The stair-case walk on a window of four sorted levels 1 V apart, and the
    tables that count it, as read-only arrays built once per window.

    State code 5*k + m: level k is under test and m window levels lie below
    the strength, so the trial fails iff k >= m, exactly when level >=
    strength. Its cell is k for a failure and 4 + k for a survival. Returns,
    in order:

    - the levels;
    - the next state 5*k' of each code. Level k' is the first equal to the
      level ``protocols.next_level`` steps to with a 1 V step, as in
      synthetic_stair_case, so windows whose levels coincide as floats (means
      of 2**53 and more) walk as it does;
    - the weight of each code: its failure count, survival count and their
      sums of level - levels[0] (whole volts, so exact), as four 16-bit
      fields of one integer. A sum stays below 3 * MAX_SPECIMENS < 2**16, so
      adding weights never carries from one field into the next;
    - the bit of each code's cell, 1 << cell;
    - for each 8-bit mask of occupied cells, the lowest occupied level of the
      failures (row 0) and of the survivals (row 1);
    - for each mask, whether it holds both outcomes;
    - the shifts of the four fields, and the half steps -1/2 and +1/2 of the
      failure and survival means, as columns.
    """
    import numpy as np
    low, high = levels[0], levels[-1]
    next_code, weight, cell_bit = [], [], []
    for k, level in enumerate(levels):
        down = 5 * levels.index(next_level(level, True, 1.0, low, high)[0])
        up = 5 * levels.index(next_level(level, False, 1.0, low, high)[0])
        next_code += [down] * (k + 1) + [up] * (4 - k)
        above_low = int(level - low)
        weight += [1 | above_low << 32] * (k + 1) + [1 << 16 | above_low << 48] * (4 - k)
        cell_bit += [1 << k] * (k + 1) + [1 << 4 + k] * (4 - k)

    def lowest(nibble):  # the level of its lowest set bit; any level for none
        return levels[(nibble & -nibble).bit_length() - 1]

    masks = range(256)
    tables = (np.array(levels), np.array(next_code), np.array(weight, dtype=np.int64),
              np.array(cell_bit, dtype=np.uint8),
              np.array([[lowest(mask & 15) for mask in masks], [lowest(mask >> 4) for mask in masks]]),
              np.array([bool(mask & 15 and mask >> 4) for mask in masks]),
              np.array([[0], [16], [32], [48]]), np.array([[-0.5], [0.5]]))
    for table in tables:
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

    Over the columns of codes at once, one sum of the codes' weights gives each
    column's counts and level sums and one OR of their cell bits its mask of
    occupied cells (tables from _window_tables). Columns with a single outcome
    are dropped before any division, where dixon_mood raises EstimationError.
    Per outcome, X0 is its lowest occupied level, N its count and A the sum of
    count * (level - X0), exact as the levels are whole volts; the mean is
    X0 + d*(A/N +/- 1/2), d = 1 V, over the less frequent outcome (ties to
    failures), in the float operations of dixon_mood. Each array has one row
    per outcome or field, so every operation runs along the columns.
    """
    import numpy as np
    levels, _, weight, cell_bit, lowest, both, shifts, half = tables
    packed = np.add.reduce(weight.take(codes), axis=0)
    masks = np.bitwise_or.reduce(cell_bit.take(codes), axis=0)
    keep = both.take(masks)
    fields = (packed[keep] >> shifts) & 0xFFFF  # failures, survivals and their level sums
    n = fields[:2]
    x0 = lowest.take(masks[keep], axis=1)
    a = fields[2:] - n * (x0 - levels[0])
    means = x0 + (a / n + half)
    return np.where(n[0] <= n[1], means[0], means[1])


def _bias_summary(biases: np.ndarray) -> tuple[float, float, float]:
    """Mean, ddof-0 spread and largest magnitude of a non-empty 1-D float64 array, as
    float(biases.mean()), float(biases.std()) and float(np.abs(biases).max()) give
    them: the ufunc reductions those wrappers run, in their order. The mean is numpy's
    pairwise add.reduce over the size; the spread the square root of the same mean of
    the squared deviations from it."""
    import numpy as np
    size = biases.size
    mean = float(np.add.reduce(biases)) / size
    deviations = biases - mean
    deviations *= deviations
    return (mean, math.sqrt(float(np.add.reduce(deviations)) / size),
            float(np.maximum.reduce(np.abs(biases))))


def estimator_recovery_trial(strength_mean_V: float, strength_std_V: float,
                             n_specimens: int, replications: int, master_seed: int) -> dict:
    """Bias/spread summary of the Dixon-Mood estimator on synthetic campaigns.

    Each replication draws threshold strengths from Normal(strength_mean_V,
    strength_std_V) and runs a stair-case over the fixed window of 1 V steps,
    round(strength_mean_V) - 1 to round(strength_mean_V) + 2 V, from the level
    nearest the mean. Replications with only one outcome are skipped and counted.
    The arguments must pass protocols.validate_population, the mean and spread
    finite.

    The walk needs only m, the window levels below a strength, and level L lies
    below a strength of normal quantile u iff Phi((L - mean)/std) < u. So each
    specimen reads one raw word of PCG64(master_seed), and m counts the cuts
    min(floor(Phi((L - mean)/std) * 2**64), 2**64 - 1) that the word exceeds (each
    cut is 2**63 when std * sqrt(2) overflows); at a spread of 0, m counts the
    levels below the mean. All replications take their words row after row and
    run at once as arrays: each specimen row is one step of a walk over the
    window's 20 state codes (_window_tables), and Dixon-Mood works from each
    replication's counts and level sums per outcome. The words come in order, so
    the block size leaves them unchanged, and the summary equals that of one
    synthetic_stair_case and dixon_mood per replication on strengths in the same
    cells. The summary (_bias_summary) is numpy's pairwise add.reduce mean of the
    biases and their ddof-0 spread: numpy's summation order, which NEP 19 does not
    freeze.
    """
    problems = validate_population(n_specimens, None, strength_mean_V, strength_std_V, master_seed)
    problems += [f"{name}: must be finite, got {value}" for name, value in (
        ("strength_mean_V", strength_mean_V), ("strength_std_V", strength_std_V))
        if not math.isfinite(value)]
    if not (isinstance(replications, numbers.Integral)
            and MIN_REPLICATIONS <= replications <= MAX_REPLICATIONS):
        problems.append(f"replications: must be an integer in "
                        f"[{MIN_REPLICATIONS}, {MAX_REPLICATIONS}], got {replications!r}")
    if problems:  # raised before the generator is seeded
        raise ValueError("; ".join(problems))
    import numpy as np
    levels = tuple([round(strength_mean_V) - 1.0 + i for i in range(4)])
    start = min(range(4), key=lambda k: abs(levels[k] - strength_mean_V))
    tables = _window_tables(levels)
    next_code = tables[1]
    if strength_std_V:  # Phi((level - mean)/std) * 2**64 per level, in NormalDist.cdf's floats
        cuts = [np.uint64(min(int(0.5 * math.erfc((strength_mean_V - level)
                                                  / (strength_std_V * math.sqrt(2))) * 2**64),
                              2**64 - 1)) for level in levels]

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
            cells = np.full((n_specimens, rows), sum(level < strength_mean_V for level in levels))
        codes = _stair_case_codes(cells, next_code, 5 * start)
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

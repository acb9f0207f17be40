import math
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from microfatigue.damage import (DamageModelParams, DamageState, SpecimenStrength,
                                 accumulate, cycles_to_failure, degraded_pull_in)
from microfatigue.electromech import pull_in_voltage_closed_form

PARAMS = DamageModelParams(
    basquin_coefficient_Pa=1.0e9,
    basquin_exponent=-0.3,
    endurance_stress_Pa=12.0e6,
)


def test_zero_stress_is_unbounded():
    assert cycles_to_failure(0.0, PARAMS) is None


def test_basquin_intercept():
    assert cycles_to_failure(PARAMS.basquin_coefficient_Pa, PARAMS) == 1


def test_below_endurance_unbounded():
    assert cycles_to_failure(PARAMS.endurance_stress_Pa, PARAMS) is None
    assert cycles_to_failure(0.999 * PARAMS.endurance_stress_Pa, PARAMS) is None


def test_life_beyond_the_float_range_is_unbounded():
    flat = DamageModelParams(basquin_coefficient_Pa=1.0e9, basquin_exponent=-3e-4,
                             endurance_stress_Pa=12.0e6)
    assert cycles_to_failure(15e6, flat) is None  # (15e6/1e9)**(1/-3e-4) overflows
    weak_limit = DamageModelParams(basquin_coefficient_Pa=1.0e9, basquin_exponent=-0.3,
                                   endurance_stress_Pa=1e-300)
    # strength scale * coefficient overflows to inf, so the stress ratio is 0
    assert cycles_to_failure(2.0, weak_limit, SpecimenStrength(1e300)) is None


def test_scale_equivariance():
    # doubling both the coefficient and the amplitude leaves the life unchanged
    doubled = DamageModelParams(
        basquin_coefficient_Pa=2.0e9, basquin_exponent=-0.3,
        endurance_stress_Pa=12.0e6)
    assert cycles_to_failure(30e6, PARAMS) == cycles_to_failure(60e6, doubled)


def test_strength_scale_shifts_endurance():
    strong = SpecimenStrength(1.2)
    sigma = 1.1 * PARAMS.endurance_stress_Pa
    assert cycles_to_failure(sigma, PARAMS) is not None
    assert cycles_to_failure(sigma, PARAMS, strong) is None


def test_accumulate_below_endurance_is_inert():
    state = DamageState.pristine()
    after = accumulate(state, 0.5 * PARAMS.endurance_stress_Pa, 10**9, PARAMS)
    assert after.damage == 0
    assert after.cycles_applied == 10**9
    assert not after.failed and not after.hardened


@pytest.mark.parametrize("count", [2.9, 0.5, -1, -2.0, math.inf, math.nan])
def test_accumulate_rejects_a_cycle_count_that_is_not_whole(count):
    # 2.9 cycles once applied the 2 cycles of int(2.9).
    with pytest.raises(ValueError, match=r"^delta_cycles: must be a whole number >= 0, "):
        accumulate(DamageState.pristine(), 30e6, count, PARAMS)


def test_accumulate_takes_a_whole_float():
    whole = accumulate(DamageState.pristine(), 30e6, 3.0, PARAMS)
    assert whole == accumulate(DamageState.pristine(), 30e6, 3, PARAMS)
    assert type(whole.cycles_applied) is int


def test_accumulate_reaches_failure():
    life = cycles_to_failure(30e6, PARAMS)
    state = accumulate(DamageState.pristine(), 30e6, life, PARAMS)
    assert state.failed
    assert state.damage == 1


def test_accumulate_additivity_exact():
    life = cycles_to_failure(30e6, PARAMS)
    batch = life // 3
    once = accumulate(DamageState.pristine(), 30e6, batch, PARAMS)
    twice = accumulate(accumulate(DamageState.pristine(), 30e6, batch // 2, PARAMS),
                       30e6, batch - batch // 2, PARAMS)
    assert once == twice


def test_failure_within_one_batch_of_miner_sum():
    sigma = 25e6
    life = cycles_to_failure(sigma, PARAMS)
    batch = 1000
    state = DamageState.pristine()
    while not state.failed:
        state = accumulate(state, sigma, batch, PARAMS)
    expected = PARAMS.collapse_threshold * life
    assert abs(state.cycles_applied - expected) <= batch


def test_hardened_flag():
    sigma = 30e6
    life = cycles_to_failure(sigma, PARAMS)
    state = accumulate(DamageState.pristine(), sigma,
                       int(0.8 * life), PARAMS)
    assert state.hardened and not state.failed


def test_degraded_pull_in_pristine(nominal_device):
    d = nominal_device
    pristine = pull_in_voltage_closed_form(d.mechanics, d.geometry).pull_in_voltage_V
    assert degraded_pull_in(DamageState.pristine(), d.mechanics, d.geometry,
                            PARAMS) == pytest.approx(pristine, rel=1e-12)


def test_degraded_pull_in_closed_form(nominal_device):
    # h = 0, p = 1, D = 0.19 -> sqrt(0.81) = 0.9 of pristine
    d = nominal_device
    params = DamageModelParams(
        basquin_coefficient_Pa=1.0e9, basquin_exponent=-0.3,
        endurance_stress_Pa=12.0e6, hardening_amplitude=0.0,
        softening_exponent=1.0)
    pristine = pull_in_voltage_closed_form(d.mechanics, d.geometry).pull_in_voltage_V
    state = DamageState(damage=Fraction(19, 100), cycles_applied=0,
                        hardened=False, failed=False)
    assert degraded_pull_in(state, d.mechanics, d.geometry, params) == \
        pytest.approx(0.9 * pristine, rel=1e-12)


def test_degraded_pull_in_monotone_without_hardening(nominal_device):
    d = nominal_device
    params = DamageModelParams(
        basquin_coefficient_Pa=1.0e9, basquin_exponent=-0.3,
        endurance_stress_Pa=12.0e6, hardening_amplitude=0.0)
    values = []
    for frac in np.linspace(0.0, 1.0, 51):
        state = DamageState(damage=Fraction(frac).limit_denominator(10**6),
                            cycles_applied=0, hardened=False, failed=False)
        values.append(degraded_pull_in(state, d.mechanics, d.geometry, params))
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] == 0.0


def test_hardening_bump_visible(nominal_device):
    d = nominal_device
    onset_state = DamageState(damage=Fraction(7, 10), cycles_applied=0,
                              hardened=True, failed=False)
    at_onset = degraded_pull_in(onset_state, d.mechanics, d.geometry, PARAMS)
    grid = [degraded_pull_in(
        DamageState(damage=Fraction(n, 200), cycles_applied=0, hardened=True,
                    failed=False), d.mechanics, d.geometry, PARAMS)
        for n in range(140, 200)]
    assert max(grid) > at_onset


def test_sub_endurance_pull_in_bit_identical(nominal_device):
    d = nominal_device
    before = DamageState.pristine()
    after = accumulate(before, PARAMS.endurance_stress_Pa, 10**9, PARAMS)
    v0 = degraded_pull_in(before, d.mechanics, d.geometry, PARAMS)
    v1 = degraded_pull_in(after, d.mechanics, d.geometry, PARAMS)
    assert v0 == v1


def test_params_validation():
    with pytest.raises(ValueError):
        DamageModelParams(basquin_coefficient_Pa=1e9, basquin_exponent=0.1,
                          endurance_stress_Pa=1e6)
    with pytest.raises(ValueError):
        DamageModelParams(basquin_coefficient_Pa=1e9, basquin_exponent=-0.1,
                          endurance_stress_Pa=1e6, hardening_onset=0.9,
                          collapse_threshold=0.5)
    with pytest.raises(ValueError):
        SpecimenStrength(0.0)


@pytest.mark.parametrize("name", ["basquin_coefficient_Pa", "basquin_exponent",
                                  "endurance_stress_Pa", "hardening_amplitude",
                                  "softening_exponent"])
def test_params_reject_nan_naming_the_field(name):
    fields = dict(basquin_coefficient_Pa=1e9, basquin_exponent=-0.3, endurance_stress_Pa=12e6)
    fields[name] = float("nan")
    with pytest.raises(ValueError, match=f"^{name}: "):
        DamageModelParams(**fields)


def test_params_reject_an_infinite_hardening_amplitude():
    # The pristine reading takes the stiffness factor at d = 0 as exactly 1.0, which
    # 1.0 + amplitude*0.0 is for a finite amplitude only.
    message = "^hardening_amplitude: must be finite and >= 0, got inf$"
    with pytest.raises(ValueError, match=message):
        DamageModelParams(1e9, -0.3, 12e6, hardening_amplitude=math.inf)
    with pytest.raises(ValueError, match=message):
        replace(PARAMS, hardening_amplitude=math.inf)
    big = replace(PARAMS, hardening_amplitude=sys.float_info.max)
    assert big.hardening_amplitude == sys.float_info.max

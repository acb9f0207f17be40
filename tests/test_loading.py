import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from microfatigue.electromech import pull_in_voltage_closed_form
from microfatigue.loading import (LoadCycleSpec, fatigue_parameters,
                                  load_cycles_from_voltage_cycles, waveform)


def count_maxima(values):
    return sum(1 for i in range(1, len(values) - 1)
               if values[i] > values[i - 1] and values[i] > values[i + 1])


def test_cycle_doubling_reference():
    assert load_cycles_from_voltage_cycles(10**6) == 2 * 10**6


def test_cycle_doubling_zero():
    assert load_cycles_from_voltage_cycles(0) == 0


def test_cycle_doubling_large_counts():
    assert load_cycles_from_voltage_cycles(10**12) == 2 * 10**12


@given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=0, max_value=10**12))
def test_cycle_doubling_linear(a, b):
    f = load_cycles_from_voltage_cycles
    assert f(a + b) == f(a) + f(b)
    assert f(a) == 2 * a


def test_cycle_doubling_rejects_negative():
    with pytest.raises(ValueError):
        load_cycles_from_voltage_cycles(-1)


@pytest.mark.parametrize("count", [2.5, 0.1, -1.0, math.inf, math.nan])
def test_cycle_doubling_rejects_a_count_that_is_not_whole(count):
    # 2.5 voltage cycles once doubled to the 4 load cycles of int(2.5).
    with pytest.raises(ValueError, match=r"^n_voltage_cycles: must be a whole number >= 0, "):
        load_cycles_from_voltage_cycles(count)


def test_cycle_doubling_takes_a_whole_float():
    assert load_cycles_from_voltage_cycles(3.0) == 6


def test_load_cycle_spec_timing():
    spec = LoadCycleSpec(drive_amplitude_V=13.0, drive_frequency_Hz=20e3)
    assert spec.voltage_period_s == pytest.approx(5e-5)
    assert spec.load_period_s == pytest.approx(2.5e-5)
    assert spec.load_frequency_Hz == pytest.approx(40e3)


@pytest.mark.parametrize("amplitude, frequency, message", [
    (float("nan"), 20e3, "drive amplitude must be >= 0"),
    (13.0, float("nan"), "drive frequency must be > 0"),
    (-1.0, 20e3, "drive amplitude must be >= 0"),
    (13.0, 0.0, "drive frequency must be > 0"),
])
def test_load_cycle_spec_rejects_nan_and_out_of_range(amplitude, frequency, message):
    with pytest.raises(ValueError, match=message):
        LoadCycleSpec(amplitude, frequency)


@pytest.mark.parametrize("t", [float("nan"), -1e-9])
def test_waveform_rejects_nan_and_negative_time(t):
    with pytest.raises(ValueError, match="time must be >= 0"):
        waveform(t, LoadCycleSpec(13.0, 20e3))


def test_waveform_endpoints():
    spec = LoadCycleSpec(13.0, 20e3)
    assert waveform(0.0, spec) == 0.0
    assert waveform(spec.voltage_period_s / 4.0, spec) == pytest.approx(1.0)


@pytest.mark.parametrize("periods", [1, 2, 5, 17, 50])
def test_waveform_two_maxima_per_voltage_period(periods):
    spec = LoadCycleSpec(13.0, 20e3)
    t = np.linspace(0.0, periods * spec.voltage_period_s, periods * 400 + 1)
    values = [waveform(float(ti), spec) for ti in t]
    assert count_maxima(values) == 2 * periods


def test_waveform_range():
    spec = LoadCycleSpec(13.0, 20e3)
    t = np.linspace(0.0, 3 * spec.voltage_period_s, 999)
    values = np.array([waveform(float(ti), spec) for ti in t])
    assert values.min() >= 0.0 and values.max() <= 1.0


def test_fatigue_parameters_zero_amplitude(nominal_device):
    d = nominal_device
    tension, compression = fatigue_parameters(0.0, d.mechanics, d.geometry)
    assert tension.sigma_max_Pa == 0.0 and tension.sigma_alt_Pa == 0.0
    assert compression.sigma_min_Pa == 0.0


def test_fatigue_parameters_identities(nominal_device):
    d = nominal_device
    for va in np.linspace(1.0, 25.0, 20):
        tension, compression = fatigue_parameters(float(va), d.mechanics, d.geometry)
        assert tension.sigma_min_Pa == 0.0
        assert tension.sigma_mean_Pa == tension.sigma_alt_Pa  # sigma_min = 0
        assert tension.sigma_mean_Pa == tension.sigma_max_Pa / 2.0
        assert tension.stress_ratio == 0.0
        assert compression.stress_ratio is None
        assert compression.sigma_max_Pa == 0.0
        assert compression.sigma_alt_Pa == tension.sigma_alt_Pa


def test_fatigue_parameters_13V(nominal_device):
    d = nominal_device
    tension, _ = fatigue_parameters(13.0, d.mechanics, d.geometry)
    # half of the ~24.8 MPa static peak
    assert tension.sigma_alt_Pa == pytest.approx(12.4e6, rel=1e-2)


def test_fatigue_parameters_reject_above_pull_in(nominal_device):
    d = nominal_device
    v_pi = pull_in_voltage_closed_form(d.mechanics, d.geometry).pull_in_voltage_V
    with pytest.raises(ValueError):
        fatigue_parameters(v_pi + 0.1, d.mechanics, d.geometry)


def test_parameters_independent_of_drive_frequency(nominal_device):
    # frequency only affects wall time under the quasi-static assumption
    d = nominal_device
    a = fatigue_parameters(13.0, d.mechanics, d.geometry)
    b = fatigue_parameters(13.0, d.mechanics, d.geometry)
    assert a == b

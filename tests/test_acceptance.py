"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured value.
"""

import json
import math
import time

import numpy as np
import pytest

from microfatigue.cli import cli_dispatch
from microfatigue.damage import cycles_to_failure
from microfatigue.device import C_K_RESONANCE_PRESET, Device
from microfatigue.electromech import (natural_frequency,
                                      pull_in_voltage_closed_form,
                                      pull_in_voltage_sweep)
from microfatigue.loading import (LoadCycleSpec, fatigue_parameters,
                                  load_cycles_from_voltage_cycles, waveform)
from microfatigue.protocols import (OUTCOME_FAILED, OUTCOME_INVALID,
                                    OUTCOME_SURVIVED, build_population,
                                    run_fatigue_test, run_stair_case)
from microfatigue.stats import dixon_mood, estimator_recovery_trial, fit_basquin
from microfatigue.stats import WohlerPoint
from tests.reference import PUBLISHED, make_sequence, random_device


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok


def test_criterion_1_published_staircase_statistics():
    start = time.perf_counter()
    est = dixon_mood(make_sequence(PUBLISHED))
    elapsed = time.perf_counter() - start
    ok = (est.mean_V == pytest.approx(13.0, abs=1e-12)
          and round(est.q10_V, 1) == 12.3
          and round(est.q90_V, 1) == 13.7
          and elapsed < 1e-3)
    report(1, ok, f"mean={est.mean_V} q10={est.q10_V:.4f} "
                  f"q90={est.q90_V:.4f} in {elapsed * 1e6:.0f} us")


def test_criterion_2_cycle_doubling():
    rng = np.random.default_rng(2)
    doubling_ok = all(
        load_cycles_from_voltage_cycles(n) == 2 * n
        for n in [int(v) for v in rng.integers(0, 10**12, size=200)])
    spec = LoadCycleSpec(13.0, 20e3)
    maxima_ok = True
    for periods in range(1, 51):
        t = np.linspace(0.0, periods * spec.voltage_period_s, periods * 400 + 1)
        values = [waveform(float(ti), spec) for ti in t]
        count = sum(1 for i in range(1, len(values) - 1)
                    if values[i] > values[i - 1] and values[i] > values[i + 1])
        maxima_ok = maxima_ok and count == 2 * periods
    report(2, doubling_ok and maxima_ok,
           f"2N identity on 200 random counts up to 1e12; "
           f"sin^2 maxima = 2K for K in 1..50: {maxima_ok}")


def test_criterion_3_pull_in_solver_oracle():
    start = time.perf_counter()
    nominal = Device.nominal()
    closed = pull_in_voltage_closed_form(nominal.mechanics, nominal.geometry)
    sweep = pull_in_voltage_sweep(nominal.mechanics, nominal.geometry)
    ok = (abs(sweep.pull_in_voltage_V - closed.pull_in_voltage_V) < 1e-2
          and closed.pull_in_voltage_V == pytest.approx(26.4, abs=0.05))
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        d = random_device(rng)
        c = pull_in_voltage_closed_form(d.mechanics, d.geometry)
        s = pull_in_voltage_sweep(d.mechanics, d.geometry)
        worst = max(worst, abs(s.pull_in_voltage_V - c.pull_in_voltage_V))
        ok = ok and abs(s.pull_in_voltage_V - c.pull_in_voltage_V) < 1e-2
        ok = ok and abs(s.deflection_at_instability_m / (d.geometry.gap_m / 3) - 1) < 0.01
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(3, ok, f"nominal {closed.pull_in_voltage_V:.3f} V, worst sweep/closed "
                  f"gap {worst * 1e3:.2f} mV over 100 devices in {elapsed:.2f} s")


def test_criterion_4_resonance_sanity():
    f_1 = natural_frequency(Device.nominal(c_k=1.0).mechanics)
    f_preset = natural_frequency(Device.nominal(c_k=C_K_RESONANCE_PRESET).mechanics)
    ok = 10e3 <= f_1 <= 20e3 and abs(f_preset - 28e3) / 28e3 <= 0.05
    report(4, ok, f"f0(c_k=1)={f_1 / 1e3:.2f} kHz, "
                  f"f0(c_k={C_K_RESONANCE_PRESET})={f_preset / 1e3:.2f} kHz")


def test_criterion_5_fatigue_run_phenomenology(nominal_device, calibrated_params):
    start = time.perf_counter()
    d, params = nominal_device, calibrated_params
    from microfatigue.damage import SpecimenStrength
    mean = SpecimenStrength(1.0)

    ok = True
    details = []
    for va in (0.0, 13.0):
        r = run_fatigue_test(va, mean, d, params)
        flat = len({v for _, v in r.detections}) == 1
        ok = ok and r.outcome == OUTCOME_SURVIVED and flat
        details.append(f"{va}V:{r.outcome}/flat={flat}")
    for va in (21.0, 22.5):
        r = run_fatigue_test(va, mean, d, params)
        ok = ok and r.outcome == OUTCOME_FAILED and r.detections[-1][0] <= 100_000
        details.append(f"{va}V:{r.outcome}@{r.detections[-1][0]}")
    for va in (14.0, 15.0):
        r = run_fatigue_test(va, mean, d, params)
        sigma = fatigue_parameters(va, d.mechanics, d.geometry)[0].sigma_alt_Pa
        onset = params.hardening_onset * cycles_to_failure(sigma, params)
        pre = [v for n, v in r.detections if 0 < n < onset]
        post = [v for n, v in r.detections if n >= onset]
        bump = max(post) > pre[-1]
        drop = r.detections[-1][1] <= 0.8 * r.detections[-2][1]
        ok = ok and r.outcome == OUTCOME_FAILED and r.detections[-1][0] < 2_000_000 \
            and bump and drop
        details.append(f"{va}V:{r.outcome}@{r.detections[-1][0]}/bump={bump}/drop={drop}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(5, ok, "; ".join(details) + f" in {elapsed:.2f} s")


def test_criterion_6_displacement_imposed_guard(nominal_device, calibrated_params):
    from microfatigue.damage import SpecimenStrength
    r = run_fatigue_test(24.0, SpecimenStrength(1.0), nominal_device,
                         calibrated_params, detection_interval=1_000)
    ok = r.outcome == OUTCOME_INVALID
    report(6, ok, f"24 V run with 1k-cycle detections -> {r.outcome} "
                  f"at pull-in {r.detections[-1][1]:.2f} V")


def test_criterion_7_estimator_recovery():
    start = time.perf_counter()
    # on the design recorded before the trial took the campaign's: 12-15 V from 13 V
    summary = estimator_recovery_trial(13.0, 0.55, n_specimens=6, replications=200,
                                       master_seed=42, start_level_V=13.0)
    elapsed = time.perf_counter() - start
    ok = abs(summary["mean_bias_V"]) < 0.3 and elapsed < 10.0
    report(7, ok, f"mean bias {summary['mean_bias_V']:+.3f} V over "
                  f"{summary['valid_replications']} valid replications in {elapsed:.2f} s")


def test_criterion_8_basquin_fit():
    b_true = -0.1
    exact = [WohlerPoint(30.0 * n**b_true, n) for n in (10**3, 10**4, 10**5, 10**6)]
    fit = fit_basquin(exact)
    exact_ok = abs(fit.exponent - b_true) < 1e-6
    rng = np.random.default_rng(8)
    rel_errors = []
    for _ in range(100):
        cycles = np.array([10**3, 10**4, 10**5, 10**6], dtype=float)
        noisy = np.maximum(1, (cycles * (1 + 0.05 * rng.standard_normal(4))).astype(int))
        points = [WohlerPoint(30.0 * n**b_true, int(m)) for n, m in zip(cycles, noisy)]
        rel_errors.append(abs(fit_basquin(points).exponent - b_true) / abs(b_true))
    noise_ok = float(np.mean(rel_errors)) < 0.05
    ok = exact_ok and noise_ok
    report(8, ok, f"noiseless |db|={abs(fit.exponent - b_true):.2e}, "
                  f"mean rel err under 5% noise = {np.mean(rel_errors):.3f}")


def test_criterion_9_pipeline_determinism(tmp_path, capsys):
    bundles = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_dispatch(["--seed", "2024", "--out", str(out), "staircase"])
        assert code == 0
        bundles.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    capsys.readouterr()
    ok = bundles[0] == bundles[1] and len(bundles[0]) >= 9
    report(9, ok, f"{len(bundles[0])} artifacts byte-identical across two runs")


def test_criterion_10_algebraic_identities(nominal_device):
    rng = np.random.default_rng(10)
    d = nominal_device
    ok = True
    # affine equivariance of the stair-case estimator
    from microfatigue.stats import synthetic_stair_case
    for _ in range(20):
        strengths = list(13.0 + 0.7 * rng.standard_normal(8))
        seq = synthetic_stair_case(strengths, [11, 12, 13, 14, 15], 1.0, 13.0)
        try:
            base = dixon_mood(seq)
        except Exception:
            continue
        a, c = float(rng.uniform(0.5, 3.0)), float(rng.uniform(-5, 5))
        mapped = make_sequence([(a * t.level_V + c, int(t.failure))
                                for t in seq.trials], step=a * seq.step_V)
        est = dixon_mood(mapped)
        ok = ok and math.isclose(est.mean_V, a * base.mean_V + c, rel_tol=1e-9, abs_tol=1e-9)
        ok = ok and math.isclose(est.std_V, a * base.std_V, rel_tol=1e-9)
    # tension-side stress identities
    for va in rng.uniform(0.5, 25.0, size=30):
        tension, compression = fatigue_parameters(float(va), d.mechanics, d.geometry)
        ok = ok and tension.sigma_mean_Pa == tension.sigma_alt_Pa
        ok = ok and tension.stress_ratio == 0.0
        ok = ok and compression.stress_ratio is None
    report(10, ok, "Dixon-Mood affine equivariance and sigma_m=sigma_a, R=0 identities")

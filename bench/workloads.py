"""The four benchmark workloads.

Each workload is a closed loop run by one client on one thread: the next
op starts when the previous one has returned. An op's inputs are a pure
function of (workload, seed, op index), so every run with one seed
executes the same op sequence, however many ops its time allows.

A workload splits set-up into ``resolve`` (config) and ``prepare``
(device assembly and calibration), times nothing itself, and reaches the
package only through module attributes (``mf.protocols.run_stair_case``)
so that the tracer's wrappers see every call.

This module imports only the standard library: the set-up clock starts
before the first import of microfatigue or numpy.
"""

from __future__ import annotations

import importlib
import json
import math
import random
import statistics
import types
from dataclasses import asdict, replace

MODULES = ("cli", "config", "damage", "device", "electromech", "emit", "errors",
           "loading", "protocols", "stats")


def import_package() -> types.SimpleNamespace:
    """Import every layer of microfatigue; this is the ``import`` set-up phase."""
    return types.SimpleNamespace(**{name: importlib.import_module(f"microfatigue.{name}")
                                    for name in MODULES})


_GOLDEN = (5 ** 0.5 - 1) / 2


def _rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{i}")


def _cycles_increase(record) -> bool:
    cycles = [c for c, _ in record.detections]
    return all(a < b for a, b in zip(cycles, cycles[1:]))


def _run_kwargs(model) -> dict:
    """run_fatigue_test keyword arguments from a model config section."""
    return dict(detection_interval=model.detection_interval_cycles,
                reference_cycles=model.reference_cycles,
                detection_step_V=model.detection_step_V,
                drop_fraction=model.drop_fraction,
                min_pullin_fraction=model.min_pullin_fraction)


class Workload:
    name = ""

    def __init__(self, mf: types.SimpleNamespace):
        self.mf = mf

    def resolve(self) -> None:
        self.config = self.mf.config.default_config()

    def prepare(self) -> None:
        pass

    def make_input(self, seed: int, i: int):
        raise NotImplementedError

    def run(self, inp) -> tuple[list[str], object]:
        """The timed op: returns the emitted texts and what ``check`` needs."""
        raise NotImplementedError

    def check(self, inp, result) -> list[str]:
        """Invariant violations of one op's output; empty means correct."""
        raise NotImplementedError

    def finish(self, results: list) -> list[str]:
        """Texts emitted once per run over the results of the digested ops."""
        return []


class Staircase(Workload):
    """One paper campaign per op, with a fresh population seed."""

    name = "staircase"

    def prepare(self):
        self.device = self.config.device()
        self.params = self.config.damage_params(self.device)
        self.run_kwargs = _run_kwargs(self.config.model)

    def make_input(self, seed, i):
        return _rng(self.name, seed, i).randrange(2**31)

    def run(self, master_seed):
        mf, camp = self.mf, self.config.campaign
        population = mf.protocols.build_population(
            master_seed, camp.strength_mean_V, camp.strength_std_V, camp.n_specimens,
            self.device, self.params)
        sequence, records = mf.protocols.run_stair_case(
            list(camp.levels_V), camp.step_V, camp.start_level_V, camp.n_specimens,
            population, self.device, self.params, **self.run_kwargs)
        try:
            estimate = mf.emit.estimate_to_dict(mf.stats.dixon_mood(sequence))
        except mf.errors.EstimationError:
            estimate = None  # single-outcome sequence: no estimate exists
        points = mf.emit.wohler_points_from_records(records)
        echo = replace(self.config, campaign=replace(camp, master_seed=master_seed))
        summary = {
            "estimate": estimate,
            "trials": [{"specimen_id": t.specimen_id, "level_V": t.level_V,
                        "outcome": 1 if t.failure else 0} for t in sequence.trials],
            "run_outcomes": [r.outcome for r in records],
            "master_seed": master_seed,
            "tool": mf.emit.TOOL_STAMP,
        }
        texts = [mf.config.serialize_config(echo),
                 mf.emit.emit_staircase_sequence(sequence),
                 *(mf.emit.emit_fatigue_run(r) for r in records),
                 mf.emit.emit_wohler_points(points),
                 mf.emit.dump_json(summary)]
        return texts, (sequence, records, estimate, points)

    def check(self, inp, result):
        sequence, records, estimate, _ = result
        camp = self.config.campaign
        problems = []
        if len(sequence.trials) != camp.n_specimens:
            problems.append(f"{len(sequence.trials)} trials")
        if any(not min(camp.levels_V) <= t.level_V <= max(camp.levels_V)
               for t in sequence.trials):
            problems.append("trial level outside the level window")
        if not all(_cycles_increase(r) for r in records):
            problems.append("detection cycles do not strictly increase")
        both = len({t.failure for t in sequence.trials}) == 2
        if both != (estimate is not None):
            problems.append(f"estimate {estimate} for a sequence with both outcomes={both}")
        if estimate and not estimate["q10_V"] <= estimate["mean_V"] <= estimate["q90_V"]:
            problems.append(f"estimate quantiles out of order: {estimate}")
        return problems

    def finish(self, results):
        points = [p for _, _, _, pts in results for p in pts]
        fit = self.mf.stats.fit_basquin(points)
        return [self.mf.emit.dump_json(self.mf.emit.fit_to_dict(fit))]


class Monitor(Workload):
    """One finely monitored fatigue run per op, with pinned damage parameters."""

    name = "monitor"
    AMPLITUDES_V = (13.0, 14.0, 15.0)
    DETECTION_INTERVAL = 1_000

    def prepare(self):
        mf = self.mf
        calibrated = self.config.damage_params(self.config.device())
        pinned = {
            "model": {"detection_interval_cycles": self.DETECTION_INTERVAL},
            "damage": {"basquin_coefficient_Pa": calibrated.basquin_coefficient_Pa,
                       "basquin_exponent": calibrated.basquin_exponent,
                       "endurance_stress_Pa": calibrated.endurance_stress_Pa},
        }
        self.config = mf.config.parse_config(json.dumps(pinned))
        self.device = self.config.device()
        self.params = self.config.damage_params(self.device)
        if self.params != calibrated:
            raise RuntimeError(f"pinned damage parameters {self.params} differ from "
                               f"the default calibration {calibrated}")
        self.run_kwargs = _run_kwargs(self.config.model)

    def make_input(self, seed, i):
        # Strength quantiles follow a golden-ratio sequence from a seeded
        # offset: normal thresholds as with independent draws, but every run's
        # mix of long (surviving) and short runs stays close to the expected
        # one, so the op mix does not vary much from seed to seed.
        u = (_rng(self.name, seed, 0).random() + i * _GOLDEN) % 1.0
        camp = self.config.campaign
        threshold = statistics.NormalDist(camp.strength_mean_V,
                                          camp.strength_std_V).inv_cdf(u or 0.5)
        scale = self.mf.protocols.strength_scale_from_threshold(threshold, self.device, self.params)
        return self.AMPLITUDES_V[i % 3], threshold, self.mf.damage.SpecimenStrength(scale)

    def run(self, inp):
        amplitude, _, specimen = inp
        record = self.mf.protocols.run_fatigue_test(amplitude, specimen, self.device,
                                                   self.params, **self.run_kwargs)
        return [self.mf.emit.emit_fatigue_run(record)], record

    def check(self, inp, record):
        amplitude, threshold, _ = inp
        problems = []
        if not _cycles_increase(record):
            problems.append("detection cycles do not strictly increase")
        if record.detections[-1][0] > record.reference_cycles:
            problems.append("run exceeded the reference cycle count")
        if threshold >= amplitude:
            # At or below the specimen's endurance no damage accrues: the run
            # must survive with its pristine pull-in at every detection.
            pristine = record.detections[0][1]
            if record.outcome != "survived" or any(v != pristine for _, v in record.detections):
                problems.append(f"{amplitude} V run below the {threshold:.4f} V threshold "
                                f"lost its pristine pull-in ({record.outcome})")
        return problems


class Recovery(Workload):
    """One Monte-Carlo recovery trial of the Dixon-Mood estimator per op."""

    name = "recovery"
    REPLICATIONS = 200
    N_SPECIMENS = (6, 12, 24)
    TRUE_STD_V = (0.3, 0.55, 0.8)

    def make_input(self, seed, i):
        return (self.N_SPECIMENS[i % 3], self.TRUE_STD_V[(i // 3) % 3],
                _rng(self.name, seed, i).randrange(2**31))

    def run(self, inp):
        n, std, seed = inp
        summary = self.mf.stats.estimator_recovery_trial(
            self.config.campaign.strength_mean_V, std, n, self.REPLICATIONS, seed)
        return [self.mf.emit.dump_json(summary)], summary

    def check(self, inp, summary):
        problems = []
        if summary["valid_replications"] + summary["skipped_replications"] != self.REPLICATIONS:
            problems.append(f"valid + skipped != {self.REPLICATIONS}: {summary}")
        if not all(math.isfinite(summary[k]) for k in ("mean_bias_V", "std_bias_V")):
            problems.append(f"non-finite bias: {summary}")
        return problems


class Characterise(Workload):
    """One device variant per op: config, calibration, pull-in and the curve."""

    name = "characterise"
    GAP_UM = (2.85, 3.3)
    THICKNESS_UM = (1.75, 2.0)
    C_K = (1.0, 2.5)
    CURVE_POINTS = 200
    CURVE_FRACTION = 0.98   # curve ends this far towards pull-in
    SWEEP_TOL_V = 1e-3      # pull_in_voltage_sweep's default bracket tolerance

    def make_input(self, seed, i):
        rng = _rng(self.name, seed, i)
        return json.dumps({
            "geometry": {"gap_um": rng.uniform(*self.GAP_UM),
                         "specimen_thickness_um": rng.uniform(*self.THICKNESS_UM)},
            "model": {"c_k": rng.uniform(*self.C_K)},
        })

    def run(self, text):
        mf = self.mf
        config = mf.config.parse_config(text)
        device = config.device()
        params = config.damage_params(device)
        mech, geom = device.mechanics, device.geometry
        closed = mf.electromech.pull_in_voltage_closed_form(mech, geom)
        sweep = mf.electromech.pull_in_voltage_sweep(mech, geom,
                                                     step_V=config.model.sweep_step_V)
        frequency = mf.electromech.natural_frequency(mech)
        curve = mf.electromech.stress_conversion_curve(
            mech, geom, V_max=self.CURVE_FRACTION * closed.pull_in_voltage_V,
            n_points=self.CURVE_POINTS)
        summary = {
            "closed_form_V": closed.pull_in_voltage_V,
            "sweep_V": sweep.pull_in_voltage_V,
            "deflection_at_instability_um": sweep.deflection_at_instability_m * 1e6,
            "natural_frequency_Hz": frequency,
            "damage": asdict(params),
        }
        texts = [mf.emit.emit_conversion_curve(curve), mf.emit.dump_json(summary)]
        return texts, (config, geom, closed, sweep, curve)

    def check(self, inp, result):
        config, geom, closed, sweep, curve = result
        problems = []
        if closed.pull_in_voltage_V <= config.damage.calibrate_immediate_V:
            problems.append(f"pull-in {closed.pull_in_voltage_V} V below the calibration target")
        if abs(sweep.pull_in_voltage_V - closed.pull_in_voltage_V) > self.SWEEP_TOL_V:
            problems.append(f"sweep {sweep.pull_in_voltage_V} V vs closed form "
                            f"{closed.pull_in_voltage_V} V")
        third = geom.gap_m / 3.0
        if abs(sweep.deflection_at_instability_m - third) > 1e-3 * third:
            problems.append(f"deflection at instability {sweep.deflection_at_instability_m} m "
                            f"vs g/3 = {third} m")
        if not all(a.voltage_V < b.voltage_V and a.deflection_m < b.deflection_m
                   for a, b in zip(curve, curve[1:])):
            problems.append("conversion curve is not increasing")
        if curve[-1].deflection_m >= third:
            problems.append("conversion curve passes the stability limit")
        return problems


WORKLOADS = {cls.name: cls for cls in (Staircase, Monitor, Recovery, Characterise)}

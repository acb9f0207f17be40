"""microfatigue benchmark: closed-loop workloads with output checks.

Run from the repository root:

    python3 bench/run_bench.py --workload staircase --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with tracing off and prints the end-to-end metrics;
``--trace 1`` makes a separate traced run and prints the per-layer metrics.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the run
record (versions, commit, seed, op count, output digest). Both are also
written under ``.bench_out/``. ``bench/README.md`` describes the workloads
and what each metric measures.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

import speed
import workloads
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"

SETUP_SAMPLES = 7   # fresh processes whose set-up is timed per run
# Every run executes and digests the first DIGEST_OPS ops (20 lie beyond p90);
# the traced run covers exactly these ops.
DIGEST_OPS = 200
# Reference commands: name -> (argv, config or None). The default campaign
# draws its strengths from the default seed; the paper's estimate comes from
# the campaign with the published specimen thresholds.
PAPER_TABLE = {"campaign": {"strengths_V": [14.5, 13.5, 13.2, 13.5, 12.8, 12.5]}}
REFERENCE_COMMANDS = {
    "staircase": (["staircase"], None),
    "paper_staircase": (["staircase"], PAPER_TABLE),
    "curve": (["curve", "--vmax", "25", "--points", "200"], None),
}
PAPER_ESTIMATE = {"mean_V": 13.0, "q10_V": 12.3, "q90_V": 13.7}
RNG_FLOOR_CALLS = 2_000
CPU_CHOICE_S = 0.25  # how often a normalised run moves to the fastest CPU

TRACED_FUNCTIONS = (
    "config.parse_config", "device.derive_mechanics", "protocols.calibrate_defaults",
    "electromech.static_equilibrium", "electromech.pull_in_voltage_sweep",
    "electromech.stress_conversion_curve", "electromech.pull_in_voltage_closed_form",
    "damage.accumulate", "damage.degraded_pull_in", "protocols.run_pull_in_detection",
    "protocols.run_fatigue_test", "loading.fatigue_parameters",
    "protocols.build_population", "protocols.run_stair_case",
    "stats.estimator_recovery_trial", "stats.synthetic_stair_case", "stats.dixon_mood",
    "stats.fit_basquin",
)
OUTCOMES = ("failed", "survived", "invalid")


def set_up(workload: str):
    """Import, resolve and prepare one workload; returns it and its phase times.

    Phase times are normalised to the nominal host speed by reference
    kernels timed just before and just after the set-up.
    """
    speed.move_to_fastest_cpu()
    before = speed.reference()
    t0 = time.perf_counter()
    mf = workloads.import_package()
    t1 = time.perf_counter()
    wl = workloads.WORKLOADS[workload](mf)
    wl.resolve()
    t2 = time.perf_counter()
    wl.prepare()
    t3 = time.perf_counter()
    scale = speed.factor(before, speed.reference())
    return wl, {"import_s": (t1 - t0) * scale, "config_s": (t2 - t1) * scale,
                "calibrate_s": (t3 - t2) * scale, "setup_s": (t3 - t0) * scale,
                "raw_setup_s": t3 - t0}


def setup_samples(workload: str) -> list[dict]:
    """Set-up times of fresh processes, run one after another."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--setup-sample"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def dispatch_reference(mf) -> tuple[dict, float, dict | None, list[str]]:
    """Run the reference commands through cli_dispatch into a scratch directory.

    Returns per-command file digests, the total dispatch time in ms, the
    paper stair-case estimate and any non-zero exit codes.
    """
    digests, problems, estimate = {}, [], None
    elapsed = 0.0
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for name, (argv, config) in REFERENCE_COMMANDS.items():
            out = Path(tmp) / name
            if config is not None:
                path = Path(tmp) / f"{name}.json"
                path.write_text(json.dumps(config))
                argv = ["--config", str(path), *argv]
            start = time.perf_counter()
            with redirect_stdout(io.StringIO()):
                code = mf.cli.cli_dispatch(["--out", str(out), *argv])
            elapsed += time.perf_counter() - start
            if code != 0:
                problems.append(f"reference {name}: exit {code}")
                continue
            digests[name] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                             for p in sorted(out.iterdir())}
        summary = Path(tmp) / "paper_staircase" / "staircase_estimate.json"
        if summary.is_file():
            estimate = json.loads(summary.read_text())["estimate"]
    return digests, elapsed * 1e3, estimate, problems


def check_reference(mf) -> tuple[list[str], float]:
    """Reference artifacts against the recorded digests and the paper estimate.

    Returns one failure line per failed reference command, and the dispatch
    time in ms.
    """
    expected = json.loads(REFERENCE.read_text())
    digests, ms, estimate, problems = dispatch_reference(mf)
    for name in digests:
        got, want = digests[name], expected[name]
        changed = sorted(f for f in set(got) | set(want) if got.get(f) != want.get(f))
        if changed:
            problems.append(f"reference {name}: artifacts differ from the record: {changed}")
    if estimate is not None:
        wrong = {key: estimate[key] for key, want in PAPER_ESTIMATE.items()
                 if round(estimate[key], 1) != want}
        if wrong:
            problems.append(f"reference paper_staircase: estimate {wrong} does not round "
                            f"to {PAPER_ESTIMATE}")
    by_command = {}
    for line in problems:
        name = line.split(":", 1)[0]
        by_command[name] = f"{by_command[name]}; {line}" if name in by_command else line
    return list(by_command.values()), ms


def run_ops(wl, next_input, more, failures: list[str], tracer=None, normalise=False):
    """Closed loop over ops; returns op latencies, their speed factors, the
    finish time and the output digest.

    With ``normalise`` the reference kernel is timed between consecutive ops, and
    each op's factor scales its latency to the nominal host speed; otherwise
    every factor is 1. The digest covers the texts of the first DIGEST_OPS
    ops, which every run executes whatever its length, and the workload's
    once-per-run texts.
    """
    latencies, factors, results = [], [], []
    digest = hashlib.sha256()
    ref = speed.move_to_fastest_cpu() if normalise else 0.0
    next_move = time.perf_counter() + CPU_CHOICE_S
    i = 0
    while more(i):
        inp = next_input(i)
        if tracer is not None:
            tracer.op_id = i
        start = time.perf_counter()
        try:
            texts, result = wl.run(inp)
        except Exception as exc:  # a raising op is a failed op, not a failed run
            texts, result = [f"raised {type(exc).__name__}\n"], None
            failures.append(f"op {i}: {type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - start)
        if normalise:
            after = speed.kernel_time()
            factors.append(speed.factor(ref, after))
            ref = after
            if time.perf_counter() >= next_move:
                ref = speed.move_to_fastest_cpu()
                next_move = time.perf_counter() + CPU_CHOICE_S
        else:
            factors.append(1.0)
        if result is not None:
            problems = wl.check(inp, result)
            if problems:
                failures.append(f"op {i}: " + "; ".join(problems))
        if i < DIGEST_OPS:
            for text in texts:
                digest.update(text.encode())
            if result is not None:
                results.append(result)
        i += 1
    if tracer is not None:
        tracer.op_id = -1
    start = time.perf_counter()
    for text in wl.finish(results):
        digest.update(text.encode())
    return latencies, factors, time.perf_counter() - start, digest.hexdigest()


# Observers run after each traced call and count work and waste where it happens.

def _observe_fatigue_run(tracer, args, kwargs, record):
    tracer.count("runs")
    tracer.count("detections", len(record.detections))
    tracer.count(f"outcome.{record.outcome}")


def _observe_accumulate(tracer, args, kwargs, state):
    # accumulate(state, sigma_alt, delta_cycles, params, specimen=SpecimenStrength())
    names = ("state", "sigma_alt_Pa", "delta_cycles", "params", "specimen")
    bound = {**dict(zip(names, args)), **kwargs}
    scale = bound["specimen"].strength_scale if "specimen" in bound else 1.0
    at_or_below = bound["sigma_alt_Pa"] <= scale * bound["params"].endurance_stress_Pa
    tracer.count("accumulate.zero_damage", at_or_below)


def _observe_recovery(tracer, args, kwargs, summary):
    tracer.mark("recovery")
    tracer.count("replications", summary["replications"])
    tracer.count("skipped_replications", summary["skipped_replications"])


def _observe_emit(tracer, args, kwargs, result):
    if isinstance(result, str):
        tracer.count("emit.bytes", len(result.encode()))


OBSERVERS = {
    "protocols.run_fatigue_test": _observe_fatigue_run,
    "damage.accumulate": _observe_accumulate,
    "stats.estimator_recovery_trial": _observe_recovery,
}


def observer_for(name: str):
    return _observe_emit if name.startswith("emit.") else OBSERVERS.get(name)


def rng_seed_floor_us(seed: int) -> float:
    """Cost of seeding one per-replication generator, default_rng((seed, rep))."""
    import numpy as np
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for rep in range(RNG_FLOOR_CALLS):
            np.random.default_rng((seed, rep))
        times.append((time.perf_counter() - start) / RNG_FLOOR_CALLS)
    return statistics.median(times) * 1e6


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, untraced, traced_s, untraced_s, samples, cli_ms, rng_us):
    """Per-layer metrics of a traced pass over the ops timed in ``untraced``."""
    n_ops = len(untraced)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for phase in ("import", "config", "calibrate"):
        put(f"setup.{phase}_s", statistics.median(s[f"{phase}_s"] for s in samples), "s")
    for layer, self_s in tracer.layer_self_seconds().items():
        put(f"{layer}.self_share", self_s / traced_s, "ratio")
    for name in TRACED_FUNCTIONS:
        calls, inclusive_s, _ = tracer.totals[name]
        put(f"{name}.calls", calls / n_ops, "1/op")
        put(f"{name}.us_per_call", _ratio(inclusive_s, calls) * 1e6, "us")
    emit = [t for name, t in tracer.totals.items() if name.startswith("emit.")]
    emit_calls = sum(t[0] for t in emit)
    put("emit.calls", emit_calls / n_ops, "1/op")
    put("emit.us_per_call", _ratio(sum(t[1] for t in emit), emit_calls) * 1e6, "us")
    put("emit.bytes", tracer.counters.get("emit.bytes", 0.0) / n_ops, "B/op")
    put("cli.cli_dispatch.ms", cli_ms, "ms")
    c = tracer.counters
    runs = c.get("runs", 0.0)
    put("protocols.detections_per_run", _ratio(c.get("detections", 0.0), runs), "1/run")
    for outcome in OUTCOMES:
        put(f"protocols.outcome.{outcome}_share", _ratio(c.get(f"outcome.{outcome}", 0.0), runs),
            "ratio")
    put("damage.zero_damage_share",
        _ratio(c.get("accumulate.zero_damage", 0.0), tracer.totals["damage.accumulate"][0]),
        "ratio")
    reps = c.get("replications", 0.0)
    # Untraced time of the ops that ran recovery trials, so the figure is
    # comparable with the seeding floor below.
    recovery_s = sum(untraced[i] for i in tracer.marked_ops.get("recovery", ()))
    put("stats.us_per_replication", _ratio(recovery_s, reps) * 1e6, "us")
    put("stats.skipped_replication_share", _ratio(c.get("skipped_replications", 0.0), reps),
        "ratio")
    put("stats.rng_seed_floor_us", rng_us, "us")
    put("trace.overhead_ratio", untraced_s / traced_s, "ratio")
    return metrics


def latency_summary(latencies) -> dict:
    cuts = statistics.quantiles(latencies, n=10, method="inclusive")
    return {"ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1e3, "op_p90_ms": cuts[8] * 1e3}


def end_to_end_metrics(latencies, samples, failed, attempted):
    """End-to-end metrics; ``latencies`` are already normalised to nominal speed."""
    metrics = {"setup_s": {"value": statistics.median(s["setup_s"] for s in samples),
                           "unit": "s"}}
    for name, value in latency_summary(latencies).items():
        metrics[name] = {"value": value, "unit": "1/s" if name == "ops_per_s" else "ms"}
    metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "unit": "MB"}
    metrics["op_success_rate"] = {"value": 1.0 - failed / attempted, "unit": "ratio"}
    return metrics


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "microfatigue").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _environment() -> dict:
    import numpy
    import scipy
    return {"commit": _commit(), "src_sha256": _src_sha256(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0))}


def traced_run(wl, seed, failures, samples, cli_ms, record) -> tuple[int, str, dict]:
    """The first DIGEST_OPS ops untraced, then traced; returns checks attempted,
    output digest and per-layer metrics."""
    inputs = [wl.make_input(seed, i) for i in range(DIGEST_OPS)]
    more = lambda i: i < len(inputs)  # noqa: E731
    untraced, _, finish_s, plain_digest = run_ops(wl, inputs.__getitem__, more, failures)
    tracer = Tracer()
    tracer.install(observer_for)
    try:
        traced, _, traced_finish_s, digest = run_ops(wl, inputs.__getitem__, more, failures,
                                                     tracer)
    finally:
        tracer.uninstall()
    if digest != plain_digest:
        failures.append("traced run emitted other bytes than the untraced run")
    spans_file = OUT / f"spans-{wl.name}-seed{seed}.jsonl"
    tracer.write_spans(spans_file)
    metrics = per_layer_metrics(tracer, untraced, sum(traced) + traced_finish_s,
                                sum(untraced) + finish_s, samples, cli_ms,
                                rng_seed_floor_us(seed))
    record.update(ops=len(inputs), spans=str(spans_file.relative_to(ROOT)),
                  spans_recorded=len(tracer.spans), counters=tracer.counters,
                  calls={name: t[0] for name, t in sorted(tracer.totals.items())})
    return len(untraced) + len(traced) + 1, digest, metrics


def timed_run(wl, seed, seconds, failures, record) -> tuple[int, str, list[float]]:
    """Ops for ``seconds`` (at least DIGEST_OPS); returns ops attempted, output
    digest and latencies normalised to the nominal host speed."""
    deadline = time.perf_counter() + seconds
    more = lambda i: i < DIGEST_OPS or time.perf_counter() < deadline  # noqa: E731
    raw, factors, _, digest = run_ops(wl, lambda i: wl.make_input(seed, i), more, failures,
                                      normalise=True)
    record.update(ops=len(raw), raw=latency_summary(raw),
                  speed_factor_median=statistics.median(factors))
    return len(raw), digest, [t * f for t, f in zip(raw, factors)]


def measure(args) -> tuple[dict, dict]:
    samples = setup_samples(args.workload)
    wl, _ = set_up(args.workload)
    # The campaign's level-transition warnings would otherwise reach stderr
    # through logging's last-resort handler on every op.
    import logging
    logging.getLogger("microfatigue").addHandler(logging.NullHandler())

    failures, cli_ms = check_reference(wl.mf)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        attempted, digest, metrics = traced_run(wl, args.seed, failures, samples, cli_ms,
                                                record)
    else:
        attempted, digest, latencies = timed_run(wl, args.seed, args.seconds, failures,
                                                 record)
    attempted += len(REFERENCE_COMMANDS)
    failed = len(failures)
    if not args.trace:
        metrics = end_to_end_metrics(latencies, samples, failed, attempted)
    record.update(ops_digested=DIGEST_OPS, output_sha256=digest,
                  op_error_rate=failed / attempted, failures=failures[:10],
                  setup_samples=samples, reference_ms=cli_ms, **_environment())
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return record, result


def record_reference() -> None:
    """Re-record the reference artifact digests after a deliberate output change."""
    wl, _ = set_up("staircase")
    digests, _, _, problems = dispatch_reference(wl.mf)
    if problems:
        raise SystemExit("; ".join(problems))
    REFERENCE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite bench/reference.json from the current code")
    args = parser.parse_args(argv)
    if not (SRC / "microfatigue" / "__init__.py").is_file():
        print(f"benchmark: no microfatigue sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None and not args.record_reference:
        parser.error("--workload is required")
    # One thread per workload process; the seed comes from --seed only.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("MICROFATIGUE_SEED", None)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    if args.record_reference:
        record_reference()
        return 0
    if args.setup_sample:
        _, times = set_up(args.workload)
        print(json.dumps(times))
        return 0
    record, result = measure(args)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"run-{name}.json").write_text(json.dumps({"run": record, "result": result},
                                                     indent=2) + "\n")
    print(json.dumps({"run": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

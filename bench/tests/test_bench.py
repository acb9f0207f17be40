"""Reproducibility and contract checks of the benchmark itself.

These run the benchmark as a subprocess and take a couple of minutes, so
they live outside the package's test suite:

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ["bench/run_bench.py"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, seed, trace, seconds=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, *RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["run"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_bytes_and_counts(workload):
    (first, result), (second, _) = (parse(run_bench(workload, 7, trace=1)) for _ in range(2))
    assert result["correct"] and result["failed"] == 0
    assert first["output_sha256"] == second["output_sha256"]
    assert first["counters"] == second["counters"]
    assert first["calls"] == second["calls"]
    per_op = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}
    assert any(per_op.values())
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_untraced_run_digests_the_traced_ops():
    traced, _ = parse(run_bench("staircase", 11, trace=1))
    plain, result = parse(run_bench("staircase", 11, trace=0))
    assert plain["output_sha256"] == traced["output_sha256"]
    assert result["correct"] and result["attempted"] > plain["ops"] >= 200
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    for key in ("commit", "python", "numpy", "scipy", "nproc", "seed", "ops"):
        assert key in plain


def test_other_seed_gives_other_inputs():
    a, _ = parse(run_bench("characterise", 1, trace=1))
    b, _ = parse(run_bench("characterise", 2, trace=1))
    assert a["output_sha256"] != b["output_sha256"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("staircase", 1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

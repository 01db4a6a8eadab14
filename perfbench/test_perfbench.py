"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``.

They run the benchmark in a child process from the repository root, as a
user would, so its fresh imports and patched modules stay out of the test
process.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402


def _bench(*args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


def test_smoke_mode_passes_every_oracle_and_coverage_check():
    proc = _bench("--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(", ok") == 4


def test_benchmark_json_names_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        tracing.per_layer_spec()
    )
    import workloads

    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_result_line_carries_exactly_the_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _bench("--workload", "cli-corpus", "--seed", "3", "--seconds", "0.5",
                      "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0
        assert list(line["metrics"]) == [m["name"] for m in spec[key]]


def test_same_seed_gives_the_same_inputs():
    import random

    from workloads import Grid

    a, b = Grid(random.Random(5), 12, 2), Grid(random.Random(5), 12, 2)
    assert a.complex_lines() == b.complex_lines()
    assert Grid(random.Random(6), 12, 2).complex_lines() != a.complex_lines()

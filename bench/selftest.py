"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

    python3 bench/selftest.py

For every workload in workloads.py, untraced and traced, it checks that the
result line has exactly the contract keys and that every declared metric is
printed, under a valid name, with its declared unit and a finite value.  It
then injects one wrong expected value and checks that the failure count
rises, and runs the benchmark from a directory without the package to check
that it exits non-zero without printing a result.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_result(result, declared, label):
    assert set(result) == RESULT_KEYS, f"{label}: keys {sorted(result)}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    assert isinstance(result["failed"], int), label
    metrics = result["metrics"]
    assert set(metrics) == set(declared), (
        f"{label}: missing {sorted(set(declared) - set(metrics))}, "
        f"undeclared {sorted(set(metrics) - set(declared))}")
    for name, entry in metrics.items():
        assert NAME.match(name), f"{label}: bad metric name {name!r}"
        assert entry["unit"] == declared[name], f"{label}: {name} unit {entry['unit']!r}"
        value = entry["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), f"{label}: {name}"


def check_without_package():
    """Run from a copy holding only BENCHMARK.json and bench/: must fail cleanly."""
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=run.ROOT) as bare:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "sweep-grid", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0, "run without the package exited 0"
    assert '"metrics"' not in proc.stdout, "run without the package printed a result"


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    run.import_package()
    import workloads
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result, _ = run.run(workload, 1, 0, trace, smoke=True)
            check_result(result, declared[trace], f"{workload} trace={int(trace)}")
            if not trace:
                clean = result["failed"]
        injected, _ = run.run(workload, 1, 0, False, smoke=True, inject=True)
        assert injected["failed"] > clean, (
            f"{workload}: an injected wrong expected value left failed at {clean}")
        print(f"ok {workload}: {injected['attempted']} ops, {clean} failed clean, "
              f"{injected['failed']} with one wrong expected value", flush=True)
    check_without_package()
    print("ok run without the package exits non-zero")


if __name__ == "__main__":
    main()

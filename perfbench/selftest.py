#!/usr/bin/env python3
"""Self-test of the benchmark, on a few ops per workload.

    python3 perfbench/selftest.py

Checks, for every workload:

* the untraced run prints exactly the end-to-end metrics of
  ``BENCHMARK.json`` with their units, and every output check passes;
* the traced run prints exactly the per-layer metrics, its traced and
  untraced passes produce identical output digests, and every span that
  ``tracing.SPANS`` assigns to the workload fires at least once;

and that the benchmark exits non-zero, printing no result, in a tree that
holds only ``BENCHMARK.json`` and ``perfbench/``.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Ops per workload: enough for every mapped span to fire (ideal needs one
# face-poset input and one theta sample).
SMOKE_OPS = {"batch": 1, "dense": 1, "ideal": 2, "roundtrip": 1}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures = []


def check(condition, message):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def run(workload, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--trace", str(trace), "--seconds", "0", "--ops", str(SMOKE_OPS[workload])]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    check(proc.returncode == 0, f"{workload} trace={trace}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def check_schema(workload, trace, result, expected):
    where = f"{workload} trace={trace}"
    check(set(result) == RESULT_KEYS, f"{where}: result keys")
    check(result.get("correct") is True and result.get("failed") == 0, f"{where}: outputs correct")
    check(isinstance(result.get("attempted"), int) and result["attempted"] >= 1, f"{where}: attempted >= 1")
    metrics = result.get("metrics", {})
    check(set(metrics) == set(expected), f"{where}: metric names match BENCHMARK.json")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        ok = set(entry) == {"value", "unit"} and entry["unit"] == unit and isinstance(entry["value"], (int, float))
        if not ok:
            check(False, f"{where}: {name} has value and unit {unit}")
    return metrics


def main():
    sys.path.insert(0, str(HERE))
    from tracing import SPANS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check([w["name"] for w in spec["workloads"]] == list(SMOKE_OPS), "workloads match BENCHMARK.json")

    for workload in SMOKE_OPS:
        metrics = check_schema(workload, 0, run(workload, 0), end_to_end)
        check(all(m["value"] > 0 for m in metrics.values()), f"{workload}: end-to-end metrics are nonzero")
        metrics = check_schema(workload, 1, run(workload, 1), per_layer)
        details = json.loads((HERE / "out" / f"{workload}-seed1-trace1.json").read_text())
        check(details.get("digests_equal") is True, f"{workload}: traced and untraced digests equal")
        for span, (_, workloads) in SPANS.items():
            if workload in workloads:
                calls = metrics.get(f"{span}.calls", {}).get("value", 0)
                check(calls > 0, f"{workload}: span {span} fired ({calls} calls)")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "batch", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and not proc.stdout.strip(), "bare tree: non-zero exit and no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

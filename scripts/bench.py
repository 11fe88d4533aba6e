#!/usr/bin/env python3
"""Compare the benchmark of a commit with that of its parent, in
alternating pairs, and write the result to ``BENCH_<short-sha>.json``
(``BENCH_<short-sha>-seed<S>.json`` for a seed other than 1).

    python3 scripts/bench.py --parent HEAD~1 --workloads roundtrip,ideal --pairs 10
    python3 scripts/bench.py --parent HEAD~1 --workloads batch --seed 977

``HEAD`` and the parent revision are extracted with ``git archive`` into a
temporary directory, so only committed files are measured.  Each pair runs
``perfbench/run.py --seed S --seconds 15 --trace 0`` once on each tree (S is
``--seed``, default 1; 977 is the benchmark's holdout seed), the
parent first in odd pairs and the change first in even ones, and reads the
last JSON line of each run.  The file holds, for each workload and each
end-to-end metric of ``BENCHMARK.json``: the values of every pair, the
parent and change medians, the parent's interquartile range, the bound and
a verdict, together with the Python and numpy versions and the CPU count.

A verdict is ``unresolved`` when the parent's interquartile range is wider
than the bound, a fraction of the parent's median, unless every run of the
change reads better than every run of the parent.  Otherwise it is
``better`` when the change wins at least nine pairs in ten and its median
beats the parent's by more than the parent's interquartile range, ``worse``
when its median is worse than the parent's by more than the bound, and
``within bound`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]
SEED, SECONDS = 1, 15


def iqr(values) -> float:
    """Distance between the first and third quartiles, interpolated between
    the sorted values as a spreadsheet's QUARTILE does; 0 for one value."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(parent, change, better: str, bound: float) -> str:
    """``unresolved``, ``better``, ``worse`` or ``within bound`` for the
    per-pair values of one metric, ``better`` being ``"higher"`` or
    ``"lower"``."""
    sign = 1 if better == "higher" else -1
    p, c, spread = median(parent), median(change), iqr(parent)
    every_run_better = min(sign * y for y in change) > max(sign * x for x in parent)
    if spread > bound * abs(p) and not every_run_better:
        return "unresolved"
    wins = sum(sign * (y - x) > 0 for x, y in zip(parent, change))
    if sign * (c - p) > spread and 10 * wins >= 9 * len(parent):
        return "better"
    if sign * (p - c) > bound * abs(p):
        return "worse"
    return "within bound"


def summarise(runs: list, metrics: list) -> dict:
    """The summary of ``runs``, a list of ``(parent, change)`` result lines
    of one workload, one per pair: whether every run was correct, and one
    entry per metric of ``metrics``, the ``end_to_end`` list of
    ``BENCHMARK.json``."""
    out = {}
    for spec in metrics:
        name = spec["name"]
        parent = [p["metrics"][name]["value"] for p, _ in runs]
        change = [c["metrics"][name]["value"] for _, c in runs]
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent": parent,
            "change": change,
            "parent_median": median(parent),
            "change_median": median(change),
            "parent_iqr": iqr(parent),
            "verdict": verdict(parent, change, spec["better"], spec["bound"]),
        }
    return {"correct": all(p["correct"] and c["correct"] for p, c in runs), "metrics": out}


def host() -> dict:
    return {"python": platform.python_version(), "numpy": version("numpy"), "cpu_count": os.cpu_count()}


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def extract(rev: str, into: Path) -> Path:
    into.mkdir()
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {rev} failed")
    return into


def result_name(sha: str, seed: int) -> str:
    """The file name of a result: the seed is named unless it is the
    default, so a holdout run never overwrites the default seed's record."""
    return f"BENCH_{sha}.json" if seed == SEED else f"BENCH_{sha}-seed{seed}.json"


def run(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the revision to compare against")
    ap.add_argument("--workloads", help="comma-separated workloads (default: all of BENCHMARK.json)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=SEED, help=f"the workloads' seed (default {SEED})")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    revs = {"parent": args.parent, "change": "HEAD"}
    shas = {side: git("rev-parse", "--short", rev) for side, rev in revs.items()}
    runs = {w: [] for w in workloads}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: extract(rev, Path(tmp) / side) for side, rev in revs.items()}
        for k in range(1, args.pairs + 1):
            sides = ("parent", "change") if k % 2 else ("change", "parent")
            for w in workloads:
                got = {side: run(trees[side], w, args.seed) for side in sides}
                runs[w].append((got["parent"], got["change"]))
                print(f"pair {k} {w}: " + ", ".join(
                    f"{side} {got[side]['metrics']['ops_per_s']['value']:.1f} ops/s" for side in sides), file=sys.stderr)
    result = {
        "parent": {"rev": args.parent, "sha": shas["parent"]},
        "change": {"rev": "HEAD", "sha": shas["change"]},
        "seed": args.seed,
        "seconds": SECONDS,
        "pairs": args.pairs,
        "host": host(),
        "workloads": {w: summarise(runs[w], spec["end_to_end"]) for w in workloads},
    }
    path = ROOT / result_name(shas["change"], args.seed)
    path.write_text(json.dumps(result, indent=2) + "\n")
    for w, summary in result["workloads"].items():
        for name, m in summary["metrics"].items():
            print(f"{w} {name}: {m['parent_median']:.4g} -> {m['change_median']:.4g} "
                  f"[parent IQR {m['parent_iqr']:.3g}] {m['verdict']}")
        if not summary["correct"]:
            print(f"{w}: a run reported a wrong output")
    print(path)


if __name__ == "__main__":
    main()

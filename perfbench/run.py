#!/usr/bin/env python3
"""Benchmark of the simposets library, run from the root of a source tree.

    python3 perfbench/run.py --workload batch --seed 1 --seconds 15 --trace 0

One process runs one workload as a closed loop: a single caller on one
thread issues the next op when the previous one returns.  A timed run has
a fixed number of ops, ``--seconds`` times the workload's baseline rate,
so every commit is measured on the same ops.  Each op's output
is checked outside its timed interval; a raise or a failed check counts as
a failed op.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed
list of ops twice, untraced and with the span wrappers of ``tracing.py``
installed, and prints the per-layer metrics; both runs of an op must
produce identical output digests.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Full results, spans and unscaled times included, go to ``perfbench/out/``.

Times are reported at the speed of the baseline machine.  Between ops,
outside the timed intervals, a fixed reference kernel is timed; each wall
time is multiplied by (baseline reference time / current reference time).
On a shared 2-core host the CPU was seen to slow by up to half for minutes
at a time; the rescaling removes most of that drift from the comparison of
runs.

Exit status is 2, with no result line, when the library sources are not
next to the benchmark.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

# One caller on one thread, BLAS included.  With two BLAS threads on a
# shared 2-core host, the float32 products slow several times more than the
# rest of the code whenever another process takes a core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings, which numpy reads on import)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Set-up runs at least SETUP_REPEATS times and until SETUP_MIN_S of wall
# time, at most SETUP_MAX_REPEATS times; setup_s is the median.
SETUP_REPEATS, SETUP_MIN_S, SETUP_MAX_REPEATS = 3, 1.0, 40
MIN_OPS = 20  # so that the tail percentile has at least 10 ops beyond it
TAIL_BEYOND = 10
# A timed run that is still going after this much wall time stops at the
# end of the round, so that the process ends within its time limit even on
# a machine several times slower than the baseline.  The results file then
# records "capped": true, and the ops measured differ from a full run's.
MAX_LOOP_S = 120.0

# Best of three runs of reference() on the baseline machine (2-core x86-64
# container, Python 3.11, numpy 2.4), idle.
REFERENCE_S = 0.00270
CALIBRATE_EVERY_S = 0.25

_REFERENCE_MATRIX = np.arange(96 * 96).reshape(96, 96) % 3 == 0


def reference():
    """Fixed work in the library's mix: dicts, tuples, sorting, frozensets
    and small float32 products."""
    table = {}
    for i in range(3000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + (i * i) % 7
    items = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    masks = {frozenset(key) for key, _ in items[:500]}
    leq = _REFERENCE_MATRIX
    for _ in range(3):
        f = leq.astype(np.float32)
        leq = (f @ f) > 0
    return len(masks) + int(leq.sum())


class MachineSpeed:
    """Speed of this machine relative to the baseline, re-measured at most
    every CALIBRATE_EVERY_S."""

    def __init__(self):
        self.factor = 1.0
        self.samples = []
        self._last = None

    def update(self, force=False):
        if force or self._last is None or perf_counter() - self._last >= CALIBRATE_EVERY_S:
            best = float("inf")
            for _ in range(3):
                start = perf_counter()
                reference()
                best = min(best, perf_counter() - start)
            self.factor = REFERENCE_S / best
            self.samples.append(self.factor)
            self._last = perf_counter()
        return self.factor


def parse_args(argv, workloads, default_seed, holdout_seed):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=default_seed,
                        help=f"input seed (default {default_seed}; {holdout_seed} is the holdout seed, "
                             "not to be used while tuning a change)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="op time to measure with --trace 0, at the speed of the baseline machine; "
                             "sets the op count of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="stop after this many ops (quick checks only)")
    return parser.parse_args(argv)


def fresh_import():
    """Import simposets from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "simposets" or m.startswith("simposets.")]:
        del sys.modules[name]
    sp = importlib.import_module("simposets")
    importlib.import_module("simposets.cli")
    return sp


def timed_setup(workload, seed, speed):
    """Import plus input generation and serialisation, repeated; the last
    plan is used.  The input seeds are chosen once beforehand, untimed, as
    that choice is the benchmark's own work.  Returns rescaled and wall times."""
    chosen = workload.choose(fresh_import(), seed)
    times, raw = [], []
    while len(raw) < SETUP_REPEATS or (sum(raw) < SETUP_MIN_S and len(raw) < SETUP_MAX_REPEATS):
        factor = speed.update(force=True)
        gc.collect()
        start = perf_counter()
        sp = fresh_import()
        plan = workload.build(sp, chosen)
        raw.append(perf_counter() - start)
        times.append(raw[-1] * factor)
    return plan, times, raw


class Runner:
    def __init__(self, speed):
        self.speed = speed
        self.times = []  # rescaled to the baseline machine
        self.raw = []  # wall time
        self.factors = []
        self.digests = []
        self.shapes = []
        self.failed = 0
        self.errors = []

    def run(self, job, tracer=None, op=None):
        """Time one op, then check it; returns the op's rescaled duration."""
        factor = self.speed.update()
        # Start every op with no garbage left by the previous one, so that
        # its collections depend only on its own allocations.
        gc.collect()
        if tracer is not None:
            tracer.op, tracer.active = op, True
        start = perf_counter()
        try:
            out = job.run()
        except Exception as exc:  # a raising op is a failed op
            out, error = None, exc
        else:
            error = None
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.active = False
        if error is None:
            try:
                text = job.check(out)
            except Exception as exc:  # a wrong output is a failed op
                error = exc
        self.raw.append(elapsed)
        self.times.append(elapsed * factor)
        self.factors.append(factor)
        self.shapes += job.shapes
        if error is None:
            self.digests.append(hashlib.sha256(text.encode()).hexdigest())
        else:
            self.failed += 1
            self.digests.append(None)
            self.errors.append(f"{type(error).__name__}: {error}")
        return self.times[-1]


def tail(times):
    """The slowest op with at least TAIL_BEYOND ops beyond it, and its
    percentile; the slowest op when there are too few ops for that."""
    ordered = sorted(times)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * k / len(ordered)


def op_count(plan, workload, args):
    """Ops in a timed run: whole rounds worth ``args.seconds`` at the
    baseline rate, so the count does not depend on the code's speed."""
    if args.ops is not None:
        return max(args.ops, 1)
    rounds = math.ceil(args.seconds * workload.baseline_ops_per_s / plan.cycle)
    return max(rounds * plan.cycle, math.ceil(MIN_OPS / plan.cycle) * plan.cycle)


def end_to_end(plan, count, speed):
    """Closed loop of ``count`` ops after one warm-up op.  Returns the
    runner and whether MAX_LOOP_S cut the run short."""
    warm = Runner(speed)
    warm.run(plan.job(0))
    runner = Runner(speed)
    loop_start = perf_counter()
    capped = False
    for i in range(count):
        runner.run(plan.job(i))
        if (i + 1) % plan.cycle == 0 and perf_counter() - loop_start > MAX_LOOP_S:
            capped = i + 1 < count
            break
    runner.failed += warm.failed
    runner.errors = warm.errors + runner.errors
    return runner, capped


def traced(plan, args, speed):
    """Run a fixed op list untraced and traced, op by op, alternating which
    goes first.  Returns the traced runner, the untraced one and the tracer."""
    from tracing import Tracer

    count = plan.trace_ops if args.ops is None else min(args.ops, plan.trace_ops)
    tracer = Tracer()
    plain, runner = Runner(speed), Runner(speed)
    for op in range(count):
        job = plan.job(op)
        for traced_turn in ((False, True) if op % 2 == 0 else (True, False)):
            if not traced_turn:
                plain.run(job)
                continue
            tracer.install()
            try:
                runner.run(job, tracer, op)
            finally:
                tracer.uninstall()
    return runner, plain, tracer


def main(argv=None):
    if not (ROOT / "src" / "simposets" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: simposets sources not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    from tracing import per_layer_names
    from workloads import CENSUS_UNITS, DEFAULT_SEED, HOLDOUT_SEED, WORKLOADS, census

    args = parse_args(argv, WORKLOADS, DEFAULT_SEED, HOLDOUT_SEED)
    speed = MachineSpeed()
    workload = WORKLOADS[args.workload]
    plan, setup_times, setup_raw = timed_setup(workload, args.seed, speed)

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_s_each": setup_times, "setup_wall_s_each": setup_raw}
    notes = {}
    OUT.mkdir(exist_ok=True)
    if args.trace == 0:
        runner, capped = end_to_end(plan, op_count(plan, workload, args), speed)
        attempted = len(runner.times) + 1  # the warm-up op is checked too
        completed = len(runner.times) - sum(d is None for d in runner.digests)
        tail_s, tail_pct = tail(runner.times)
        metrics = {
            "ops_per_s": (completed / sum(runner.times), "1/s"),
            "op_p50_ms": (statistics.median(runner.times) * 1e3, "ms"),
            "op_tail_ms": (tail_s * 1e3, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_ratio": ((attempted - runner.failed) / attempted, "ratio"),
        }
        fail_ratio = runner.failed / attempted
        correct = runner.failed == 0
        result.update(
            tail_percentile=tail_pct, timed_ops=len(runner.times), capped=capped, fail_ratio=fail_ratio,
            wall_op_p50_ms=statistics.median(runner.raw) * 1e3, wall_op_tail_ms=tail(runner.raw)[0] * 1e3,
            machine_speed=statistics.median(runner.factors), census=census(runner.shapes),
        )
        notes = {"ops_per_s": f"{completed} ops in {sum(runner.times):.6g} s" + ("; capped" if capped else ""),
                 "op_p50_ms": f"wall {result['wall_op_p50_ms']:.6g} ms",
                 "op_tail_ms": f"p{tail_pct:.1f} of {len(runner.times)} ops; wall {result['wall_op_tail_ms']:.6g} ms",
                 "setup_s": f"median of {len(setup_raw)}; wall {statistics.median(setup_raw):.6g} s",
                 "ok_ratio": f"fail_ratio {fail_ratio:.4g} ({runner.failed}/{attempted})"}
    else:
        runner, plain, tracer = traced(plan, args, speed)
        runner.failed += plain.failed
        runner.errors = plain.errors + runner.errors
        attempted = len(runner.times) + len(plain.times)
        same = runner.digests == plain.digests
        if not same:
            runner.errors.append("traced and untraced outputs differ")
        correct = runner.failed == 0 and same
        units = per_layer_names()
        layer = tracer.metrics(runner.factors)
        layer["trace.overhead_ratio"] = sum(runner.raw) / sum(plain.raw)
        layer["trace.ops"] = len(runner.times)
        units.update({"trace.overhead_ratio": "ratio", "trace.ops": "count"})
        layer.update(census(runner.shapes))
        units.update(CENSUS_UNITS)
        metrics = {name: (layer[name], units[name]) for name in units}
        spans = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.write(spans)
        result.update(spans_file=str(spans.relative_to(ROOT)), digests_equal=same)
    metrics_json = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    result.update(correct=correct, attempted=attempted, failed=runner.failed,
                  errors=runner.errors[:20], metrics=metrics_json)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {attempted}  failed {runner.failed}  "
          f"machine speed {statistics.median(speed.samples):.3f} of baseline")
    for error in runner.errors[:5]:
        print(f"  failure: {error}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<40} {value:>14.6g} {unit}{note}")
    for name, value in result.get("census", {}).items():
        print(f"  {name:<40} {value:>14.6g}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": runner.failed, "metrics": metrics_json}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The pure summary functions of ``scripts/bench.py`` on fixed inputs; the
benchmark itself is not run here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)

PARENT = [100.0, 104.0, 96.0, 101.0, 99.0, 103.0, 97.0, 100.0, 102.0, 98.0]


def test_iqr():
    assert bench.iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.0
    assert bench.iqr(PARENT) == pytest.approx(101.75 - 98.25)
    assert bench.iqr([7.0]) == 0.0


@pytest.mark.parametrize(
    "change, better, bound, expected",
    [
        ([x * 1.2 for x in PARENT], "higher", 0.2, "better"),
        ([x * 1.2 for x in PARENT], "lower", 0.1, "worse"),
        ([x * 1.2 for x in PARENT], "lower", 0.25, "within bound"),
        ([x * 0.8 for x in PARENT], "lower", 0.2, "better"),
        ([x * 0.7 for x in PARENT], "higher", 0.2, "worse"),
        (PARENT, "higher", 0.2, "within bound"),
        # a median past the parent's IQR but only 8 pairs in 10 won
        ([x * 1.2 for x in PARENT[:8]] + [90.0, 90.0], "higher", 0.2, "within bound"),
        # 9 pairs in 10 won, by less than the parent's IQR
        ([x + 1 for x in PARENT[:9]] + [0.0], "higher", 0.2, "within bound"),
        # the parent's IQR, 3.5, is wider than a bound of 0.01 of its median
        (PARENT, "higher", 0.01, "unresolved"),
        ([x * 0.7 for x in PARENT], "higher", 0.01, "unresolved"),
        ([x * 1.01 for x in PARENT], "higher", 0.01, "unresolved"),
        # ... unless every run of the change reads better than every parent run
        ([x + 10 for x in PARENT], "higher", 0.01, "better"),
        ([x - 10 for x in PARENT], "lower", 0.01, "better"),
    ],
)
def test_verdict(change, better, bound, expected):
    assert bench.verdict(PARENT, change, better, bound) == expected


def line(value, correct=True):
    return {"correct": correct, "metrics": {"ops_per_s": {"value": value, "unit": "1/s"},
                                            "setup_s": {"value": 0.1, "unit": "s"}}}


def test_summarise_writes_one_entry_per_metric():
    metrics = [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]
    runs = [(line(p), line(p * 1.2)) for p in PARENT]
    out = bench.summarise(runs, metrics)
    assert out["correct"] is True
    assert list(out["metrics"]) == ["ops_per_s", "setup_s"]
    ops = out["metrics"]["ops_per_s"]
    assert ops["parent"] == PARENT and ops["change"] == [p * 1.2 for p in PARENT]
    assert ops["parent_median"] == 100.0 and ops["change_median"] == pytest.approx(120.0)
    assert ops["parent_iqr"] == pytest.approx(3.5)
    assert (ops["unit"], ops["better"], ops["bound"], ops["verdict"]) == ("1/s", "higher", 0.2, "better")
    assert out["metrics"]["setup_s"]["verdict"] == "within bound"
    json.dumps(out)  # the file is plain JSON
    runs[3] = (line(100.0), line(120.0, correct=False))
    assert bench.summarise(runs, metrics)["correct"] is False


def test_host_names_python_numpy_and_the_cpu_count():
    facts = bench.host()
    assert set(facts) == {"python", "numpy", "cpu_count"}
    assert all(facts.values())


def test_the_result_file_names_a_seed_other_than_the_default():
    assert bench.result_name("abc1234", 1) == "BENCH_abc1234.json"
    assert bench.result_name("abc1234", 977) == "BENCH_abc1234-seed977.json"
    assert bench.result_name("abc1234", 0) == "BENCH_abc1234-seed0.json"

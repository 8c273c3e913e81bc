"""The decision of ``benchmarks/compare.py`` on synthetic run records.

Each record has the shape of ``benchmarks/suite/run.py``'s final JSON
line; the script's gate is the ``compare`` function tested here.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "compare", ROOT / "benchmarks" / "compare.py"
)
compare_script = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_script)

SPEC = {
    "workloads": [{"name": "echo"}, {"name": "bulk"}],
    "end_to_end": [
        {"name": "calls_per_s", "better": "higher", "bound": 0.25},
        {"name": "p50_us", "better": "lower", "bound": 0.02},
    ],
}


def record(calls_per_s=100.0, p50_us=40.0, correct=True, failed=0):
    """A run in which both workloads read the given values."""
    metrics = {}
    for workload in ("echo", "bulk"):
        metrics[f"{workload}/calls_per_s"] = {"value": calls_per_s, "unit": "calls/s"}
        metrics[f"{workload}/p50_us"] = {"value": p50_us, "unit": "us"}
    return {"correct": correct, "attempted": 1000, "failed": failed, "metrics": metrics}


def problems(head_runs, base_runs=None):
    base_runs = base_runs or [record()] * 3
    return compare_script.compare(SPEC, base_runs, head_runs)[1]


@pytest.mark.parametrize(
    "worse", [{"calls_per_s": 70.0}, {"p50_us": 41.0}], ids=["higher", "lower"]
)
def test_a_median_worse_than_the_bound_fails(worse):
    found = problems([record(**worse)] * 3)
    assert len(found) == 2  # one per workload
    assert all("worse than the base's" in problem for problem in found)


@pytest.mark.parametrize(
    "head",
    [
        {"calls_per_s": 80.0, "p50_us": 40.7},  # within both bounds
        {"calls_per_s": 200.0, "p50_us": 30.0},  # better on both
    ],
    ids=["within", "improved"],
)
def test_a_median_within_the_bound_or_better_passes(head):
    assert problems([record(**head)] * 3) == []


def test_the_median_decides_not_one_run():
    assert problems([record(calls_per_s=10.0), record(), record()]) == []
    assert problems([record(calls_per_s=10.0)] * 2 + [record()]) != []


def test_a_head_run_that_is_not_correct_fails():
    found = problems([record(), record(correct=False), record()])
    assert found == ["1 of 3 head runs were not correct"]


def test_a_head_run_without_a_result_fails():
    found = problems([record(), compare_script.NO_RESULT, record()])
    assert "1 of 3 head runs were not correct" in found


def test_a_larger_failed_share_fails():
    found = problems([record(), record(failed=1), record()])
    assert len(found) == 1 and "failed" in found[0]
    # the same share as the base passes
    base = [record(failed=1), record(), record()]
    assert problems([record(), record(failed=1), record()], base) == []


def test_the_report_names_every_workload_and_metric():
    lines, _ = compare_script.compare(SPEC, [record()] * 3, [record()] * 3)
    assert [line.split()[:2] for line in lines] == [
        ["echo", "calls_per_s"], ["echo", "p50_us"],
        ["bulk", "calls_per_s"], ["bulk", "p50_us"],
    ]


def test_a_base_that_cannot_be_extracted_exits_2(capsys):
    assert compare_script.main(["no-such-ref-for-compare"]) == 2
    assert "cannot extract" in capsys.readouterr().err

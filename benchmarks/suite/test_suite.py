"""Self-test of the benchmark at a tiny scale: ``pytest benchmarks/suite``.

Outside the tier-1 ``testpaths``; each run below takes a few seconds.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TINY = ["--seconds", "0.2", "--scale", "0.03"]


def run(tmp_path: Path, *args: str) -> tuple:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--out", str(tmp_path), *TINY, *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = [line.split(" ") for line in lines[:-1]]
    return result, printed


@pytest.fixture(scope="module")
def plain_seed1(tmp_path_factory):
    return run(tmp_path_factory.mktemp("seed1"), "--seed", "1")


def sim_values(result: dict) -> dict:
    return {
        key: entry["value"] for key, entry in result["metrics"].items()
        if key.split("/")[-1].startswith("sim_")
    }


def test_spec_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/suite"]
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_names_and_units_match_the_spec(plain_seed1, tmp_path, trace):
    result, printed = plain_seed1 if trace == "0" else run(tmp_path, "--seed", "1", "--trace")
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        reported = {
            key.split("/")[1]: entry for key, entry in result["metrics"].items()
            if key.split("/")[0] == workload
        }
        assert {name: entry["unit"] for name, entry in reported.items()} == units
        lines = {metric: unit for name, metric, _, unit in printed if name == workload}
        assert all(NAME.fullmatch(metric) for metric in lines)
        assert {metric: lines[metric] for metric in units} == units


def test_one_seed_gives_identical_simulated_results(plain_seed1, tmp_path):
    again, _ = run(tmp_path, "--seed", "1")
    assert sim_values(again) == sim_values(plain_seed1[0])


def test_another_seed_changes_inputs_not_schema(plain_seed1, tmp_path):
    other, _ = run(tmp_path, "--seed", "2")
    first = sim_values(plain_seed1[0])
    second = sim_values(other)
    assert second.keys() == first.keys()
    assert set(other["metrics"]) == set(plain_seed1[0]["metrics"])
    for workload in (w["name"] for w in SPEC["workloads"]):
        key = f"{workload}/sim_p50_us"
        assert first[key] != second[key], key

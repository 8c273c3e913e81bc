"""Smoke tests for the experiment harness modules and CLI plumbing.

The Fig. 7 and Fig. 8 single points also compare their result, float
for float, with a committed fixture (``fixtures/golden_fig7_point.json``,
``golden_fig8_point.json``).
"""

import json
from pathlib import Path

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.report import gain, reduction, render_series, render_table

FIXTURES = Path(__file__).parent / "fixtures"


def golden(name: str):
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def test_registry_covers_all_tables_and_figures():
    assert set(ALL_EXPERIMENTS) == {
        "table1", "fig1", "fig3", "fig5", "fig6", "fig7", "fig8", "chaos",
        "incast", "qos", "operator", "failover", "campaign", "crossover",
    }
    for module in ALL_EXPERIMENTS.values():
        assert callable(module.run)
        assert callable(module.format_result)


def test_render_table_alignment():
    out = render_table(["a", "bb"], [[1, 2.5], ["xx", "y"]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("a")
    assert "2.50" in out


def test_render_series_merges_x():
    out = render_series("t", {"l1": {1: 10}, "l2": {2: 20}})
    assert "t" in out
    assert "10" in out and "20" in out


def test_gain_and_reduction():
    assert gain(120, 100) == pytest.approx(0.2)
    assert reduction(50, 100) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        gain(1, 0)
    with pytest.raises(ValueError):
        reduction(1, 0)


def test_fig5_run_small():
    from repro.experiments import fig5_micro

    result = fig5_micro.run(
        payload_sizes=[1, 1024], client_counts=[16], iterations=8, ops_per_client=15
    )
    text = fig5_micro.format_result(result)
    assert "RPCoIB" in text
    assert result["latency_1b_us"] < result["latency_4kb_us"]


def test_fig3_locality_small():
    from repro.experiments import fig3_size_locality

    result = fig3_size_locality.run(slaves=2, data_mb=128)
    for label in ("JT_heartbeat", "TT_statusUpdate", "NN_getFileInfo"):
        assert label in result["traces"]
    text = fig3_size_locality.format_result(result)
    assert "locality" in text


def test_fig1_ratio_orders_networks_small():
    from repro.experiments.fig1_alloc_ratio import measure_ratio

    ipoib = measure_ratio("ipoib", 1024 * 1024, iterations=4)
    gige = measure_ratio("1gige", 1024 * 1024, iterations=4)
    assert 0 < gige < ipoib < 1


def test_table1_small_run_has_expected_rows():
    from repro.experiments import table1

    result = table1.run(slaves=2, data_gb=0.125)
    kinds = {(r["protocol"], r["method"]) for r in result["rows"]}
    assert ("mapred.TaskUmbilicalProtocol", "statusUpdate") in kinds
    assert ("hdfs.ClientProtocol", "addBlock") in kinds
    text = table1.format_result(result)
    assert "Avg Mem Adjustments" in text


def test_fig8_single_point_runs():
    from repro.experiments.fig8_hbase import CONFIGS, throughput_kops

    config = next(c for c in CONFIGS if c[0] == "HBaseoIB-RPCoIB")
    kops = throughput_kops(config, "get", records=2000, ops=1600, seeds=[3])
    assert kops > 1.0
    assert kops == golden("golden_fig8_point.json")["kops"]


def test_fig7_single_config_runs():
    from repro.experiments.fig7_hdfs import CONFIGS, write_time_s

    config = next(c for c in CONFIGS if c[0] == "HDFSoIB-RPCoIB")
    t = write_time_s(config, size_gb=0.25, datanodes=4, seeds=[5])
    assert 0.5 < t < 30.0
    assert t == golden("golden_fig7_point.json")["write_time_s"]


def test_runner_cli_rejects_unknown():
    from repro.experiments.runner import main

    with pytest.raises(SystemExit):
        main(["no-such-experiment"])


def test_runner_cli_rejects_bench():
    """The wall-clock ``bench`` plane is gone: host time is gated by the
    repo benchmark (``benchmarks/compare.py``) and the numbers by the
    goldens."""
    from repro.experiments.runner import main

    with pytest.raises(SystemExit):
        main(["bench"])


def test_runner_help_names_every_experiment():
    from repro.experiments.runner import build_parser

    help_text = build_parser().format_help()
    listed = help_text.split("experiment ids (", 1)[1].split(")", 1)[0]
    assert " ".join(listed.split()).split(", ") == list(ALL_EXPERIMENTS)
    assert "bench" not in help_text

"""Calibration acceptance tests: the paper's headline numbers.

These are the "shape" gates from DESIGN.md Section 5: simulated values
must land inside tolerance bands around the paper's Fig. 5/Fig. 1
statements.  Job-scale experiments get shape (ordering/trend)
assertions instead: Fig. 6 and Fig. 7 in ``test_figure_shapes.py``,
Fig. 8 in ``slow_fig8_hbase.py`` (a CI job of its own).  See
EXPERIMENTS.md for the full paper-vs-measured record.
"""

import json

import pytest

from repro.calibration import PAPER_TARGETS
from repro.rpc.microbench import run_latency

from tests.experiments.test_golden_fig5 import FULL_FIXTURE as FIG5_FIXTURE


@pytest.fixture(scope="module")
def latencies():
    return {
        engine: run_latency(engine, [1, 4096], iterations=25)
        for engine in ("RPC-10GigE", "RPC-IPoIB", "RPCoIB")
    }


@pytest.fixture(scope="module")
def peaks():
    """Each engine's 64-client Fig. 5(b) point, read from the full fig5
    golden: ``fig5_micro.run()`` makes the same
    ``run_throughput(engine, 64, ops_per_client=40)`` call, and
    ``test_golden_fig5`` checks that golden bit for bit."""
    golden = json.loads(FIG5_FIXTURE.read_text(encoding="utf-8"))
    return {
        engine: golden["throughput_kops"][engine]["64"]
        for engine in ("RPC-10GigE", "RPC-IPoIB", "RPCoIB")
    }


def test_rpcoib_1b_latency_matches_paper(latencies):
    target = PAPER_TARGETS["fig5a.rpcoib.latency_1b_us"]  # 39 us
    assert latencies["RPCoIB"][1] == pytest.approx(target, rel=0.15)


def test_rpcoib_4kb_latency_matches_paper(latencies):
    target = PAPER_TARGETS["fig5a.rpcoib.latency_4kb_us"]  # ~52 us
    assert latencies["RPCoIB"][4096] == pytest.approx(target, rel=0.15)


def test_latency_reduction_vs_10gige_in_band(latencies):
    lo, hi = PAPER_TARGETS["fig5a.reduction_vs_10gige"]  # 42%-49%
    for size in (1, 4096):
        red = 1 - latencies["RPCoIB"][size] / latencies["RPC-10GigE"][size]
        assert lo - 0.03 <= red <= hi + 0.03, f"payload {size}: {red:.3f}"


def test_latency_reduction_vs_ipoib_in_band(latencies):
    lo, hi = PAPER_TARGETS["fig5a.reduction_vs_ipoib"]  # 46%-50%
    for size in (1, 4096):
        red = 1 - latencies["RPCoIB"][size] / latencies["RPC-IPoIB"][size]
        assert lo - 0.03 <= red <= hi + 0.03, f"payload {size}: {red:.3f}"


def test_peak_throughput_matches_paper(peaks):
    target = PAPER_TARGETS["fig5b.rpcoib.peak_kops"]  # 135.22
    assert peaks["RPCoIB"] == pytest.approx(target, rel=0.15)


def test_throughput_gains_match_paper(peaks):
    gain_10g = peaks["RPCoIB"] / peaks["RPC-10GigE"] - 1
    gain_ipoib = peaks["RPCoIB"] / peaks["RPC-IPoIB"] - 1
    assert gain_10g == pytest.approx(
        PAPER_TARGETS["fig5b.gain_vs_10gige"], rel=0.25
    )
    assert gain_ipoib == pytest.approx(
        PAPER_TARGETS["fig5b.gain_vs_ipoib"], rel=0.25
    )


def test_throughput_ordering(peaks):
    assert peaks["RPCoIB"] > peaks["RPC-IPoIB"] > peaks["RPC-10GigE"]


def test_fig1_alloc_ratio_band():
    from repro.experiments.fig1_alloc_ratio import measure_ratio

    ipoib = measure_ratio("ipoib", 2 * 1024 * 1024, iterations=6)
    gige = measure_ratio("1gige", 2 * 1024 * 1024, iterations=6)
    target = PAPER_TARGETS["fig1.ipoib_alloc_ratio_2mb"]  # ~30%
    assert ipoib == pytest.approx(target, abs=0.08)
    assert gige < 0.5 * ipoib  # "not obvious when RPC runs on 1GigE"

"""Shape checks of Fig. 8, YCSB over HBase.

This is 60 HBase runs of about 15 s each, so its name keeps it out of
the default test run (``python_files`` collects ``test_*.py`` only).
CI's ``fig8`` job runs it by path:

    PYTHONPATH=src python -m pytest -q tests/experiments/slow_fig8_hbase.py

It also compares the grid it computed, float for float, with the
committed fixture ``fixtures/golden_fig8_grid.json`` (dumped with
``json.dump(..., indent=2, sort_keys=True)``; int keys become strings).
"""

import json
from pathlib import Path

from repro.experiments import fig8_hbase

FIXTURE = Path(__file__).parent / "fixtures" / "golden_fig8_grid.json"


def test_fig8_ycsb():
    result = fig8_hbase.run(
        scale=50, record_counts=[100_000, 300_000], seeds=[7, 21]
    )
    panels = result["panels"]
    counts = sorted(panels["get"]["HBaseoIB-RPCoIB"])
    mid = counts[len(counts) // 2]
    # (a) Get throughput declines as the record count grows (cache
    # warmth falls) for every configuration
    for label, line in panels["get"].items():
        assert line[counts[0]] >= line[counts[-1]] * 0.9, label
    # integrated design wins every panel at the middle record count
    for workload in ("get", "put", "mix"):
        panel = panels[workload]
        best = panel["HBaseoIB-RPCoIB"][mid]
        assert best >= panel["HBaseoIB-RPC(IPoIB)"][mid] * 0.98, workload
        assert best > panel["HBase(1GigE)-RPC(1GigE)"][mid], workload
    # the RPCoIB gains are real for the write-heavy workloads
    # (record-count-averaged, to damp the 400 ms-quantum race noise)
    gains = result["gains_avg"]
    assert gains["put"] > 0.02
    assert gains["mix"] > -0.02
    assert json.loads(json.dumps(result)) == json.loads(
        FIXTURE.read_text(encoding="utf-8")
    )

"""Shape checks of the job-scale figures: Fig. 3, Fig. 6 and Fig. 7.

Each runs the scaled, structure-preserving configuration that
EXPERIMENTS.md documents and checks the robust shapes (ordering,
trend, task structure), not the paper's exact numbers.  The job-level
engine deltas under-reproduce the paper (the 3-second heartbeat
scheduling quantum absorbs sub-second RPC effects), so "RPCoIB never
loses" is checked within a few percent of seed noise.  Together they
take about 30 s.  Fig. 8 is 60 HBase runs, about 15 minutes, and runs
in CI only: see ``slow_fig8_hbase.py``.

Each test also compares the result it computed, float for float, with
a committed fixture (``fixtures/golden_fig3.json``, ``golden_fig6a``,
``golden_fig6b_cloudburst``, ``golden_fig7``), so a change that must
leave the figures unchanged is checked at no extra run time.
Regenerating a fixture is a deliberate act: rerun the same call, dump
it with ``json.dump(..., indent=2, sort_keys=True)``, and explain the
change in the commit message.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.apps.cloudburst import (
    ALIGNMENT_MAPS,
    ALIGNMENT_REDUCES,
    FILTERING_MAPS,
    FILTERING_REDUCES,
    run_cloudburst,
)
from repro.experiments import fig3_size_locality, fig6_mapreduce, fig7_hdfs
from repro.experiments.clusters import build_mapreduce_stack

FIXTURES = Path(__file__).parent / "fixtures"


def golden(name: str):
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def as_json(result):
    """The result as its fixture stores it (int keys become strings)."""
    return json.loads(json.dumps(result))


def cloudburst_fields(result) -> dict:
    """A CloudBurst result as JSON, minus the job ids, which the fixture
    left out while they came from an interpreter-wide counter."""
    fields = asdict(result)
    for job in fields.values():
        del job["job_id"]
    return as_json(fields)


def test_fig3_sequential_calls_share_a_size_class():
    result = fig3_size_locality.run(slaves=4, data_mb=256)
    for label in ("JT_heartbeat", "TT_statusUpdate", "NN_getFileInfo"):
        assert result["traces"][label], f"no trace for {label}"
        # the paper's phenomenon: sequential calls overwhelmingly land
        # in the same size class
        assert result["locality"][label] >= 0.6, label
    assert as_json(result) == golden("golden_fig3.json")


def test_fig6a_sort_and_randomwriter():
    result = fig6_mapreduce.run(
        scale=8, data_sizes_gb=[1, 2], cloudburst_scale=0.1
    )
    sort = result["sort_s"]
    randomwriter = result["randomwriter_s"]
    for engine in ("IPoIB", "RPCoIB"):
        sizes = sorted(sort[engine])
        # job time grows with data size
        assert sort[engine][sizes[-1]] > sort[engine][sizes[0]]
        # Sort (shuffle + reduce) costs more than map-only RandomWriter
        assert sort[engine][sizes[-1]] > randomwriter[engine][sizes[-1]]
    # RPCoIB never loses at the largest size
    largest = sorted(sort["IPoIB"])[-1]
    assert sort["RPCoIB"][largest] <= sort["IPoIB"][largest] * 1.02
    assert randomwriter["RPCoIB"][largest] <= randomwriter["IPoIB"][largest] * 1.02
    assert as_json(result) == golden("golden_fig6a.json")


def cloudburst(ib: bool):
    stack = build_mapreduce_stack(
        8, rpc_ib=ib, seed=9, conf_overrides={"dfs.replication.min": 3}
    )
    holder = {}

    def driver(env):
        holder["result"] = yield run_cloudburst(stack.mapred, scale=0.1)

    stack.run(driver)
    return holder["result"]


@pytest.fixture(scope="module")
def cloudburst_ipoib():
    return cloudburst(ib=False)


def test_fig6b_cloudburst_phases(cloudburst_ipoib):
    result = cloudburst_ipoib
    # structure: the paper's task counts, Alignment dominates
    assert result.alignment.maps == ALIGNMENT_MAPS
    assert result.alignment.reduces == ALIGNMENT_REDUCES
    assert result.filtering.maps == FILTERING_MAPS
    assert result.filtering.reduces == FILTERING_REDUCES
    assert result.alignment_s > result.filtering_s
    assert cloudburst_fields(result) == golden("golden_fig6b_cloudburst.json")["IPoIB"]


def test_fig6b_cloudburst_rpcoib_does_not_lose(cloudburst_ipoib):
    rpcoib = cloudburst(ib=True)
    assert rpcoib.total_s <= cloudburst_ipoib.total_s * 1.02
    assert cloudburst_fields(rpcoib) == golden("golden_fig6b_cloudburst.json")["RPCoIB"]


def test_fig7_hdfs_write():
    result = fig7_hdfs.run(
        datanodes=16, file_sizes_gb=[1, 2], seeds=[101, 202, 303, 404, 505]
    )
    series = result["write_s"]
    largest = sorted(series["HDFSoIB-RPCoIB"])[-1]
    at = {label: line[largest] for label, line in series.items()}
    # data-plane ordering: 1GigE clearly slowest; the IPoIB-sockets vs
    # HDFSoIB gap is the data-plane CPU/wire saving minus commit-race
    # noise (~±3%), so compare with that tolerance
    assert at["HDFS(1GigE)-RPC(1GigE)"] > at["HDFS(IPoIB)-RPC(IPoIB)"]
    assert at["HDFSoIB-RPCoIB"] <= at["HDFS(IPoIB)-RPC(IPoIB)"] * 1.03
    # RPC-engine ordering within the HDFSoIB rows: the engine deltas are
    # commit-race tail events, so allow seed noise of a few percent
    assert at["HDFSoIB-RPCoIB"] <= at["HDFSoIB-RPC(IPoIB)"] * 1.04
    assert at["HDFSoIB-RPCoIB"] <= at["HDFSoIB-RPC(1GigE)"] * 1.04
    # write time grows with file size
    for label, line in series.items():
        sizes = sorted(line)
        assert line[sizes[-1]] > line[sizes[0]], label
    assert as_json(result) == golden("golden_fig7.json")

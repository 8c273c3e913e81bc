"""HBase behaviour: get/put paths, WAL, flush/compaction, YCSB."""

import pytest

from repro.hbase import YcsbWorkload, run_ycsb
from repro.hbase.ycsb import YcsbResult
from repro.units import KB


def test_put_then_get_roundtrip(hbase):
    def scenario(env):
        yield hbase.table.put("user1", b"payload-bytes")
        result = yield hbase.table.get("user1")
        return result

    result = hbase.run(scenario)
    assert result.found
    assert result.value == b"payload-bytes"


def test_put_appends_to_wal_pipeline(hbase):
    def scenario(env):
        for i in range(10):
            yield hbase.table.put(f"row{i}")

    hbase.run(scenario)
    totals = hbase.hbase.totals()
    assert totals["puts"] == 10
    server_bytes = sum(s.memstore_bytes for s in hbase.hbase.regionservers)
    assert server_bytes == 10 * 1024


def test_rows_route_consistently(hbase):
    def scenario(env):
        yield hbase.table.put("stable-row", b"v1")
        yield hbase.table.put("stable-row", b"v2")
        got = yield hbase.table.get("stable-row")
        return got

    result = hbase.run(scenario)
    assert result.value == b"v2"
    owners = [s for s in hbase.hbase.regionservers if s.puts]
    assert len(owners) == 1  # same region server both times


def test_memstore_flush_writes_hfile():
    from tests.hbase.conftest import HBaseHarness

    harness = HBaseHarness(conf_overrides={"hbase.hregion.memstore.flush.size": 2 * KB})

    def scenario(env):
        for i in range(12):
            yield harness.table.put(f"row{i}")
        yield env.timeout(5_000_000)  # let async flushes land

    harness.run(scenario)
    totals = harness.hbase.totals()
    assert totals["flushes"] >= 1
    hfiles = [p for p in harness.hdfs.namenode.namespace if "/hbase/" in p]
    assert hfiles


def test_compaction_after_flushes():
    from tests.hbase.conftest import HBaseHarness

    harness = HBaseHarness(conf_overrides={"hbase.hregion.memstore.flush.size": 2 * KB})

    def scenario(env):
        for i in range(40):
            yield harness.table.put(f"k{i % 3}")  # concentrate on one server
        yield env.timeout(20_000_000)

    harness.run(scenario)
    assert harness.hbase.totals()["compactions"] >= 1


def test_payload_rdma_detaches_value(hbase_rdma):
    def scenario(env):
        yield hbase_rdma.table.put("r", b"x" * 1024)
        return (yield hbase_rdma.table.get("r"))

    result = hbase_rdma.run(scenario)
    # envelope carries only the length; payload travelled via RDMA
    assert result.detached_bytes == 1024
    assert result.value == b""


def test_htable_calls_are_the_rpc_calls_without_payload_rdma(hbase):
    """No process per HTable call: ``get``/``put`` hand back the RPC."""

    def scenario(env):
        put = hbase.table.put("r", b"value")
        assert put.name.startswith("call:") and put.name.endswith(".put")
        yield put
        get = hbase.table.get("r")
        assert get.name.startswith("call:") and get.name.endswith(".get")
        return (yield get)

    assert hbase.run(scenario).value == b"value"


def test_htable_calls_ship_the_payload_first_with_payload_rdma(hbase_rdma):
    client = hbase_rdma.client_node.name

    def scenario(env):
        put = hbase_rdma.table.put("r", b"x" * 512)
        assert put.name == f"hput:{client}"
        yield put
        get = hbase_rdma.table.get("r")
        assert get.name == f"hget:{client}"
        return (yield get)

    result = hbase_rdma.run(scenario)
    assert result.value == b""
    assert result.detached_bytes > 0


def test_get_misses_cost_more_when_cold(hbase):
    hbase.hbase.preload(record_count=4000)

    def timed_gets(env):
        start = env.now
        for i in range(30):
            yield hbase.table.get(f"user{i:012d}")
        cold = env.now - start
        start = env.now
        for i in range(30):
            yield hbase.table.get(f"user{i:012d}")
        warmer = env.now - start
        return cold, warmer

    cold, warmer = hbase.run(timed_gets)
    assert cold > warmer  # cache warmth reduces miss rate
    assert hbase.hbase.totals()["cache_misses"] > 0


def test_ycsb_workload_validation():
    with pytest.raises(ValueError):
        YcsbWorkload("bad", 1.5, 100, 100)
    with pytest.raises(ValueError):
        YcsbWorkload("bad", 0.5, 0, 100)


def test_ycsb_run_produces_result(hbase):
    workload = YcsbWorkload.mix_50_50(2000, 400)

    def scenario(env):
        result = yield run_ycsb(
            hbase.hbase, [hbase.client_node], workload, threads_per_node=2
        )
        return result

    result = hbase.run(scenario)
    assert isinstance(result, YcsbResult)
    assert result.throughput_kops > 0
    assert result.operations == 400
    assert result.get_latency.count > 0
    assert result.put_latency.count > 0


def test_ycsb_pure_get_has_no_put_latencies(hbase):
    workload = YcsbWorkload.get_100(2000, 200)

    def scenario(env):
        return (
            yield run_ycsb(hbase.hbase, [hbase.client_node], workload, threads_per_node=2)
        )

    result = hbase.run(scenario)
    assert result.put_latency.count == 0
    assert result.get_latency.count == 200

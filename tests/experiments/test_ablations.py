"""Ablations of the RPCoIB design choices (DESIGN.md Section 6).

Each test isolates one Section III element:

* the eager/RDMA threshold (Section III-D's tunable);
* the history-based buffer pool (Section III-C) against cold
  acquisition;
* the default engine's initial buffer size (the Section II-A
  straw-man: "allocate a larger internal buffer").
"""

import pytest

from repro.calibration import CostModel
from repro.io.data_output import DataOutputBuffer
from repro.io.rdma_streams import RDMAOutputStream
from repro.io.writables import BytesWritable
from repro.mem import CostLedger, HistoryShadowPool, NativeBufferPool
from repro.net.fabric import Fabric
from repro.rpc.engine import RPC
from repro.rpc.microbench import ENGINE_CONFIGS, PingPongProtocol, PingPongService
from repro.simcore import Environment


def rpcoib_latency(payload: int, threshold: int, iterations: int = 15) -> float:
    """Mean RPCoIB ping-pong RTT at one eager/RDMA threshold."""
    config = ENGINE_CONFIGS["RPCoIB"]
    env = Environment()
    fabric = Fabric(env)
    server_node, client_node = fabric.add_node("s"), fabric.add_node("c")
    conf = config.conf.set("rpc.ib.rdma.threshold", threshold)
    server = RPC.get_server(
        fabric, server_node, 9000, PingPongService(), PingPongProtocol,
        config.network, conf=conf,
    )
    client = RPC.get_client(fabric, client_node, config.network, conf=conf)
    proxy = RPC.get_proxy(PingPongProtocol, server.address, client)
    times = []

    def caller(env):
        data = BytesWritable(b"\x5a" * payload)
        yield proxy.pingpong(data)
        for _ in range(iterations):
            start = env.now
            yield proxy.pingpong(data)
            times.append(env.now - start)

    env.run(env.process(caller(env)))
    return sum(times) / len(times)


def test_small_messages_prefer_eager_sends():
    """Below the threshold, send/recv beats RDMA for tiny messages
    (Section III-D's rationale for the adaptive switch): with threshold
    0 every message goes RDMA, slightly slower at 64 B."""
    assert rpcoib_latency(64, 4096) <= rpcoib_latency(64, 0)


def test_history_pool_beats_cold_pool():
    """Section III-C: the size-history predictor removes the growth
    copies that a history-less pool pays on every call."""
    model = CostModel.default()
    classes = [128, 256, 512, 1024, 2048, 4096]
    payload = BytesWritable(b"q" * 1500)
    with_history = HistoryShadowPool(NativeBufferPool(model, classes))
    cold = HistoryShadowPool(NativeBufferPool(model, classes))

    def serialize(pool) -> float:
        ledger = CostLedger(model)
        out = RDMAOutputStream(pool, "P", "m", ledger)
        payload.write(out)
        out.detach()
        out.release()
        return ledger.total_us

    history_us = cold_us = 0.0
    for _ in range(50):
        history_us += serialize(with_history)
        cold.history.clear()  # ablate the predictor
        cold_us += serialize(cold)
    assert history_us < cold_us


@pytest.mark.parametrize("initial", [32, 10 * 1024])
def test_default_engine_initial_buffer_tradeoff(initial):
    """Section II-A: a big fixed initial buffer removes the adjustments
    a small one makes on every 600 B call."""
    model = CostModel.default()
    adjustments = 0
    for _ in range(200):
        buf = DataOutputBuffer(CostLedger(model), initial_size=initial)
        BytesWritable(b"x" * 600).write(buf)
        adjustments += buf.adjustments
    if initial == 32:
        assert adjustments > 0
    else:
        assert adjustments == 0

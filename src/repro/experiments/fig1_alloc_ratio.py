"""Fig. 1: ratio of buffer-allocation time to call-receiving time.

The Section II evidence figure: a ping-pong server over the *default*
socket RPC, payloads 32 B - 4 MB, on 1GigE vs IPoIB.  The ratio is
measured from the server Reader's Listing-2 path (the two
``ByteBuffer.allocate`` calls vs the whole receive).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.calibration import FABRICS
from repro.experiments.report import render_series
from repro.io.writables import BytesWritable
from repro.net.fabric import Fabric
from repro.rpc.engine import RPC
from repro.rpc.metrics import RpcMetrics
from repro.rpc.microbench import PingPongProtocol, PingPongService
from repro.simcore import Environment

#: Fig. 1's payload sweep
PAYLOAD_SIZES = [32, 1024, 32 * 1024, 256 * 1024, 1024 * 1024, 2 * 1024 * 1024, 4 * 1024 * 1024]
NETWORKS = {"1GigE": "1gige", "IPoIB": "ipoib"}


def measure_ratio(network_key: str, payload: int, iterations: int = 15) -> float:
    """Mean alloc/receive ratio for one payload on one network."""
    env = Environment()
    fabric = Fabric(env)
    server_node = fabric.add_node("server")
    client_node = fabric.add_node("client")
    spec = FABRICS[network_key]
    metrics = RpcMetrics()
    server = RPC.get_server(
        fabric, server_node, 9000, PingPongService(), PingPongProtocol, spec,
        metrics=metrics,
    )
    client = RPC.get_client(fabric, client_node, spec)
    proxy = RPC.get_proxy(PingPongProtocol, server.address, client)

    def bench(env):
        data = BytesWritable(b"\x5a" * payload)
        yield proxy.pingpong(data)  # warm-up / connection setup
        metrics.reset()
        for _ in range(iterations):
            yield proxy.pingpong(data)

    env.run(env.process(bench(env)))
    return metrics.mean_alloc_ratio()


def run(payload_sizes: Optional[List[int]] = None, iterations: int = 15) -> Dict:
    sizes = payload_sizes or PAYLOAD_SIZES
    series: Dict[str, Dict[int, float]] = {}
    for label, key in NETWORKS.items():
        series[label] = {
            size: measure_ratio(key, size, iterations) for size in sizes
        }
    return {
        "ratio": series,
        "ipoib_ratio_2mb": series["IPoIB"].get(2 * 1024 * 1024),
        "gige_ratio_2mb": series["1GigE"].get(2 * 1024 * 1024),
    }


def format_result(result: Dict) -> str:
    parts = [
        render_series(
            "Fig. 1 buffer-allocation time / call-receiving time vs payload",
            result["ratio"],
        ),
    ]
    if result["ipoib_ratio_2mb"] is not None:
        parts.append(
            f"\nIPoIB ratio @2MB: {result['ipoib_ratio_2mb']:.0%} (paper: ~30%), "
            f"1GigE @2MB: {result['gige_ratio_2mb']:.0%} (paper: small)"
        )
    return "\n".join(parts)

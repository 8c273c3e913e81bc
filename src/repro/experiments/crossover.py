"""Crossover experiment: the eager/rendezvous break-even point moves
as the size predictor warms.

Section III-D's protocol switch is static: messages at or below
``rpc.ib.rdma.threshold`` go eager (send/recv into pre-posted receive
buffers), larger ones pay a rendezvous handshake
(``rdma_rendezvous_us``) before the zero-copy RDMA read.  The
message-size-locality observation (Fig. 3) funds a better deal: when
the per-call-kind predictor is confident the next message is large,
the registered target buffer can be advertised *ahead* of the data
(``rdma_prepost_us``, overlapped with serialization), collapsing the
rendezvous premium from ~5 us to ~1 us per message.

Part A sweeps message size across three rpcoib arms and locates the
crossover — the smallest swept size where rendezvous RTT dips at or
below eager RTT:

* ``eager`` — threshold forced huge, everything eager (the baseline
  every rendezvous arm races against);
* ``rendezvous_static`` — threshold forced to 0, adaptive off: every
  message pays the full handshake;
* ``rendezvous_warm`` — threshold 0 with ``ipc.ib.adaptive.enabled``:
  after the warmup outlasts the confidence streak, both sides' sends
  are pre-posted.

Headline (asserted, golden-locked): the warm crossover lands strictly
below the static one — the predictor moves the break-even point left,
so a tighter band of mid-size messages earns zero-copy transfers.

Part B runs a mixed workload (a small call kind under the default
threshold, a large one above it) and compares adaptive on vs off
end-to-end: adaptive wins the makespan, predictor hits outnumber
misses, and the hit rate of the late phase beats the early (cold)
phase.  On the sockets transport the adaptive keys are inert — both
arms are compared for exact equality, the in-experiment twin of the
golden-suite bit-identity tests.

Fully deterministic: fixed sweeps, fixed caller sets, no RNG.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

from repro.calibration import FABRICS, IPOIB_QDR
from repro.config import Configuration
from repro.experiments import driver
from repro.io.writables import BytesWritable
from repro.rpc.engine import RPC
from repro.rpc.microbench import PingPongProtocol, PingPongService
from repro.rpc.protocol import RpcProtocol

#: Part A size sweep — brackets both expected crossovers.  Under the
#: calibrated model the rendezvous premium is fixed (5 us static,
#: 1.2 us preposted per direction) while the RDMA path's per-byte
#: advantage is the 25 -> 26 Gbps goodput delta, so the static
#: break-even sits in the hundreds-of-KB range and the preposted one
#: in the tens of KB.
SWEEP_SIZES = (4096, 16384, 49152, 131072, 262144, 524288)
ITERATIONS = 20
#: warmup round-trips before timing; must exceed the confidence streak
#: so the warm arm's timed window is fully preposted.
WARMUP = 8

#: Part B mixed workload: small kind stays eager under the default
#: threshold (8 KB), large kind always takes the rendezvous path.
MIXED_SMALL_BYTES = 512
MIXED_LARGE_BYTES = 24 * 1024
MIXED_NODES = 2
MIXED_CALLERS = 8
MIXED_OPS = 24

#: the three Part A arms: label -> (rdma threshold, adaptive enabled).
ARMS = {
    "eager": (1 << 30, False),
    "rendezvous_static": (0, False),
    "rendezvous_warm": (0, True),
}

#: scaled-down grid for the determinism gate and the sanitized CI
#: smoke: coarser sweep, fewer iterations/ops.  The crossover shift and
#: the mixed-workload win survive; only the sweep resolution drops.
SMOKE_PARAMS = dict(
    sizes=(16384, 49152, 131072, 524288),
    iterations=6,
    warmup=6,
    mixed_ops=8,
    mixed_callers=4,
)


class MixedProtocol(RpcProtocol):
    """Two call kinds with stable, very different message sizes."""

    VERSION = 1

    def small_op(self, payload: BytesWritable) -> BytesWritable:
        """Echo a small payload (eager territory)."""
        raise NotImplementedError

    def large_op(self, payload: BytesWritable) -> BytesWritable:
        """Echo a large payload (rendezvous territory)."""
        raise NotImplementedError


class MixedService(MixedProtocol):
    def small_op(self, payload: BytesWritable) -> BytesWritable:
        return payload

    def large_op(self, payload: BytesWritable) -> BytesWritable:
        return payload


def _rtt_once(
    arm: str, size: int, iterations: int, warmup: int
) -> Dict:
    """Mean timed ping-pong RTT (us) for one Part A arm and size."""
    threshold, adaptive = ARMS[arm]
    scenario = driver.Scenario()
    env, fabric = scenario.env, scenario.fabric
    conf = Configuration({
        "rpc.ib.enabled": True,
        "rpc.ib.rdma.threshold": threshold,
        "ipc.ib.adaptive.enabled": adaptive,
    })
    server = scenario.serve(IPOIB_QDR, conf, PingPongService())
    client = RPC.get_client(
        fabric, fabric.add_node("client"), IPOIB_QDR, conf=conf
    )
    proxy = RPC.get_proxy(PingPongProtocol, server.address, client)
    payload = BytesWritable(b"\x5a" * size)
    rtt = driver.Group()
    # One stream on its own process (waiting on an AllOf would add
    # events): ``warmup`` untimed round-trips, then the timed ones.
    env.run(env.process(
        driver.closed_loop(
            env, rtt, driver.pinger(proxy, payload), ops=warmup + iterations
        ),
        name=f"xover-{arm}-{size}",
    ))
    assert rtt.raised == 0, rtt.errors
    timed = rtt.latencies[warmup:]
    preposted = _preposted_sends(server, client)
    server.stop()
    client.close()
    row = {
        "arm": arm,
        "size": size,
        "rtt_us": sum(timed) / iterations,
        "preposted_sends": preposted,
        "predictor_hits": driver.counter_sum(fabric, "net.predictor.hits"),
        "predictor_misses": driver.counter_sum(fabric, "net.predictor.misses"),
    }
    if arm == "rendezvous_warm":
        # The timed window must be fully warm: both directions of every
        # timed round-trip (plus the post-confidence warmup tail) rode
        # the pre-posted handshake.
        assert row["preposted_sends"] >= 2 * iterations, row
    else:
        assert row["preposted_sends"] == 0, row
    return row


def _preposted_sends(server, *clients) -> int:
    """Pre-posted rendezvous sends across both ends of every QP."""
    total = sum(conn.qp.preposted_sends for conn in server.ib_connections)
    for client in clients:
        for conn in client._connections.values():
            qp = getattr(conn, "qp", None)
            if qp is not None:
                total += qp.preposted_sends
    return total


def _crossover(
    sizes: Sequence[int],
    eager: Dict[int, float],
    rendezvous: Dict[int, float],
) -> Optional[int]:
    """Smallest swept size where rendezvous RTT <= eager RTT."""
    for size in sizes:
        if rendezvous[size] <= eager[size]:
            return size
    return None


def _run_mixed(
    transport: str,
    adaptive: bool,
    callers: int,
    ops: int,
    nodes: int = MIXED_NODES,
) -> Dict:
    """One Part B arm: mixed small/large workload, end to end."""
    spec, ib = (
        (FABRICS["ipoib"], False) if transport == "sockets"
        else (IPOIB_QDR, True)
    )
    scenario = driver.Scenario()
    fabric = scenario.fabric
    conf = Configuration({
        "rpc.ib.enabled": ib,
        "ipc.ib.adaptive.enabled": adaptive,
    })
    server = scenario.serve(
        spec, conf, MixedService(), MixedProtocol, node="nn"
    )
    node_clients = [
        RPC.get_client(fabric, node, spec, conf=conf)
        for node in fabric.add_nodes("cn", nodes)
    ]
    small = BytesWritable(b"\x11" * MIXED_SMALL_BYTES)
    large = BytesWritable(b"\x22" * MIXED_LARGE_BYTES)
    proxies = [
        RPC.get_proxy(MixedProtocol, server.address, client)
        for client in node_clients
    ]
    total_ops = callers * ops
    predictor = (
        "net.predictor.hits", "net.predictor.misses", "net.predictor.fallbacks"
    )
    # phase boundary for the warming assertion: counters sampled when
    # the first half of the calls has settled.
    early: List[int] = []

    def sample_half(_):
        if not early and scenario.groups["mixed"].completed * 2 >= total_ops:
            early.extend(
                driver.counter_sum(fabric, name) for name in predictor
            )

    for i in range(callers):
        scenario.spawn(
            f"xover-mixed-{transport}-c{i}", "mixed",
            # Deterministic 2:1 small:large mix — every caller issues
            # both kinds, so every connection's predictor sees both.
            lambda op, proxy=proxies[i % nodes]: (
                proxy.large_op(large) if op % 3 == 2 else proxy.small_op(small)
            ),
            ops=ops, on_done=sample_half,
        )
    mixed = scenario.run()["mixed"]
    assert mixed.raised == 0, mixed.errors
    assert server.calls_handled == total_ops, (
        server.calls_handled, total_ops,
    )
    hits, misses, fallbacks = (
        driver.counter_sum(fabric, name) for name in predictor
    )
    preposted = _preposted_sends(server, *node_clients)
    server.stop()
    for client in node_clients:
        client.close()
    early_hits, early_misses, early_fallbacks = early or (0, 0, 0)
    early_calls = early_hits + early_misses + early_fallbacks
    late_calls = (hits + misses + fallbacks) - early_calls
    return {
        "transport": transport,
        "adaptive": adaptive,
        "calls": total_ops,
        "makespan_us": scenario.env.now,
        "throughput_calls_s": total_ops / scenario.env.now * 1e6,
        "predictor_hits": hits,
        "predictor_misses": misses,
        "predictor_fallbacks": fallbacks,
        "preposted_sends": preposted,
        "early_hit_rate": (
            early_hits / early_calls if early_calls else 0.0
        ),
        "late_hit_rate": (
            (hits - early_hits) / late_calls if late_calls else 0.0
        ),
    }


def run(
    sizes: Sequence[int] = SWEEP_SIZES,
    iterations: int = ITERATIONS,
    warmup: int = WARMUP,
    mixed_ops: int = MIXED_OPS,
    mixed_callers: int = MIXED_CALLERS,
    grid: Optional[str] = None,
) -> Dict:
    """Size x arm sweep plus the mixed-workload comparison.

    ``grid="smoke"`` (or ``REPRO_CROSSOVER_GRID=smoke`` in the
    environment, for the CLI) replaces every parameter with
    ``SMOKE_PARAMS`` — the fast grid CI's sanitized run uses.
    """
    if grid is None:
        grid = os.environ.get("REPRO_CROSSOVER_GRID", "full")
    if grid == "smoke":
        return run(grid="full", **SMOKE_PARAMS)
    if grid != "full":
        raise ValueError(f"unknown crossover grid {grid!r} (full or smoke)")

    # -- Part A: the sweep --------------------------------------------------
    series: Dict[str, Dict[str, Dict]] = {}
    rtt: Dict[str, Dict[int, float]] = {}
    for arm in ARMS:
        rows = {}
        for size in sizes:
            rows[str(size)] = _rtt_once(arm, size, iterations, warmup)
        series[arm] = rows
        rtt[arm] = {int(s): row["rtt_us"] for s, row in rows.items()}

    crossover_static = _crossover(sizes, rtt["eager"], rtt["rendezvous_static"])
    crossover_warm = _crossover(sizes, rtt["eager"], rtt["rendezvous_warm"])
    # Acceptance: the preposted handshake is never slower than the full
    # one, and the warm crossover lands strictly left of the static.
    for size in sizes:
        assert (
            rtt["rendezvous_warm"][size] <= rtt["rendezvous_static"][size]
        ), (size, rtt["rendezvous_warm"][size], rtt["rendezvous_static"][size])
    assert crossover_static is not None, rtt
    assert crossover_warm is not None, rtt
    assert crossover_warm < crossover_static, (
        f"predictor did not move the crossover: warm {crossover_warm} "
        f"vs static {crossover_static}"
    )

    # -- Part B: the mixed workload ----------------------------------------
    static_row = _run_mixed("rpcoib", False, mixed_callers, mixed_ops)
    adaptive_row = _run_mixed("rpcoib", True, mixed_callers, mixed_ops)
    speedup = (
        adaptive_row["throughput_calls_s"] / static_row["throughput_calls_s"]
    )
    assert speedup > 1.0, (
        f"adaptive transport lost the mixed workload: {speedup:.4f}x"
    )
    assert adaptive_row["predictor_hits"] > adaptive_row["predictor_misses"], (
        adaptive_row,
    )
    assert adaptive_row["preposted_sends"] > 0, adaptive_row
    assert (
        adaptive_row["late_hit_rate"] >= adaptive_row["early_hit_rate"]
    ), adaptive_row
    assert static_row["predictor_hits"] == 0, static_row
    assert static_row["preposted_sends"] == 0, static_row

    # Sockets: the adaptive keys must be inert — exact equality of
    # every measured field (only the arm label itself may differ).
    sockets_static = _run_mixed("sockets", False, mixed_callers, mixed_ops)
    sockets_adaptive = _run_mixed("sockets", True, mixed_callers, mixed_ops)
    measured = lambda row: {k: v for k, v in row.items() if k != "adaptive"}
    assert measured(sockets_static) == measured(sockets_adaptive), (
        sockets_static, sockets_adaptive,
    )

    return {
        "params": {
            "sizes": list(sizes),
            "iterations": iterations,
            "warmup": warmup,
            "mixed_small_bytes": MIXED_SMALL_BYTES,
            "mixed_large_bytes": MIXED_LARGE_BYTES,
            "mixed_callers": mixed_callers,
            "mixed_ops": mixed_ops,
        },
        "series": series,
        "mixed": {
            "static": static_row,
            "adaptive": adaptive_row,
            "sockets_bit_equal": True,
        },
        "headline": {
            "crossover_static": crossover_static,
            "crossover_warm": crossover_warm,
            "mixed_speedup": speedup,
        },
    }


def format_result(result: Dict) -> str:
    params = result["params"]
    lines = [
        f"crossover: sizes {params['sizes']}, {params['iterations']} "
        f"timed iters ({params['warmup']} warmup)",
        f"{'size B':>7s} {'eager us':>9s} {'rdv us':>9s} {'warm us':>9s} "
        f"{'winner':>10s}",
    ]
    eager = result["series"]["eager"]
    static = result["series"]["rendezvous_static"]
    warm = result["series"]["rendezvous_warm"]
    for size in params["sizes"]:
        key = str(size)
        e, s, w = (
            eager[key]["rtt_us"], static[key]["rtt_us"], warm[key]["rtt_us"],
        )
        winner = "eager" if e < min(s, w) else (
            "warm" if w <= s else "rendezvous"
        )
        lines.append(
            f"{size:>7d} {e:>9.2f} {s:>9.2f} {w:>9.2f} {winner:>10s}"
        )
    head = result["headline"]
    lines.append(
        f"crossover: static at {head['crossover_static']} B, warm at "
        f"{head['crossover_warm']} B (predictor moved it "
        f"{head['crossover_static'] // max(head['crossover_warm'], 1)}x left)"
    )
    mixed = result["mixed"]
    lines.append(
        f"mixed workload ({params['mixed_small_bytes']} B / "
        f"{params['mixed_large_bytes']} B, {params['mixed_callers']} callers "
        f"x {params['mixed_ops']} ops): adaptive "
        f"{head['mixed_speedup']:.3f}x over static "
        f"(hits {mixed['adaptive']['predictor_hits']}, misses "
        f"{mixed['adaptive']['predictor_misses']}, preposted "
        f"{mixed['adaptive']['preposted_sends']}; hit rate "
        f"{mixed['adaptive']['early_hit_rate']:.2f} -> "
        f"{mixed['adaptive']['late_hit_rate']:.2f})"
    )
    return "\n".join(lines)

"""Hostile-network campaign: the HA x fault x scheduler matrix.

One run sweeps the cross-product ``{fabric} x {fault plan} x
{callqueue}`` over an HA RPC service pair and emits a single
comparative report:

* **fabric** — ``rpcoib`` (native IB engine with graceful degradation)
  vs ``sockets`` (the stock sockets engine on the same IPoIB network);
* **fault plan** — ``ha`` (crash + restart of the active), ``chaos``
  (packet loss + a network partition isolating the active), ``abusive``
  (one tenant floods the shared server for the whole run);
* **callqueue** — ``fifo`` vs ``fair`` (FairCallQueue + decay
  scheduler with server-suggested backoff).

Every cell runs the same workload: an active/standby
:class:`~repro.ha.HaPingPongService` pair over a shared journal with a
:class:`~repro.ha.FailoverController`, and eight tenants calling
through client-side :class:`~repro.rpc.failover.FailoverProxy` stubs —
``t7`` turns hostile only under the ``abusive`` plan's
``abusive_tenant`` rule.  Per cell the report carries victim p50/p99,
the unavailability window (fence -> promote, when the plan kills the
active), RDMA->socket fallbacks, retry/failover counts, and the
**liveness** ledger (issued = completed + raised, none hung).  Each
cell also asserts at-most-one-active and zero acknowledged-op loss
(the final actives' applied op count equals the journal's committed
length).

``REPRO_CAMPAIGN_MATRIX=smoke`` (or ``run(matrix="smoke")``) shrinks
the sweep to one fabric and two plans for CI; the default matrix is
the full 12-cell product.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro.calibration import FABRICS, IPOIB_QDR
from repro.config import Configuration
from repro.experiments import driver
from repro.experiments.qos import VARIANTS as QUEUE_VARIANTS
from repro.faults import FaultPlan
from repro.faults import runtime as faults_runtime
from repro.ha.controller import FailoverController
from repro.ha.journal import SharedJournal
from repro.ha.participant import HAServiceProtocol
from repro.ha.service import HaPingPongService
from repro.ha.state import HaStateTracker
from repro.io.writables import BytesWritable
from repro.rpc.engine import RPC
from repro.rpc.failover import FailoverProxy
from repro.rpc.microbench import PingPongProtocol

NUM_TENANTS = 8
HOSTILE = "t7"
VICTIM_OPS = 50
VICTIM_THINK_US = 25_000.0
HOSTILE_STREAMS = 16
HOSTILE_OPS_PER_STREAM = 25
HOSTILE_THINK_US = 5_000.0
PAYLOAD_BYTES = 512
#: takeover must land inside this window after the plan's first
#: active-killing event (3 x (80 ms cadence + 120 ms probe timeout)
#: detection, plus catch-up and promotion).
UNAVAILABILITY_BOUND_US = 1_200_000.0

FABRIC_VARIANTS: Dict[str, Tuple] = {
    "rpcoib": (IPOIB_QDR, True),
    "sockets": (FABRICS["ipoib"], False),
}

PLAN_DICTS: Dict[str, Dict] = {
    "ha": {
        "label": "campaign-ha",
        "note": "crash the active service node mid-run, restart it later",
        "events": [
            {"kind": "node_crash", "at": 500_000, "node": "svc0"},
            {"kind": "node_restart", "at": 2_500_000, "node": "svc0"},
        ],
    },
    "chaos": {
        "label": "campaign-chaos",
        "note": "packet loss, then a partition isolates the active",
        "events": [
            {"kind": "packet_loss", "at": 0, "until": 1_000_000, "rate": 0.01,
             "rto_us": 10_000},
            {"kind": "partition", "at": 600_000, "until": 1_800_000,
             "between": [["svc0"],
                         ["svc1", "fc",
                          "t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"]]},
        ],
    },
    "abusive": {
        "label": "campaign-abusive",
        "note": "tenant t7 floods the shared server for the whole run",
        "events": [
            {"kind": "abusive_tenant", "at": 0, "node": HOSTILE, "factor": 50.0},
        ],
    },
}

#: Small shared server (one tenant *can* saturate it) + tight failure
#: detection so takeover fits the campaign's sub-second fault windows.
BASE_CONF = {
    "ipc.server.handler.count": 2,
    "ipc.server.callqueue.size": 16,
    "ipc.client.call.timeout": 150_000.0,
    "ipc.client.call.max.retries": 2,
    "ipc.client.call.retry.interval": 10_000.0,
    "ipc.client.connect.max.retries": 3,
    "ipc.client.connect.retry.interval": 25_000.0,
    "ipc.client.failover.sleep.base": 50_000.0,
    "ipc.client.failover.sleep.max": 1_000_000.0,
    "dfs.ha.failover.check.interval": 80_000.0,
    "dfs.ha.failover.probe.timeout": 120_000.0,
    "dfs.ha.tail-edits.period": 100_000.0,
}

#: The full matrix and the CI-sized reduction.
MATRICES: Dict[str, Dict[str, List[str]]] = {
    "full": {
        "fabrics": ["rpcoib", "sockets"],
        "plans": ["ha", "chaos", "abusive"],
        "queues": ["fifo", "fair"],
    },
    "smoke": {
        "fabrics": ["rpcoib"],
        "plans": ["ha", "abusive"],
        "queues": ["fifo", "fair"],
    },
}


def _run_cell(fabric_key: str, plan_key: str, queue_key: str) -> Dict:
    """One matrix cell: a fresh HA pair + 8 tenants under one plan."""
    network, ib_enabled = FABRIC_VARIANTS[fabric_key]
    scenario = driver.Scenario()
    env, fabric = scenario.env, scenario.fabric
    svc_nodes = [fabric.add_node("svc0"), fabric.add_node("svc1")]
    fc_node = fabric.add_node("fc")
    tenants = [fabric.add_node(f"t{i}") for i in range(NUM_TENANTS)]
    conf = Configuration(
        {**BASE_CONF, **QUEUE_VARIANTS[queue_key], "rpc.ib.enabled": ib_enabled}
    )

    journal = SharedJournal()
    tracker = HaStateTracker(env)
    services: List[HaPingPongService] = []
    for i, node in enumerate(svc_nodes):
        service = HaPingPongService(
            env,
            node.name,
            journal,
            tracker=tracker,
            gauge=fabric.metrics.gauge("ha.active", node=node.name),
            tail_period_us=conf.get_float("dfs.ha.tail-edits.period"),
        )
        server = RPC.get_server(
            fabric, node, 9000, service,
            [PingPongProtocol, HAServiceProtocol], network, conf=conf,
            name=f"ha-svc@{node.name}",
        )
        service.address = server.address
        services.append(service)
    epoch = journal.new_epoch(services[0].ha_name)
    services[0].transition_to_active(epoch)
    controller = FailoverController(
        fabric, fc_node, services, journal, conf=conf, spec=network
    )

    payload = BytesWritable(b"\x5a" * PAYLOAD_BYTES)
    addresses = [service.address for service in services]
    proxies = [
        FailoverProxy(
            RPC.get_client(
                fabric, node, network, conf=conf, name=f"campaign:{node.name}"
            ),
            addresses, PingPongProtocol,
        )
        for node in tenants
    ]
    abusive_factor = driver.hostile_factor(fabric, HOSTILE)
    # t7 turns hostile only when the armed plan amplifies it.
    scenario.spawn_tenants(
        "campaign",
        {
            node.name: driver.pinger(proxy, payload)
            for node, proxy in zip(tenants, proxies)
        },
        HOSTILE if abusive_factor > 1.0 else None, HOSTILE_STREAMS,
        dict(
            ops=HOSTILE_OPS_PER_STREAM,
            think_us=HOSTILE_THINK_US / abusive_factor,
        ),
        dict(ops=VICTIM_OPS, think_us=VICTIM_THINK_US),
    )
    groups = scenario.run()
    makespan_us = env.now
    # rejoin/catch-up slack: a restarted or healed member tails back.
    env.run(until=env.now + 1_000_000.0)

    tracker.assert_at_most_one_active()
    active = next(
        (s for s in services if s.ha_state.value == "active"), None
    )
    assert active is not None, f"no active member after {plan_key} cell"
    # Zero acknowledged-op loss: every acknowledged (journaled) op is
    # reflected on the current active, and every member caught up.
    assert active.applied_ops == len(journal), (
        active.applied_ops, len(journal),
    )
    assert all(s.applied_txid == journal.last_txid for s in services), [
        (s.ha_name, s.applied_txid) for s in services
    ]

    total = driver.pool(groups.values())
    victim_latencies = driver.pool(
        g for name, g in groups.items() if name != HOSTILE
    ).latencies
    disruptions = [
        e.at
        for e in (fabric.faults.plan.events if fabric.faults else [])
        if e.kind in ("node_crash", "partition")
    ]
    takeover_us = next(
        (
            t
            for t, name, state in tracker.transitions
            if state == "active" and name != services[0].ha_name
        ),
        None,
    )
    unavailability_us = (
        takeover_us - min(disruptions)
        if takeover_us is not None and disruptions
        else None
    )
    return {
        "cell": f"{fabric_key}+{plan_key}+{queue_key}",
        "fabric": fabric_key,
        "plan": plan_key,
        "queue": queue_key,
        "issued": total.issued,
        "completed": total.completed,
        "raised": total.raised,
        "victim_p50_us": driver.percentile(victim_latencies, 50.0),
        "victim_p99_us": driver.percentile(victim_latencies, 99.0),
        "unavailability_us": unavailability_us,
        "failovers": controller.failovers,
        "proxy_failovers": sum(p.failovers for p in proxies),
        "standby_rejections": sum(s.standby_rejections for s in services),
        "fallbacks": driver.counter_sum(fabric, "rpc.ib.fallbacks"),
        "rejected_overload": driver.counter_sum(
            fabric, "rpc.server.calls_rejected_overload"
        ),
        "journal_ops": len(journal),
        "faults_injected": fabric.faults.injected if fabric.faults else 0,
        "makespan_us": makespan_us,
    }


def run(matrix: Optional[str] = None) -> Dict:
    """Sweep the campaign matrix; one comparative report, per-cell bars."""
    matrix_key = matrix or os.environ.get("REPRO_CAMPAIGN_MATRIX", "full")
    if matrix_key not in MATRICES:
        raise ValueError(
            f"unknown campaign matrix {matrix_key!r} "
            f"(choose from {sorted(MATRICES)})"
        )
    shape = MATRICES[matrix_key]

    def sweep() -> List[Dict]:
        cells = []
        for fabric_key in shape["fabrics"]:
            for plan_key in shape["plans"]:
                plan = FaultPlan.from_dict(PLAN_DICTS[plan_key])
                with faults_runtime.session(
                    plan, label=f"campaign-{plan_key}"
                ):
                    for queue_key in shape["queues"]:
                        cells.append(
                            _run_cell(fabric_key, plan_key, queue_key)
                        )
        return cells

    if faults_runtime.current() is not None:
        # An externally armed plan (--faults) would shadow the matrix's
        # own per-cell plans; mask it for the sweep.
        with faults_runtime.suppressed():
            cells = sweep()
    else:
        cells = sweep()

    by_cell = {cell["cell"]: cell for cell in cells}
    # Per-plan acceptance bars.
    for cell in cells:
        if cell["plan"] in ("ha", "chaos"):
            # The plan kills the active: takeover must happen, inside
            # the documented bound.
            assert cell["failovers"] >= 1, cell
            assert cell["unavailability_us"] is not None, cell
            assert 0.0 <= cell["unavailability_us"] <= UNAVAILABILITY_BOUND_US, cell
        if cell["plan"] == "abusive":
            assert cell["failovers"] == 0, cell
    for fabric_key in shape["fabrics"]:
        if "abusive" in shape["plans"] and {"fifo", "fair"} <= set(
            shape["queues"]
        ):
            fifo = by_cell[f"{fabric_key}+abusive+fifo"]
            fair = by_cell[f"{fabric_key}+abusive+fair"]
            # FairCallQueue holds the victims' tail under the flood.
            assert fair["victim_p99_us"] <= fifo["victim_p99_us"], (
                fifo["victim_p99_us"], fair["victim_p99_us"],
            )
    return {
        "matrix": matrix_key,
        "shape": shape,
        "cells": cells,
    }


def format_result(result: Dict) -> str:
    lines = [
        f"campaign matrix: {result['matrix']} — {len(result['cells'])} cells "
        f"({' x '.join(','.join(v) for v in result['shape'].values())})",
        f"{'cell':<24s} {'done':>5s} {'raise':>5s} {'v.p50 ms':>9s} "
        f"{'v.p99 ms':>9s} {'unavail ms':>10s} {'fo':>3s} {'fb':>3s} "
        f"{'rej':>4s} {'ops':>5s}",
    ]
    for cell in result["cells"]:
        unavail = (
            f"{cell['unavailability_us'] / 1e3:.0f}"
            if cell["unavailability_us"] is not None
            else "-"
        )
        lines.append(
            f"{cell['cell']:<24s} {cell['completed']:>5d} {cell['raised']:>5d} "
            f"{cell['victim_p50_us'] / 1e3:>9.1f} "
            f"{cell['victim_p99_us'] / 1e3:>9.1f} {unavail:>10s} "
            f"{cell['failovers']:>3d} {cell['fallbacks']:>3d} "
            f"{cell['rejected_overload']:>4d} {cell['journal_ops']:>5d}"
        )
    lines.append(
        "liveness: every cell settled issued = completed + raised; "
        "at-most-one-active and zero acknowledged-op loss asserted per cell"
    )
    return "\n".join(lines)

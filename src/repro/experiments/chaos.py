"""Chaos experiment: the Fig. 5 workload under an adversarial fault plan.

Runs a staggered multi-client ping-pong workload (the paper's RPC
micro-benchmark shape) against one RPCoIB server while a canned
:class:`~repro.faults.plan.FaultPlan` injects, in order: forced
endpoint-bootstrap failures (RPCoIB degrades to sockets immediately),
packet loss, a mid-stream QP break (RPCoIB degrades to sockets with
in-flight calls re-issued), a network partition, a slow NIC, a full
server crash + restart, and wire corruption.

The experiment asserts the **liveness invariant** the failure-semantics
layer guarantees: every issued call either completes or raises a typed
exception — none hang — and the run terminates.  It reports
availability (completed/issued), the error breakdown, the RDMA->socket
fallback count, and latency degradation against a clean baseline of the
identical workload (run with the fault session suppressed).

``python -m repro.experiments chaos`` uses the canned default plan;
``--faults plan.json`` substitutes any other plan.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional

from repro.calibration import IPOIB_QDR
from repro.config import Configuration
from repro.experiments import driver
from repro.faults import FaultPlan
from repro.faults import runtime as faults_runtime
from repro.io.writables import BytesWritable
from repro.rpc.engine import RPC
from repro.rpc.microbench import PingPongProtocol, PingPongService

#: workload shape: enough clients/ops, staggered and paced, to keep
#: traffic flowing across every fault window of the default plan (~2.5 s).
NUM_CLIENTS = 8
OPS_PER_CLIENT = 40
PAYLOAD_BYTES = 512
STAGGER_US = 60_000.0  # client i starts at i * 60 ms
THINK_US = 50_000.0  # pause between ops: stretches the run over the plan

#: The canned chaos schedule (times in simulated microseconds); the same
#: plan ships as ``examples/faultplans/chaos.json`` for the CLI.
DEFAULT_PLAN_DICT = {
    "label": "chaos-default",
    "note": "bootstrap failure, loss, qp break, partition, slow NIC, "
    "server crash/restart, corruption",
    "events": [
        {"kind": "ib_bootstrap_failure", "at": 0, "until": 200_000, "rate": 1.0},
        {"kind": "packet_loss", "at": 0, "until": 1_500_000, "rate": 0.03,
         "rto_us": 30_000},
        {"kind": "qp_break", "at": 450_000, "node": "server"},
        {"kind": "partition", "at": 700_000, "until": 900_000,
         "between": [["cn0", "cn1", "cn2", "cn3", "cn4", "cn5", "cn6", "cn7"],
                     ["server"]]},
        {"kind": "slow_nic", "at": 1_000_000, "until": 1_200_000,
         "node": "server", "factor": 8.0},
        {"kind": "node_crash", "at": 1_300_000, "node": "server"},
        {"kind": "node_restart", "at": 1_600_000, "node": "server"},
        {"kind": "corruption", "at": 1_700_000, "until": 1_900_000, "rate": 0.05},
    ],
}

#: failure-semantics tuning: tight timeouts/retries so every fault is
#: detected and resolved well within the simulated window.
CHAOS_CONF = {
    "rpc.ib.enabled": True,
    "ipc.server.handler.count": 8,
    "ipc.client.call.timeout": 400_000.0,
    "ipc.client.call.max.retries": 6,
    "ipc.client.call.retry.interval": 50_000.0,
    "ipc.client.connect.max.retries": 8,
    "ipc.client.connect.retry.interval": 50_000.0,
    "ipc.client.connect.retry.policy": "exponential",
    "ipc.ping.interval": 100_000.0,
    "ipc.client.connection.maxidletime": 2_000_000.0,
}


def _run_workload() -> Dict:
    """One full workload run on a fresh Environment; faults attach iff a
    session is installed (and not suppressed) when the Fabric is built."""
    scenario = driver.Scenario()
    fabric = scenario.fabric
    conf = Configuration(dict(CHAOS_CONF))
    server = scenario.serve(IPOIB_QDR, conf, PingPongService())
    payload = BytesWritable(b"\x5a" * PAYLOAD_BYTES)

    def connect(node):
        client = RPC.get_client(fabric, node, IPOIB_QDR, conf=conf)
        proxy = RPC.get_proxy(PingPongProtocol, server.address, client)
        return driver.pinger(proxy, payload)

    for i, node in enumerate(fabric.add_nodes("cn", NUM_CLIENTS)):
        scenario.spawn(
            f"chaos-client{i}", "clients", ops=OPS_PER_CLIENT,
            think_us=THINK_US, stagger_us=i * STAGGER_US,
            connect=partial(connect, node),
        )
    clients = scenario.run()["clients"]
    latencies = clients.latencies
    return {
        "issued": clients.issued,
        "completed": clients.completed,
        "raised": clients.raised,
        "errors": dict(sorted(clients.errors.items())),
        "mean_latency_us": sum(latencies) / len(latencies) if latencies else 0.0,
        "fallbacks": driver.counter_sum(fabric, "rpc.ib.fallbacks"),
        "faults_injected": (
            fabric.faults.injected if fabric.faults is not None else 0
        ),
        "makespan_us": scenario.env.now,
    }


def run(plan: Optional[FaultPlan] = None) -> Dict:
    """Chaos run + clean baseline; asserts liveness and fallback use."""
    with driver.armed(plan, DEFAULT_PLAN_DICT, "chaos") as used_plan:
        faulted = _run_workload()
    with faults_runtime.suppressed():
        clean = _run_workload()

    expected = NUM_CLIENTS * OPS_PER_CLIENT
    # Liveness: the run terminated (env.run returned), every call was
    # issued, and the driver saw each one complete or raise.  A hung call
    # would either deadlock env.run or break that ledger.
    assert faulted["issued"] == expected, faulted
    assert clean["completed"] == expected, clean
    ib_fault_kinds = {"qp_break", "ib_bootstrap_failure"} & set(used_plan.kinds())
    if ib_fault_kinds:
        assert faulted["fallbacks"] >= 1, (
            f"plan injects {sorted(ib_fault_kinds)} but no RDMA->socket "
            f"fallback was recorded"
        )
    availability = faulted["completed"] / faulted["issued"]
    degradation = (
        faulted["mean_latency_us"] / clean["mean_latency_us"]
        if clean["mean_latency_us"] > 0
        else 0.0
    )
    return {
        "plan": driver.plan_summary(used_plan),
        "faulted": faulted,
        "clean": clean,
        "availability": availability,
        "latency_degradation": degradation,
    }


def format_result(result: Dict) -> str:
    faulted, clean = result["faulted"], result["clean"]
    plan = result["plan"]
    error_lines = [
        f"  {name:<28s} {count:>4d}"
        for name, count in faulted["errors"].items()
    ] or ["  (none)"]
    return "\n".join(
        [
            f"chaos plan: {plan['label'] or '(inline)'} — {plan['events']} "
            f"events ({', '.join(plan['kinds'])})",
            f"liveness: {faulted['issued']} issued = "
            f"{faulted['completed']} completed + {faulted['raised']} raised "
            f"(none hung)",
            f"availability: {result['availability']:.1%}   "
            f"faults injected: {faulted['faults_injected']}   "
            f"RDMA->socket fallbacks: {faulted['fallbacks']}",
            "typed failures:",
            *error_lines,
            f"mean latency: {faulted['mean_latency_us']:.1f} us under faults "
            f"vs {clean['mean_latency_us']:.1f} us clean "
            f"({result['latency_degradation']:.1f}x degradation)",
            f"makespan: {faulted['makespan_us'] / 1e6:.2f} s under faults vs "
            f"{clean['makespan_us'] / 1e6:.2f} s clean",
        ]
    )

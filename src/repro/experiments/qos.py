"""QoS experiment: hostile-tenant Fig. 5 variant, FIFO vs FairCallQueue.

Eight tenants share one small RPC server (2 handlers, 32-deep call
queue).  Tenant ``t0`` is hostile: the fault plane's ``abusive_tenant``
rule amplifies it to ``HOSTILE_STREAMS`` concurrent call streams with
its think time divided by the rule's factor, so it alone can keep the
call queue saturated.  Tenants ``t1..t7`` are well-behaved: one paced
stream each.

The sweep runs the identical workload twice — ``ipc.callqueue.impl``
``fifo`` then ``fair`` — and reports per-tenant p50/p99 latency and
throughput.  Under FIFO the victims' tail collapses (their calls wait
behind, or are rejected by, a queue full of ``t0``); under the
FairCallQueue + DecayRpcScheduler the hostile tenant decays to the
lowest priority, its over-limit calls get ``RetriableException`` +
server-suggested backoff (``ipc.backoff.enable``), and the weighted
round-robin multiplexer keeps draining the victims' sub-queue — their
p99 stays near-flat.  The headline asserts the acceptance bar:
victim p99 under fair <= 0.5x its FIFO value.

Fully deterministic: fixed think times, no ambient RNG, and the fault
plan's draws come from seeded named streams.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.calibration import FABRICS
from repro.config import Configuration
from repro.experiments import driver
from repro.faults import FaultPlan
from repro.io.writables import BytesWritable
from repro.rpc.engine import RPC
from repro.rpc.microbench import PingPongProtocol

NUM_TENANTS = 8
HOSTILE = "t0"
#: concurrent call streams the hostile tenant runs (victims run one).
HOSTILE_STREAMS = 48
HOSTILE_OPS_PER_STREAM = 30
VICTIM_OPS = 30
PAYLOAD_BYTES = 512
#: simulated per-call handler work: what makes the 2-handler server a
#: genuinely scarce resource (a pure echo drains faster than one socket
#: can deliver, and no queue ever forms).
SERVICE_US = 400.0
#: victims pace themselves; the hostile tenant's think time is this
#: divided by the abusive_tenant factor (so ~100 us at factor 50).
VICTIM_THINK_US = 2_000.0
HOSTILE_THINK_US = 5_000.0


class QosService(PingPongProtocol):
    """Echo with ``SERVICE_US`` of simulated handler compute per call."""

    def __init__(self, env):
        self.env = env

    def pingpong(self, payload: BytesWritable) -> BytesWritable:
        def work():
            yield self.env.timeout(SERVICE_US)
            return payload

        return work()

#: The canned hostile-tenant schedule; ships as
#: ``examples/faultplans/abusive.json`` for the CLI.
DEFAULT_PLAN_DICT = {
    "label": "qos-abusive-tenant",
    "note": "tenant t0 floods the server for the whole run",
    "events": [
        {"kind": "abusive_tenant", "at": 0, "node": HOSTILE, "factor": 50.0},
    ],
}

#: Small server so one tenant *can* saturate it: 2 handlers and a
#: 2*16=32-deep call queue against 48 hostile streams.
BASE_CONF = {
    "ipc.server.handler.count": 2,
    "ipc.server.callqueue.size": 16,
    # Rejections retry with exponential backoff (base 10 ms); 10
    # attempts bound the worst single wait at ~5 s of sim time.
    "ipc.client.call.max.retries": 10,
    "ipc.client.call.retry.interval": 10_000.0,
}

VARIANTS: Dict[str, Dict] = {
    "fifo": {"ipc.callqueue.impl": "fifo"},
    "fair": {
        "ipc.callqueue.impl": "fair",
        "ipc.backoff.enable": True,
        "scheduler.priority.levels": 4,
        "decay-scheduler.period": 50_000.0,
        "decay-scheduler.decay-factor": 0.5,
    },
}


def tenant_bed(conf: Configuration) -> Tuple[driver.Scenario, object, Dict]:
    """The bed qos and operator share: tenants ``t0..t7`` calling one
    QosService echo server over IPoIB.  Returns the scenario, the server
    and each tenant's call."""
    scenario = driver.Scenario()
    network = FABRICS["ipoib"]
    server = scenario.serve(network, conf, QosService(scenario.env))
    payload = BytesWritable(b"\x5a" * PAYLOAD_BYTES)
    calls = {}
    for node in scenario.fabric.add_nodes("t", NUM_TENANTS):
        client = RPC.get_client(scenario.fabric, node, network, conf=conf)
        proxy = RPC.get_proxy(PingPongProtocol, server.address, client)
        calls[node.name] = driver.pinger(proxy, payload)
    return scenario, server, calls


def _run_workload(impl: str) -> Dict:
    """One full 8-tenant run with the given ``ipc.callqueue.impl``."""
    scenario, server, calls = tenant_bed(
        Configuration({**BASE_CONF, **VARIANTS[impl]})
    )
    fabric = scenario.fabric
    abusive_factor = driver.hostile_factor(fabric, HOSTILE)
    scenario.spawn_tenants(
        f"qos-{impl}", calls, HOSTILE, HOSTILE_STREAMS,
        dict(
            ops=HOSTILE_OPS_PER_STREAM,
            think_us=HOSTILE_THINK_US / abusive_factor,
        ),
        dict(ops=VICTIM_OPS, think_us=VICTIM_THINK_US),
    )
    groups = scenario.run()
    server.stop()
    victims = driver.pool(g for name, g in groups.items() if name != HOSTILE)
    # Conservation: every victim call was issued, and the driver saw each
    # one complete or raise — none hung (env.run returned).
    assert victims.issued == (NUM_TENANTS - 1) * VICTIM_OPS, victims.issued

    tenant_rows = {}
    for name, group in sorted(groups.items()):
        window_us = (group.end or 0.0) - (group.start or 0.0)
        tenant_rows[name] = dict(
            driver.summary(group),
            throughput_ops_s=(
                group.completed / window_us * 1e6 if window_us > 0 else 0.0
            ),
        )
    return {
        "impl": impl,
        "tenants": tenant_rows,
        "victims": {
            "completed": victims.completed,
            "p50_us": driver.percentile(victims.latencies, 50.0),
            "p99_us": driver.percentile(victims.latencies, 99.0),
        },
        "rejected_overload": driver.counter_sum(
            fabric, "rpc.server.calls_rejected_overload"
        ),
        "makespan_us": scenario.env.now,
    }


def run(plan: Optional[FaultPlan] = None) -> Dict:
    """FIFO-vs-fair hostile-tenant sweep; asserts the fairness bar."""
    with driver.armed(plan, DEFAULT_PLAN_DICT, "qos") as used_plan:
        fifo = _run_workload("fifo")
        fair = _run_workload("fair")

    ratio = (
        fair["victims"]["p99_us"] / fifo["victims"]["p99_us"]
        if fifo["victims"]["p99_us"] > 0 else 0.0
    )
    # The acceptance bar: FairCallQueue holds the well-behaved tenants'
    # tail at <= half its FIFO collapse.
    assert ratio <= 0.5, (
        f"victim p99 ratio fair/fifo = {ratio:.3f} "
        f"(fair {fair['victims']['p99_us']:.0f} us, "
        f"fifo {fifo['victims']['p99_us']:.0f} us)"
    )
    return {
        "plan": driver.plan_summary(used_plan),
        "fifo": fifo,
        "fair": fair,
        "victim_p99_ratio": ratio,
    }


def format_result(result: Dict) -> str:
    lines = [
        f"qos plan: {result['plan']['label'] or '(inline)'} — "
        f"{result['plan']['events']} event(s) "
        f"({', '.join(result['plan']['kinds'])})",
        f"{'tenant':<8s} {'queue':<6s} {'done':>5s} {'raised':>6s} "
        f"{'p50 us':>10s} {'p99 us':>12s} {'ops/s':>9s}",
    ]
    for impl in ("fifo", "fair"):
        variant = result[impl]
        for name, stats in variant["tenants"].items():
            tag = " (hostile)" if name == HOSTILE else ""
            lines.append(
                f"{name + tag:<8s} {impl:<6s} {stats['completed']:>5d} "
                f"{stats['raised']:>6d} {stats['p50_us']:>10.1f} "
                f"{stats['p99_us']:>12.1f} {stats['throughput_ops_s']:>9.1f}"
            )
        lines.append(
            f"{impl}: victim p99 {variant['victims']['p99_us']:.1f} us, "
            f"rejections {variant['rejected_overload']}, "
            f"makespan {variant['makespan_us'] / 1e6:.2f} s"
        )
    lines.append(
        f"victim p99 fair/fifo = {result['victim_p99_ratio']:.3f} "
        f"(bar: <= 0.5 — FairCallQueue holds the tail)"
    )
    return "\n".join(lines)

"""Failover experiment: crash the active NameNode mid-workload.

An HA HDFS deployment (two NameNodes over a shared journal, a
:class:`~repro.ha.FailoverController`, DataNodes fanning control
traffic to both members, clients on a
:class:`~repro.rpc.failover.FailoverProxy`) runs a staggered
multi-client write workload while the canned plan crashes the active
NameNode at t=2 s and restarts it at t=8 s.

The run asserts the HA acceptance bar:

* **takeover** — the standby is promoted (fence -> catch-up ->
  transition), and the at-most-one-active ledger never shows two
  actives;
* **zero acknowledged-write loss** — every write the clients saw
  complete is fully present on the post-takeover active: file closed,
  full length, every block with a confirmed replica;
* **bounded unavailability** — promotion lands within
  :data:`UNAVAILABILITY_BOUND_US` of the crash (detector cadence
  ``dfs.ha.failover.check.interval`` x ``failure.threshold`` plus one
  probe timeout and the catch-up replay);
* **rejoin** — the restarted NameNode comes back *as a standby* (it
  was fenced while down) and tails the journal back to the tip;
* **liveness** — every issued write completes or raises, none hang.

A clean baseline (same workload, fault session suppressed) pins the
no-failover numbers next to the faulted ones.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.calibration import IPOIB_QDR
from repro.config import Configuration
from repro.experiments import driver
from repro.faults import FaultPlan
from repro.faults import runtime as faults_runtime
from repro.hdfs.cluster import HdfsCluster

NUM_DATANODES = 3
NUM_CLIENTS = 2
NUM_WRITES = 12
FILE_BYTES = 8 * 1024 * 1024
STAGGER_US = 400_000.0  # write i starts at i * 400 ms
CRASH_AT_US = 2_000_000.0
RESTART_AT_US = 8_000_000.0
#: the documented unavailability bound: 3 consecutive probe failures at
#: a 150 ms (+5% jitter) cadence, each waiting out the 200 ms probe
#: timeout, plus catch-up replay and promotion — comfortably under 1.5 s.
UNAVAILABILITY_BOUND_US = 1_500_000.0

#: The canned HA fault schedule; ships as
#: ``examples/faultplans/ha.json`` for the CLI.
DEFAULT_PLAN_DICT = {
    "label": "ha-failover",
    "note": "crash the active NameNode mid-workload, restart it later",
    "events": [
        {"kind": "node_crash", "at": CRASH_AT_US, "node": "nn0"},
        {"kind": "node_restart", "at": RESTART_AT_US, "node": "nn0"},
    ],
}

#: failure-semantics tuning: tight client timeouts so a dead NameNode is
#: detected in one call-timeout, and the failover proxy's backoff keeps
#: re-probing well inside the controller's takeover window.
HA_CONF = {
    "dfs.block.size": FILE_BYTES,
    "dfs.replication": 3,
    "ipc.client.call.timeout": 400_000.0,
    "ipc.client.call.max.retries": 2,
    "ipc.client.connect.max.retries": 3,
    "ipc.client.connect.retry.interval": 50_000.0,
}


def _run_workload() -> Dict:
    """One full HA write workload on a fresh Environment; faults attach
    iff a session is installed (and not suppressed) at Fabric build."""
    scenario = driver.Scenario()
    env, fabric = scenario.env, scenario.fabric
    nn0 = fabric.add_node("nn0")
    nn1 = fabric.add_node("nn1")
    fc = fabric.add_node("fc")
    dn_nodes = fabric.add_nodes("dn", NUM_DATANODES)
    client_nodes = fabric.add_nodes("cn", NUM_CLIENTS)
    conf = Configuration(dict(HA_CONF))
    cluster = HdfsCluster(
        fabric,
        nn0,
        dn_nodes,
        IPOIB_QDR,
        conf=conf,
        standby_node=nn1,
        controller_node=fc,
    )
    clients = [cluster.client(node) for node in client_nodes]
    env.run(cluster.wait_ready())

    acknowledged: List[str] = []
    for i in range(NUM_WRITES):
        client, path = clients[i % NUM_CLIENTS], f"/f{i}"
        scenario.spawn(
            f"failover-writer{i}", "writes",
            lambda _, client=client, path=path: client.write_file(
                path, FILE_BYTES
            ),
            ops=1, stagger_us=i * STAGGER_US,
            raises=driver.RAISES + (RuntimeError,),
            on_done=lambda _, path=path: acknowledged.append(path),
        )
    writes = scenario.run()["writes"]
    latencies = writes.latencies
    makespan_us = env.now
    # Let the restarted member rejoin and tail back to the journal tip
    # (heartbeat/tail cadences are well under this slack).
    env.run(until=max(env.now, RESTART_AT_US) + 2_000_000.0)

    tracker = cluster.ha_tracker
    tracker.assert_at_most_one_active()
    initial_active = cluster.namenode
    takeover_us = next(
        (
            t
            for t, name, state in tracker.transitions
            if state == "active" and name != initial_active.node.name
        ),
        None,
    )
    active = cluster.active_namenode()
    assert active is not None, "no active NameNode after the run"

    # Zero acknowledged-write loss: every write the clients saw complete
    # is fully durable on whoever serves now.
    lost: List[str] = []
    for path in acknowledged:
        inode = active.namespace.get(path)
        if (
            inode is None
            or inode.under_construction
            or inode.length != FILE_BYTES
            or any(len(block.replicas) < 1 for block in inode.blocks)
        ):
            lost.append(path)

    faults = fabric.faults
    standby_rejected = sum(
        member.stats["standby_rejected"] for member in cluster.namenodes
    )
    return {
        "issued": writes.issued,
        "completed": writes.completed,
        "raised": writes.raised,
        "errors": dict(sorted(writes.errors.items())),
        "acknowledged": len(acknowledged),
        "lost": lost,
        "mean_write_us": sum(latencies) / len(latencies) if latencies else 0.0,
        "max_write_us": max(latencies) if latencies else 0.0,
        "makespan_us": makespan_us,
        "active_final": active.node.name,
        "takeover_us": takeover_us,
        "controller_failovers": cluster.controller.failovers,
        "controller_probes": cluster.controller.probes,
        "client_failovers": sum(c.namenode.failovers for c in clients),
        "standby_rejected": standby_rejected,
        "journal_entries": len(cluster.journal),
        "standby_caught_up": all(
            member.applied_txid == cluster.journal.last_txid
            for member in cluster.namenodes
        ),
        "rejoined_as_standby": initial_active.ha_state.value == "standby",
        "transitions": [list(t) for t in tracker.transitions],
        "faults_injected": faults.injected if faults is not None else 0,
    }


def run(plan: Optional[FaultPlan] = None) -> Dict:
    """Faulted HA run + clean baseline; asserts the HA acceptance bar."""
    with driver.armed(plan, DEFAULT_PLAN_DICT, "failover") as used_plan:
        faulted = _run_workload()
    with faults_runtime.suppressed():
        clean = _run_workload()

    # Liveness: the run terminated and every write was issued (the
    # driver saw each one complete or raise).
    assert faulted["issued"] == NUM_WRITES, faulted
    assert clean["completed"] == NUM_WRITES, clean
    # Zero acknowledged-write loss, faulted and clean alike.
    assert faulted["lost"] == [], f"acknowledged writes lost: {faulted['lost']}"
    assert clean["lost"] == [], clean
    crash_events = [
        e for e in used_plan.events if e.kind == "node_crash"
    ]
    unavailability_us = None
    if crash_events and faulted["takeover_us"] is not None:
        crash_at = min(e.at for e in crash_events)
        unavailability_us = faulted["takeover_us"] - crash_at
        assert 0.0 <= unavailability_us <= UNAVAILABILITY_BOUND_US, (
            f"takeover took {unavailability_us / 1e3:.0f} ms "
            f"(bound {UNAVAILABILITY_BOUND_US / 1e3:.0f} ms)"
        )
        assert faulted["controller_failovers"] >= 1, faulted
        assert faulted["rejoined_as_standby"], faulted
    # The clean baseline never fails over.
    assert clean["controller_failovers"] == 0, clean
    assert clean["client_failovers"] == 0, clean
    return {
        "plan": driver.plan_summary(used_plan),
        "faulted": faulted,
        "clean": clean,
        "unavailability_us": unavailability_us,
        "unavailability_bound_us": UNAVAILABILITY_BOUND_US,
    }


def format_result(result: Dict) -> str:
    faulted, clean = result["faulted"], result["clean"]
    plan = result["plan"]
    unavail = result["unavailability_us"]
    error_lines = [
        f"  {name:<28s} {count:>4d}"
        for name, count in faulted["errors"].items()
    ] or ["  (none)"]
    return "\n".join(
        [
            f"failover plan: {plan['label'] or '(inline)'} — "
            f"{plan['events']} events ({', '.join(plan['kinds'])})",
            f"liveness: {faulted['issued']} writes = "
            f"{faulted['completed']} completed + {faulted['raised']} raised "
            f"(none hung)",
            f"takeover: active ended on {faulted['active_final']} after "
            f"{faulted['controller_failovers']} controller failover(s); "
            + (
                f"unavailability {unavail / 1e3:.0f} ms "
                f"(bound {result['unavailability_bound_us'] / 1e3:.0f} ms)"
                if unavail is not None
                else "no takeover (plan crashes no NameNode)"
            ),
            f"durability: {faulted['acknowledged']} acknowledged writes, "
            f"{len(faulted['lost'])} lost; journal "
            f"{faulted['journal_entries']} entries, all members caught up: "
            f"{faulted['standby_caught_up']}",
            f"client path: {faulted['client_failovers']} proxy failovers, "
            f"{faulted['standby_rejected']} standby rejections",
            "typed failures:",
            *error_lines,
            f"write latency: mean {faulted['mean_write_us'] / 1e3:.1f} ms "
            f"(max {faulted['max_write_us'] / 1e3:.1f} ms) under faults vs "
            f"mean {clean['mean_write_us'] / 1e3:.1f} ms clean",
            f"makespan: {faulted['makespan_us'] / 1e6:.2f} s under faults vs "
            f"{clean['makespan_us'] / 1e6:.2f} s clean",
        ]
    )

"""Operator experiment: detect an abusive tenant live, hot-reload QoS.

The end-to-end story the live-observability plane exists for:

1. A small RPC server starts with a **misconfigured** FairCallQueue —
   flat WRR weights (``1,1,1,1``) and a threshold ladder so lenient
   (``0.97,0.98,0.99``) that even a tenant owning ~90% of the decayed
   traffic keeps top priority.  Tenant ``t0``, amplified to
   ``HOSTILE_STREAMS`` concurrent streams by the fault plane's
   ``abusive_tenant`` rule, therefore shares priority 0 — and its
   8-deep sub-queue — with every victim, and the victims' tail
   collapses exactly as under a plain FIFO.
2. At ``DETECT_AT_US`` the "operator" reads the live metrics the server
   exports — the decay scheduler's per-caller usage shares and priority
   gauges, the per-priority queue depths — and identifies the abuser.
3. A :class:`repro.config.ConfigWatcher` applies the fix at
   ``RELOAD_AT_US`` *mid-run*: Hadoop's default weights (``8,4,2,1``)
   and threshold ladder (``0.125,0.25,0.5``).  The live queue reads both
   through a configuration view: the ladder applies at its next admit,
   where the scheduler's retained decayed counts demote ``t0`` to the
   lowest priority, and the weights at its next drain.
4. Victim calls are windowed by *start time*: ``pre`` = started before
   the reload, ``post`` = started after reload + settle.  The headline
   asserts the acceptance bar — post-reload victim p99 recovers by at
   least ``RECOVERY_BAR``x.

Fully deterministic: fixed think times, duration-bound streams, no
ambient RNG (the fault plan and decay jitter use seeded named streams),
so the result is golden-fixture testable bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import Configuration, ReloadPlan
from repro.experiments import driver
from repro.experiments.qos import (
    BASE_CONF,
    DEFAULT_PLAN_DICT,
    HOSTILE,
    HOSTILE_STREAMS,
    HOSTILE_THINK_US,
    VARIANTS,
    VICTIM_THINK_US,
    tenant_bed,
)
from repro.faults import FaultPlan

#: Simulated run length; streams are duration-bound (not op-bound) so
#: hostile pressure persists through the whole post-reload window.
END_US = 800_000.0
#: The operator reads the live metrics here ...
DETECT_AT_US = 300_000.0
#: ... and the scheduled reload lands here.
RELOAD_AT_US = 400_000.0
#: Post-window guard: backlog queued under the bad config drains first.
SETTLE_US = 50_000.0
#: Acceptance bar: victim p99 must improve at least this much.
RECOVERY_BAR = 2.0

#: qos's hostile-tenant plan under the operator's label.
PLAN_DICT = {**DEFAULT_PLAN_DICT, "label": "operator-abusive-tenant"}

#: Mis-tuned launch config: qos's fair server, fair queue in name only.
INITIAL_CONF = {
    **BASE_CONF,
    **VARIANTS["fair"],
    "ipc.callqueue.fair.weights": "1,1,1,1",
    "decay-scheduler.thresholds": "0.97,0.98,0.99",
}

#: The operator's fix, applied live at RELOAD_AT_US.
RELOAD_SET = {
    "ipc.callqueue.fair.weights": "8,4,2,1",
    "decay-scheduler.thresholds": "0.125,0.25,0.5",
}


def _run_story() -> Dict:
    conf = Configuration(INITIAL_CONF)
    scenario, server, calls = tenant_bed(conf)
    env, fabric = scenario.env, scenario.fabric
    abusive_factor = driver.hostile_factor(fabric, HOSTILE)

    watcher = ReloadPlan.from_dict(
        {"updates": [{"at_us": RELOAD_AT_US, "set": dict(RELOAD_SET)}]}
    ).watch(env, conf, name="operator-reload")

    detection: Dict = {}

    def detector_proc(env):
        """The operator's look at the live metrics, before acting."""
        yield env.timeout(DETECT_AT_US)
        scheduler = server.call_queue.scheduler
        shares = (
            {c: n / scheduler.total for c, n in scheduler.counts.items()}
            if scheduler.total > 0 else {}
        )
        top = max(sorted(shares), key=lambda c: shares[c]) if shares else ""
        priorities = {
            key.split("caller=", 1)[1].split(",", 1)[0].rstrip("}"): g.value
            for key, g in fabric.metrics.find(
                "rpc.scheduler.caller_priority"
            ).items()
        }
        depths = {
            str(level): server.call_queue.depth(level)
            for level in range(server.call_queue.levels)
        }
        detection.update(
            t_us=env.now,
            top_caller=top,
            top_share=shares.get(top, 0.0),
            top_priority=priorities.get(top, 0.0),
            queue_depths=depths,
        )

    scenario.procs.append(
        env.process(detector_proc(env), name="operator-detector")
    )
    scenario.spawn_tenants(
        "operator", calls, HOSTILE, HOSTILE_STREAMS,
        dict(until_us=END_US, think_us=HOSTILE_THINK_US / abusive_factor),
        dict(until_us=END_US, think_us=VICTIM_THINK_US),
    )
    groups = scenario.run()
    server.stop()

    def window(samples: List, lo: float, hi: float) -> Dict:
        lats = [lat for start, lat in samples if lo <= start < hi]
        return {
            "completed": len(lats),
            "p50_us": driver.percentile(lats, 50.0),
            "p99_us": driver.percentile(lats, 99.0),
        }

    victims = driver.pool(g for name, g in groups.items() if name != HOSTILE)
    pre = window(victims.samples, 0.0, RELOAD_AT_US)
    post = window(victims.samples, RELOAD_AT_US + SETTLE_US, float("inf"))
    recovery = pre["p99_us"] / post["p99_us"] if post["p99_us"] > 0 else 0.0
    return {
        "conf": {
            "initial": dict(INITIAL_CONF),
            "reload_set": dict(RELOAD_SET),
            "reload_at_us": RELOAD_AT_US,
            "settle_us": SETTLE_US,
        },
        "detection": detection,
        "reload_log": list(watcher.applied),
        "tenants": {
            name: driver.summary(group)
            for name, group in sorted(groups.items())
        },
        "victims": {"pre": pre, "post": post, "recovery_ratio": recovery},
        "backoff_rejections": driver.counter_sum(
            fabric, "rpc.server.calls_backoff"
        ),
        "qos_reconfigs": driver.counter_sum(
            fabric, "rpc.server.qos_reconfigured"
        ),
        "makespan_us": env.now,
    }


def run(plan: Optional[FaultPlan] = None) -> Dict:
    """Misconfig -> detect -> hot reload -> recovery; asserts the bar."""
    with driver.armed(plan, PLAN_DICT, "operator") as used_plan:
        story = _run_story()

    # The reload must actually have happened, exactly once per server.
    assert story["qos_reconfigs"] == 1, story["reload_log"]
    assert story["reload_log"] == [
        {"t_us": RELOAD_AT_US, "keys": sorted(RELOAD_SET)}
    ]
    # Detection saw the abuser at top priority despite its share.
    assert story["detection"]["top_caller"] == HOSTILE, story["detection"]
    assert story["detection"]["top_priority"] == 0, story["detection"]
    recovery = story["victims"]["recovery_ratio"]
    assert recovery >= RECOVERY_BAR, (
        f"victim p99 recovered only {recovery:.2f}x "
        f"(pre {story['victims']['pre']['p99_us']:.0f} us, "
        f"post {story['victims']['post']['p99_us']:.0f} us)"
    )
    story["plan"] = driver.plan_summary(used_plan)
    return story


def format_result(result: Dict) -> str:
    det = result["detection"]
    pre = result["victims"]["pre"]
    post = result["victims"]["post"]
    lines = [
        f"operator plan: {result['plan']['label']} — "
        f"{result['plan']['events']} event(s) "
        f"({', '.join(result['plan']['kinds'])})",
        f"detected at t={det['t_us'] / 1e6:.2f} s: {det['top_caller']} holds "
        f"{det['top_share'] * 100:.1f}% of decayed traffic at priority "
        f"{det['top_priority']:.0f} (queue depths {det['queue_depths']})",
        f"reload at t={result['conf']['reload_at_us'] / 1e6:.2f} s: "
        + ", ".join(f"{k}={v}" for k, v in result["conf"]["reload_set"].items()),
        f"{'tenant':<8s} {'done':>5s} {'raised':>6s} {'p50 us':>10s} {'p99 us':>12s}",
    ]
    for name, stats in result["tenants"].items():
        tag = " (hostile)" if name == HOSTILE else ""
        lines.append(
            f"{name + tag:<8s} {stats['completed']:>5d} {stats['raised']:>6d} "
            f"{stats['p50_us']:>10.1f} {stats['p99_us']:>12.1f}"
        )
    lines.append(
        f"victims pre-reload:  p99 {pre['p99_us']:.1f} us over "
        f"{pre['completed']} calls"
    )
    lines.append(
        f"victims post-reload: p99 {post['p99_us']:.1f} us over "
        f"{post['completed']} calls"
    )
    lines.append(
        f"recovery: {result['victims']['recovery_ratio']:.2f}x "
        f"(bar: >= {RECOVERY_BAR:.0f}x)"
    )
    return "\n".join(lines)

"""Hot reload: configuration views, ConfigWatcher, live QoS re-tune.

The plane has three layers, each pinned separately before the operator
experiment exercises them end-to-end:

* ``Configuration.view`` — a cached parse of the live configuration,
  re-run on the first read after any write;
* ``ReloadPlan``/``ConfigWatcher`` — scheduled updates applied at exact
  simulated instants;
* ``FairCallQueue`` — reads its WRR weights and threshold ladder through
  one view, applying the ladder at its next admit and the weights at
  its next drain, via ``set_thresholds`` / ``set_weights``.
"""

from types import SimpleNamespace

import pytest

from repro.config import Configuration, ConfigWatcher, ReloadPlan, ScheduledUpdate
from repro.obs.registry import MetricsRegistry
from repro.rpc.callqueue import FairCallQueue, build_call_queue, parse_weights
from repro.rpc.scheduler import DecayRpcScheduler
from repro.simcore import Environment


def socket_conn(name):
    return SimpleNamespace(sock=SimpleNamespace(remote=SimpleNamespace(name=name)))


def call_from(name):
    return SimpleNamespace(conn=socket_conn(name), caller="", priority=0)


# -------------------------------------------------------------------- view
def counting_view(conf, key):
    parses = []

    def parse(c):
        parses.append(c.get(key))
        return [c.get(key)]

    return conf.view(parse), parses


def test_view_reparses_once_after_writes_and_never_on_cached_reads():
    conf = Configuration({"k": 1})
    view, parses = counting_view(conf, "k")
    assert parses == []  # lazy: nothing parsed until the first read
    for _ in range(3):
        assert view() == [1]
    assert parses == [1]
    conf.set("k", 2)
    conf["other"] = "x"
    conf.update({"k": 3})
    assert parses == [1]  # writes alone never parse
    for _ in range(3):
        assert view() == [3]
    assert parses == [1, 3]


def test_view_returns_the_same_object_between_writes():
    conf = Configuration()
    view, _ = counting_view(conf, "k")
    first = view()
    assert view() is first
    conf.set("k", None)  # a write re-parses even when the value is equal
    second = view()
    assert second == first and second is not first
    assert view() is second


def test_writes_to_a_copy_do_not_invalidate_views_of_the_original():
    conf = Configuration({"k": 1})
    view, parses = counting_view(conf, "k")
    view()
    clone = conf.copy()
    clone.set("k", 2)
    clone.update({"k": 3})
    assert view() == [1]
    assert parses == [1]
    clone_view, _ = counting_view(clone, "k")
    assert clone_view() == [3]


# ------------------------------------------------------------ ConfigWatcher
def test_watcher_applies_updates_at_exact_sim_times():
    env = Environment()
    conf = Configuration()
    view = conf.view(lambda c: (c.get("x"), c.get("y")))
    watcher = ConfigWatcher(
        env,
        conf,
        [
            ScheduledUpdate(at_us=5000.0, values={"x": 2}),
            ScheduledUpdate(at_us=1000.0, values={"y": 1}),
        ],
    )
    seen = []

    def sampler(env):
        for at in (999.0, 1001.0, 4999.0, 5001.0):
            yield env.timeout(at - env.now)
            seen.append((env.now, view()))

    env.process(sampler(env))
    env.run()
    assert seen == [
        (999.0, (None, None)),
        (1001.0, (None, 1)),
        (4999.0, (None, 1)),
        (5001.0, (2, 1)),
    ]
    assert conf["x"] == 2 and conf["y"] == 1
    assert watcher.applied == [
        {"t_us": 1000.0, "keys": ["y"]},
        {"t_us": 5000.0, "keys": ["x"]},
    ]


def test_reload_plan_roundtrip_and_watch():
    doc = {
        "updates": [
            {"at_us": 250.0, "set": {"ipc.callqueue.fair.weights": "8,4,2,1"}}
        ]
    }
    plan = ReloadPlan.from_dict(doc)
    assert plan.to_dict() == doc
    env = Environment()
    conf = Configuration()
    plan.watch(env, conf)
    env.run()
    assert conf["ipc.callqueue.fair.weights"] == "8,4,2,1"


def test_reload_plan_rejects_empty_or_negative_updates():
    with pytest.raises(ValueError, match="sets nothing"):
        ReloadPlan.from_dict({"updates": [{"at_us": 1.0, "set": {}}]})
    with pytest.raises(ValueError, match=">= 0"):
        ReloadPlan.from_dict({"updates": [{"at_us": -1.0, "set": {"a": 1}}]})


# ------------------------------------------------------------- live re-tune
def test_set_weights_changes_drain_ratio_mid_run():
    env = Environment()
    sched = DecayRpcScheduler(env, levels=2, period_us=1e9)
    queue = FairCallQueue(env, 8, sched, weights=[1, 1])
    queue.set_weights([3, 1])
    assert queue.mux.weights == [3, 1]
    queue.set_weights(None)  # back to Hadoop defaults
    assert queue.mux.weights == [2, 1]


def test_set_weights_validates_arity():
    env = Environment()
    sched = DecayRpcScheduler(env, levels=4, period_us=1e9)
    queue = FairCallQueue(env, 16, sched)
    with pytest.raises(ValueError, match="4 levels"):
        queue.set_weights([1, 2])


def test_set_thresholds_reclassifies_existing_counts():
    env = Environment()
    reg = MetricsRegistry(env)
    sched = DecayRpcScheduler(
        env, levels=4, period_us=1e9, registry=reg, server_name="s"
    )
    for _ in range(98):
        sched.charge("hog")
    sched.charge("meek")
    sched.charge("meek")
    # Lenient ladder: even a 98% share stays at priority 0.
    sched.set_thresholds([0.985, 0.99, 0.995])
    assert sched.priority_of("hog") == 0
    # Hadoop's default ladder demotes it instantly — and the priority
    # gauge reflects the reload without waiting for the next charge.
    sched.set_thresholds(None)
    assert sched.priority_of("hog") == 3
    gauge = reg.find("rpc.scheduler.caller_priority")[
        "rpc.scheduler.caller_priority{caller=hog,server=s}"
    ]
    assert gauge.value == 3


def test_set_thresholds_validates_ladder():
    env = Environment()
    sched = DecayRpcScheduler(env, levels=4, period_us=1e9)
    with pytest.raises(ValueError, match="increasing"):
        sched.set_thresholds([0.5, 0.25, 0.125])


def test_build_call_queue_reads_threshold_ladder_from_conf():
    env = Environment()
    conf = Configuration(
        {
            "ipc.callqueue.impl": "fair",
            "decay-scheduler.thresholds": "0.01,0.02,0.04",
        }
    )
    queue = build_call_queue(env, conf, 16)
    assert queue.scheduler.thresholds == [0.01, 0.02, 0.04]


def test_parse_weights_reads_conf_or_none():
    assert parse_weights(Configuration()) is None
    assert parse_weights(
        Configuration({"ipc.callqueue.fair.weights": "4, 2 ,1"})
    ) == [4, 2, 1]


# ------------------------------------------------- fair queue QoS reload
def fair_queue_with_conf(**values):
    env = Environment()
    reg = MetricsRegistry(env)
    conf = Configuration({"ipc.callqueue.impl": "fair", **values})
    queue = build_call_queue(env, conf, 16, registry=reg, server_name="s")
    return env, reg, conf, queue


def drain(env, queue):
    """Run one ``take`` to completion; returns the drained call."""

    def taker(env):
        taken = yield from queue.take()
        return taken

    return env.run(env.process(taker(env)))


def admit_and_drain(env, queue, caller="a"):
    scall = call_from(caller)
    assert queue.try_reserve(scall) is None
    queue.put(scall)
    assert drain(env, queue) is scall


def reconfigs(reg):
    return [c.value for c in reg.find("rpc.server.qos_reconfigured").values()]


def test_reload_applies_ladder_at_next_admit_and_weights_at_next_drain():
    env, reg, conf, queue = fair_queue_with_conf()
    conf.update(
        {
            "ipc.callqueue.fair.weights": "1,1,1,1",
            "decay-scheduler.thresholds": "0.97,0.98,0.99",
        }
    )
    assert queue.mux.weights == [8, 4, 2, 1]
    assert queue.scheduler.thresholds == [0.125, 0.25, 0.5]
    assert reconfigs(reg) == []
    # The next admit decides a priority: the ladder applies there.
    scall = call_from("a")
    assert queue.try_reserve(scall) is None
    assert queue.scheduler.thresholds == [0.97, 0.98, 0.99]
    assert queue.mux.weights == [8, 4, 2, 1]
    assert reconfigs(reg) == [1]
    # The next drain uses the mux: the weights apply there.
    queue.put(scall)
    drain(env, queue)
    assert queue.mux.weights == [1, 1, 1, 1]
    assert reconfigs(reg) == [1]


def test_rewriting_current_qos_values_is_not_a_reconfiguration():
    env, reg, conf, queue = fair_queue_with_conf()
    reload = {
        "ipc.callqueue.fair.weights": "1,1,1,1",
        "decay-scheduler.thresholds": "0.97,0.98,0.99",
    }
    conf.update(reload)
    admit_and_drain(env, queue)
    assert reconfigs(reg) == [1]
    mux = queue.mux
    conf.update(reload)
    conf.set("ipc.callqueue.fair.weights", "1, 1, 1, 1")  # same weights
    admit_and_drain(env, queue)
    assert reconfigs(reg) == [1]
    assert queue.mux is mux  # the WRR credit cycle was not reset


def test_queue_without_conf_never_reloads():
    env = Environment()
    sched = DecayRpcScheduler(env, levels=2, period_us=1e9)
    queue = FairCallQueue(env, 8, sched, weights=[3, 1])
    admit_and_drain(env, queue)
    assert queue.mux.weights == [3, 1]


# ------------------------------------------------------ server integration
def _make_server(conf):
    from repro.calibration import IPOIB_QDR
    from repro.io.writables import BytesWritable
    from repro.net.fabric import Fabric
    from repro.rpc import RPC
    from repro.rpc.microbench import PingPongProtocol, PingPongService

    env = Environment()
    fabric = Fabric(env)
    server = RPC.get_server(
        fabric, fabric.add_node("server"), 9000, PingPongService(),
        PingPongProtocol, IPOIB_QDR, conf=conf,
    )
    client = RPC.get_client(
        fabric, fabric.add_node("client"), IPOIB_QDR, conf=conf
    )
    proxy = RPC.get_proxy(PingPongProtocol, server.address, client)

    def one_call():
        def caller(env):
            yield proxy.pingpong(BytesWritable(b"\x5a" * 64))

        env.run(env.process(caller(env)))

    return env, fabric, server, one_call


def test_server_applies_qos_keys_written_to_live_conf():
    conf = Configuration({"ipc.callqueue.impl": "fair"})
    env, fabric, server, one_call = _make_server(conf)
    assert server.call_queue.mux.weights == [8, 4, 2, 1]
    conf.update(
        {
            "ipc.callqueue.fair.weights": "1,1,1,1",
            "decay-scheduler.thresholds": "0.97,0.98,0.99",
        }
    )
    one_call()  # admitted and drained by the live server
    assert server.call_queue.mux.weights == [1, 1, 1, 1]
    assert server.call_queue.scheduler.thresholds == [0.97, 0.98, 0.99]
    counter = fabric.metrics.find("rpc.server.qos_reconfigured")
    assert list(counter.values())[0].value == 1


def test_server_ignores_non_qos_keys_and_fifo_is_noop():
    conf = Configuration()  # fifo default
    env, fabric, server, one_call = _make_server(conf)
    conf.set("io.server.buffer.initial.size", 2048)  # not a QoS key
    conf.set("ipc.callqueue.fair.weights", "1,1,1,1")  # QoS key, FIFO queue
    one_call()
    # No reconfig counter ever appears: FIFO has nothing to re-tune and
    # the lazily-registered counter must not disturb default metrics.
    assert fabric.metrics.find("rpc.server.qos_reconfigured") == {}


def test_server_stop_unsubscribes():
    conf = Configuration({"ipc.callqueue.impl": "fair"})
    env, fabric, server, one_call = _make_server(conf)
    server.stop()
    conf.set("ipc.callqueue.fair.weights", "1,1,1,1")
    env.run()
    assert server.call_queue.mux.weights == [8, 4, 2, 1]

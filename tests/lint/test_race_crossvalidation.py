"""Static/dynamic cross-validation of SIM009.

The whole-program rule and the happens-before tracker look at the same
hazard from two sides: the rule *predicts* that two process bodies can
touch one attribute at one timestamp with no ordering edge; the tracker
*observes* it on a real run.  The positive fixture must trip both — a
static finding that cannot be confirmed on the very workload it
describes would be a false alarm, and a runtime race the rule cannot
see would be a hole in the call graph.

The tracker is deliberately stricter than the rule: commuting literal
increments and guarded lazy-init are exempted statically (the final
state is order-independent) but still *observed* dynamically, so the
negative fixture is only cross-validated on its static half.
"""

import importlib.util
import json
from pathlib import Path

from repro.lint import lint_file

FIXTURES = Path(__file__).parent / "fixtures"


def _load_fixture_module(name):
    spec = importlib.util.spec_from_file_location(name, FIXTURES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sim009_fixture_is_confirmed_by_the_tracker():
    # Static half: the rule names the class, attribute, and both bodies.
    findings = lint_file(FIXTURES / "sim009_race.py", in_src=True)
    assert [f.rule for f in findings] == ["SIM009"]
    assert "Meter.inflight" in findings[0].message

    # Dynamic half: run the same module under the happens-before
    # tracker; the predicted race must be observed.
    from repro.simcore import sanitizer
    from repro.simcore.environment import Environment

    fixture = _load_fixture_module("sim009_race")
    with sanitizer.sanitized(track_races=True) as session:
        env = Environment()
        pump = fixture.build(env)
        session.track(pump.meter, ("inflight",), label="Meter")
        env.run(until=50.0)

    races = session.races()
    assert len(races) == 1
    assert "Meter.inflight" in races[0]
    assert "confirms SIM009" in races[0]
    assert not session.clean


def test_sim009_negative_fixture_is_statically_clean():
    assert lint_file(FIXTURES / "sim009_ordered.py", in_src=True) == []


def test_fair_queue_server_opts_into_tracking():
    """A fair-queue Server registers its WRR mux and decay scheduler
    with an armed tracker, and the instrumented run still completes."""
    from repro.calibration import FABRICS
    from repro.config import Configuration
    from repro.io.writables import BytesWritable
    from repro.net.fabric import Fabric
    from repro.rpc import RPC
    from repro.rpc.microbench import PingPongProtocol, PingPongService
    from repro.simcore import sanitizer
    from repro.simcore.environment import Environment

    conf = Configuration({
        "ipc.callqueue.impl": "fair",
        "scheduler.priority.levels": 4,
        "decay-scheduler.period": 50_000.0,
        "decay-scheduler.decay-factor": 0.5,
    })
    with sanitizer.sanitized(track_races=True) as session:
        env = Environment()
        fabric = Fabric(env)
        server_node = fabric.add_node("server")
        client_node = fabric.add_node("client")
        network = FABRICS["ipoib"]
        server = RPC.get_server(
            fabric, server_node, 9000, PingPongService(), PingPongProtocol,
            network, conf=conf,
        )
        assert session.hb.tracked == 2  # wrr-mux + decay-scheduler

        payload = BytesWritable(b"\x5a" * 64)
        client = RPC.get_client(fabric, client_node, network, conf=conf)
        proxy = RPC.get_proxy(PingPongProtocol, server.address, client)

        def caller(env):
            for _ in range(5):
                yield proxy.pingpong(payload)

        done = env.process(caller(env))
        env.run(done)
        server.stop()
        client.close()

    # The scheduler's total was exercised through the tracked subclass.
    assert session.hb.writes > 0
    # Whether a same-timestamp collision occurred on this tiny run is
    # workload-dependent; the report must render either way.
    for line in session.report_lines():
        assert isinstance(line, str)


def test_fair_queue_tracks_the_replacement_mux_of_a_reload():
    """A QoS reload swaps in a new WRR mux; the queue registers it too,
    so the tracker keeps watching the mux the handlers now drain."""
    from repro.config import Configuration
    from repro.rpc.callqueue import WeightedRoundRobinMux, build_call_queue
    from repro.simcore import sanitizer
    from repro.simcore.environment import Environment
    from tests.rpc.test_hot_reload import call_from, drain

    conf = Configuration({"ipc.callqueue.impl": "fair"})
    with sanitizer.sanitized(track_races=True) as session:
        env = Environment()
        queue = build_call_queue(env, conf, 16, server_name="s")
        assert session.hb.tracked == 2  # wrr-mux + decay-scheduler
        first = queue.mux
        conf.set("ipc.callqueue.fair.weights", "1,1,1,1")
        scall = call_from("a")
        assert queue.try_reserve(scall) is None
        queue.put(scall)
        admitted_writes = session.hb.writes
        drain(env, queue)  # the drain applies the weights
        queue.stop()
    assert queue.mux is not first
    assert queue.mux.weights == [1, 1, 1, 1]
    assert session.hb.tracked == 3
    assert type(queue.mux) is not WeightedRoundRobinMux  # instrumented
    # The drain touched only the replacement mux, and it was recorded.
    assert session.hb.writes > admitted_writes


def test_fifo_server_tracks_nothing():
    """The default FIFO queue has no mux/scheduler: nothing is tracked,
    so fig5-style runs stay race-report-free by construction."""
    from repro.calibration import FABRICS
    from repro.config import Configuration
    from repro.net.fabric import Fabric
    from repro.rpc import RPC
    from repro.rpc.microbench import PingPongProtocol, PingPongService
    from repro.simcore import sanitizer
    from repro.simcore.environment import Environment

    with sanitizer.sanitized(track_races=True) as session:
        env = Environment()
        fabric = Fabric(env)
        node = fabric.add_node("server")
        RPC.get_server(
            fabric, node, 9000, PingPongService(), PingPongProtocol,
            FABRICS["ipoib"], conf=Configuration(),
        )
        assert session.hb.tracked == 0


def test_fig5_golden_is_bit_identical_under_the_tracker():
    """The tracker-on sanitized run reproduces the committed fig5
    fixture exactly and reports clean — arming the tracker adds no
    simulated events, no RNG draws, and (on the FIFO path) no tracked
    objects."""
    from repro.experiments import fig5_micro
    from repro.simcore import sanitizer
    from tests.experiments.test_golden_fig5 import FIXTURE, GOLDEN_PARAMS

    with sanitizer.sanitized(track_races=True) as session:
        result = fig5_micro.run(**GOLDEN_PARAMS)
    assert session.clean, session.report_lines()
    normalized = json.loads(json.dumps(result))
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert normalized == golden

"""The closed-loop scenario driver: statistics, tallies and the event contract.

The experiments' goldens pin the driver end to end; these tests pin
its pieces on toy streams: nearest-rank percentiles, raised calls that
are tallied without ending the stream, the settle-once check, and the
rule that a stream yields exactly the events a hand-written loop would.
"""

import pytest

from repro.experiments import driver
from repro.faults import FaultPlan
from repro.faults import runtime as faults_runtime
from repro.rpc.call import RemoteException
from repro.simcore import Environment
from repro.simcore.environment import events_total

KNOWN = [float(v) for v in range(1, 101)]  # 1.0 .. 100.0


def test_percentile_of_nothing_is_zero():
    assert driver.percentile([], 50.0) == 0.0
    assert driver.percentile([], 99.0) == 0.0


def test_percentile_of_one_sample_is_that_sample():
    assert driver.percentile([7.5], 1.0) == 7.5
    assert driver.percentile([7.5], 50.0) == 7.5
    assert driver.percentile([7.5], 99.0) == 7.5


def test_percentile_is_nearest_rank_without_interpolation():
    assert driver.percentile(KNOWN, 50.0) == 50.0
    assert driver.percentile(KNOWN, 99.0) == 99.0
    assert driver.percentile(KNOWN, 100.0) == 100.0
    # rank ceil(0.5 * 5) = 3 -> the third smallest, never a midpoint
    assert driver.percentile([10.0, 20.0, 30.0, 40.0, 50.0], 50.0) == 30.0
    assert driver.percentile([10.0, 20.0], 50.0) == 10.0


def test_percentile_ignores_input_order():
    shuffled = KNOWN[::2] + KNOWN[1::2][::-1]
    for q in (1.0, 50.0, 90.0, 99.0):
        assert driver.percentile(shuffled, q) == driver.percentile(KNOWN, q)
        assert driver.percentile(KNOWN[::-1], q) == driver.percentile(KNOWN, q)


def _failing(env, exc):
    yield env.timeout(5.0)
    raise exc


def test_raised_calls_are_tallied_with_their_label_and_the_loop_goes_on():
    scenario = driver.Scenario()
    env = scenario.env
    plan = {
        1: RemoteException("java.io.IOException", "disk full"),
        3: ConnectionError("peer reset"),
        4: RemoteException("java.io.IOException", "again"),
    }

    def call(i):
        if i in plan:
            return env.process(_failing(env, plan[i]))
        return env.timeout(10.0)

    scenario.spawn("s0", "g", call, ops=6, think_us=1.0)
    group = scenario.run()["g"]
    assert (group.issued, group.completed, group.raised) == (6, 3, 3)
    assert group.errors == {"RemoteException": 2, "ConnectionError": 1}
    # Completed calls keep their start time, in completion order: ops 0,
    # 2 and 5 (10 us each, 1 us think, 5 us per failed op).
    assert group.samples == [(0.0, 10.0), (17.0, 10.0), (40.0, 10.0)]
    assert env.now == 51.0


def test_an_exception_outside_raises_fails_the_run():
    scenario = driver.Scenario()
    env = scenario.env
    scenario.spawn(
        "s0", "g", lambda i: env.process(_failing(env, KeyError("bug"))),
        ops=1,
    )
    with pytest.raises(KeyError):
        scenario.run()


def test_settle_once_fires_on_a_group_with_an_unsettled_call():
    settled = driver.Group(issued=3, completed=2, raised=1)
    driver.settle_once({"ok": settled})
    hung = driver.Group(issued=4, completed=2, raised=1)
    with pytest.raises(AssertionError):
        driver.settle_once({"ok": settled, "hung": hung})


def test_time_bound_stream_checks_the_clock_before_each_call():
    scenario = driver.Scenario()
    env = scenario.env
    scenario.spawn("s0", "g", lambda i: env.timeout(3.0), until_us=10.0,
                   think_us=2.0)
    group = scenario.run()["g"]
    # calls start at 0, 5 and 10 is not < 10: two calls, then stop
    assert [start for start, _ in group.samples] == [0.0, 5.0]
    assert (group.start, group.end) == (0.0, 10.0)


def _events_of(build):
    env = Environment()
    procs = build(env)
    before = events_total()
    env.run(env.all_of(procs))
    return events_total() - before, env.now


def test_a_driver_stream_schedules_the_events_of_a_hand_written_loop():
    ops = 7

    def by_hand(env):
        def loop():
            for _ in range(ops):
                start = env.now
                yield env.timeout(4.0)
                assert env.now - start == 4.0

        return [env.process(loop(), name=f"c{k}") for k in range(3)]

    def by_driver(env):
        group = driver.Group()
        return [
            env.process(
                driver.closed_loop(env, group, lambda i: env.timeout(4.0),
                                   ops=ops),
                name=f"c{k}",
            )
            for k in range(3)
        ]

    assert _events_of(by_driver) == _events_of(by_hand)


def test_stagger_and_think_match_a_hand_written_loop():
    """A zero stagger is a real timeout(0), and think follows every op."""

    def by_hand(env):
        def loop(index):
            yield env.timeout(index * 3.0)
            for _ in range(2):
                yield env.timeout(4.0)
                yield env.timeout(1.0)

        return [env.process(loop(k)) for k in range(3)]

    def by_driver(env):
        group = driver.Group()
        return [
            env.process(driver.closed_loop(
                env, group, lambda i: env.timeout(4.0), ops=2, think_us=1.0,
                stagger_us=k * 3.0,
            ))
            for k in range(3)
        ]

    assert _events_of(by_driver) == _events_of(by_hand)


def test_connect_builds_the_call_after_the_stagger():
    scenario = driver.Scenario()
    env = scenario.env
    dialed = []

    def connect():
        dialed.append(env.now)
        return lambda i: env.timeout(1.0)

    scenario.spawn("s0", "g", ops=1, stagger_us=6.0, connect=connect)
    scenario.run()
    assert dialed == [6.0]


def test_pool_sums_tallies_and_keeps_every_sample():
    a = driver.Group(issued=2, completed=1, raised=1, samples=[(0.0, 3.0)])
    b = driver.Group(issued=1, completed=1, samples=[(1.0, 5.0)])
    total = driver.pool([a, b])
    assert (total.issued, total.completed, total.raised) == (3, 2, 1)
    assert total.latencies == [3.0, 5.0]
    assert driver.summary(total) == {
        "issued": 3, "completed": 2, "raised": 1,
        "p50_us": 3.0, "p99_us": 5.0,
    }


ABUSIVE = {
    "label": "test-abusive",
    "events": [{"kind": "abusive_tenant", "at": 0, "node": "t0",
                "factor": 50.0}],
}


def test_hostile_factor_reads_the_armed_plan_before_the_fault_fires():
    with driver.armed(None, ABUSIVE, "test") as plan:
        scenario = driver.Scenario()
        # the injector has not run its t=0 process yet ...
        assert scenario.fabric.faults.abusive_factor("t0") == 1.0
        # ... but the plan already says what it will apply
        assert driver.hostile_factor(scenario.fabric, "t0") == 50.0
        assert driver.hostile_factor(scenario.fabric, "t1") == 1.0
    assert driver.plan_summary(plan) == {
        "label": "test-abusive", "kinds": ["abusive_tenant"], "events": 1,
    }
    assert driver.hostile_factor(driver.Scenario().fabric, "t0") == 1.0


def test_an_externally_armed_plan_wins_over_the_default():
    external = FaultPlan.from_dict({"label": "external", "events": []})
    with faults_runtime.session(external, label="cli"):
        with driver.armed(None, ABUSIVE, "test") as plan:
            assert plan is external

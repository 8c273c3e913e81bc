"""Unit tests for Resource and Store."""

import pytest

from repro.simcore import Environment, Resource, Store


# ---------------------------------------------------------------- Resource
def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    env.run()
    assert r1.triggered and r2.triggered
    assert not r3.triggered
    assert res.count == 2
    res.release(r1)
    env.run()
    assert r3.triggered


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_fifo_ordering():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(env, name, hold):
        with res.request() as req:
            yield req
            order.append(name)
            yield env.timeout(hold)

    for name in ("a", "b", "c"):
        env.process(user(env, name, 5))
    env.run()
    assert order == ["a", "b", "c"]


def test_resource_context_manager_releases():
    env = Environment()
    res = Resource(env, capacity=1)

    def user(env):
        with res.request() as req:
            yield req
            yield env.timeout(1)

    env.process(user(env))
    env.run()
    assert res.count == 0


def test_release_unheld_request_raises():
    env = Environment()
    res = Resource(env, capacity=1)
    held = res.request()
    env.run()
    stranger = res.request()  # queued, never granted
    with pytest.raises(RuntimeError):
        res.release(stranger)
    res.release(held)


def test_cancelled_request_skipped_in_grant():
    env = Environment()
    res = Resource(env, capacity=1)
    r1 = res.request()
    r2 = res.request()
    r3 = res.request()
    env.run()
    r2.cancel()
    res.release(r1)
    env.run()
    assert r3.triggered
    assert not r2.triggered


def test_interrupted_waiter_via_context_manager_leaves_queue():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder(env):
        with res.request() as req:
            yield req
            yield env.timeout(100)

    def impatient(env):
        from repro.simcore import Interrupt

        try:
            with res.request() as req:
                yield req
        except Interrupt:
            return "gave up"

    env.process(holder(env))
    p = env.process(impatient(env))

    def interrupter(env):
        yield env.timeout(5)
        p.interrupt()

    env.process(interrupter(env))
    env.run(p)
    assert len(res.queue) == 0


# -------------------------------------------------------------------- Store
def test_store_put_get_fifo():
    env = Environment()
    store = Store(env)
    results = []

    def producer(env):
        for i in range(3):
            yield store.put(i)
            yield env.timeout(1)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            results.append(item)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert results == [0, 1, 2]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got_at = []

    def consumer(env):
        item = yield store.get()
        got_at.append((env.now, item))

    def producer(env):
        yield env.timeout(5)
        yield store.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got_at == [(5, "late")]


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer(env):
        yield store.put("a")
        log.append(("put-a", env.now))
        yield store.put("b")
        log.append(("put-b", env.now))

    def consumer(env):
        yield env.timeout(10)
        item = yield store.get()
        log.append((f"got-{item}", env.now))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert ("put-a", 0) in log
    assert ("put-b", 10) in log


def test_store_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_store_holds_none_values():
    env = Environment()
    store = Store(env)

    def roundtrip(env):
        yield store.put(None)
        item = yield store.get()
        return item is None

    assert env.run(env.process(roundtrip(env)))


def test_store_level_property():
    env = Environment()
    store = Store(env)
    store.put("x")
    env.run()
    assert store.level == len(store) == 1

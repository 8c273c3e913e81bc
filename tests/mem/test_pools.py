"""Unit tests for the native pool and history-based shadow pool."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import CostModel
from repro.mem import CostLedger, HistoryShadowPool, NativeBufferPool
from repro.simcore import sanitizer

CLASSES = [128, 256, 512, 1024, 2048, 4096]


@pytest.fixture
def model():
    return CostModel.default()


@pytest.fixture
def ledger(model):
    return CostLedger(model)


@pytest.fixture
def pool(model):
    return NativeBufferPool(model, CLASSES, buffers_per_class=4)


# ------------------------------------------------------------- NativeBufferPool
def test_class_for_picks_smallest_fit(pool):
    assert pool.class_for(1) == 128
    assert pool.class_for(128) == 128
    assert pool.class_for(129) == 256
    assert pool.class_for(4096) == 4096
    assert pool.class_for(4097) is None
    with pytest.raises(ValueError):
        pool.class_for(-1)


def test_size_classes_validated(model):
    with pytest.raises(ValueError):
        NativeBufferPool(model, [])
    with pytest.raises(ValueError):
        NativeBufferPool(model, [128, 128])
    with pytest.raises(ValueError):
        NativeBufferPool(model, [256, 128])
    with pytest.raises(ValueError):
        NativeBufferPool(model, [128], buffers_per_class=0)


def test_get_returns_registered_buffer_of_class(pool, ledger):
    buf = pool.get(100, ledger)
    assert buf.capacity == 128
    assert pool.outstanding == 1
    assert pool.runtime_registrations == 0  # served from preregistration


def test_get_from_freelist_is_cheap(pool, ledger, model):
    pool.get(100, ledger)
    assert ledger.total_us == pytest.approx(model.memory.pool_get_us)
    assert ledger.gc_debt_us == 0.0  # native memory: no GC


def test_pool_growth_pays_registration(pool, ledger, model):
    for _ in range(4):
        pool.get(100, ledger)
    before = ledger.total_us
    pool.get(100, ledger)  # 5th: free list empty, register new
    cost = ledger.total_us - before
    assert cost > model.memory.mr_register_base_us
    assert pool.runtime_registrations == 1


def test_oversized_request_gets_dedicated_buffer(pool, ledger):
    buf = pool.get(100_000, ledger)
    assert buf.capacity == 100_000
    assert buf.size_class == -1
    pool.put(buf, ledger)
    assert pool.free_count(128) == 0  # not added to any class
    assert pool.outstanding == 0


def test_put_returns_to_freelist(pool, ledger):
    buf = pool.get(100, ledger)
    pool.put(buf, ledger)
    assert pool.outstanding == 0
    assert pool.free_count(128) == 1
    buf2 = pool.get(100, ledger)
    assert buf2 is buf  # LIFO reuse


def test_double_return_rejected(pool, ledger):
    buf = pool.get(100, ledger)
    pool.put(buf, ledger)
    with pytest.raises(RuntimeError):
        pool.put(buf, ledger)


def test_double_return_of_oversized_buffer_rejected(pool, ledger):
    buf = pool.get(100_000, ledger)
    pool.put(buf, ledger)
    charged = ledger.total_us
    with pytest.raises(RuntimeError):
        pool.put(buf, ledger)
    assert pool.outstanding == 0
    assert pool.returns == 1
    assert ledger.total_us == charged  # no second pool_return charge


def test_preregistration_cost_reported(model):
    pool = NativeBufferPool(model, [128, 4096], buffers_per_class=2)
    mem = model.memory
    expected = 2 * (
        mem.mr_register_base_us + 128 * mem.mr_register_per_byte_us
    ) + 2 * (mem.mr_register_base_us + 4096 * mem.mr_register_per_byte_us)
    assert pool.preregistration_us == pytest.approx(expected)


def test_buffer_data_is_real_storage(pool, ledger):
    buf = pool.get(128, ledger)
    buf.data[0:5] = b"hello"
    assert bytes(buf.data[0:5]) == b"hello"


# Sizes reach every get path: pre-registered, grown past the four
# pre-registered buffers of a class, and oversized (dedicated).
@given(sizes=st.lists(st.integers(min_value=0, max_value=3 * CLASSES[-1]),
                      min_size=1, max_size=16))
@settings(max_examples=25, deadline=None)
def test_leak_ledger_tracks_live_buffers_and_ends_clean(sizes):
    with sanitizer.sanitized():
        model = CostModel.default()
        pool = NativeBufferPool(model, CLASSES, buffers_per_class=4)
        ledger = CostLedger(model)
        bufs = [pool.get(nbytes, ledger) for nbytes in sizes]
        assert len(pool.sanitizer_outstanding()) == len(bufs)
        for buf in bufs:
            pool.put(buf, ledger)
        assert pool.sanitizer_outstanding() == []


# -------------------------------------------------------------- HistoryShadowPool
@pytest.fixture
def shadow(pool):
    return HistoryShadowPool(pool, default_size=128)


def test_first_acquire_uses_default(shadow, ledger):
    buf = shadow.acquire("Proto", "method", ledger)
    assert buf.capacity == 128


def test_release_updates_history(shadow, ledger):
    buf = shadow.acquire("Proto", "m", ledger)
    shadow.release(buf, "Proto", "m", used=400, ledger=ledger, grown=True)
    assert shadow.predicted_size("Proto", "m") == 400
    buf2 = shadow.acquire("Proto", "m", ledger)
    assert buf2.capacity == 512  # class ceiling of 400


def test_history_is_per_call_kind(shadow, ledger):
    buf = shadow.acquire("A", "x", ledger)
    shadow.release(buf, "A", "x", used=2000, ledger=ledger, grown=True)
    assert shadow.predicted_size("B", "x") == 128
    assert shadow.predicted_size("A", "y") == 128
    assert shadow.predicted_size("A", "x") == 2000


def test_history_shrinks_on_oversized_buffer(shadow, ledger):
    buf = shadow.acquire("P", "m", ledger)
    shadow.release(buf, "P", "m", used=2000, ledger=ledger, grown=True)
    big = shadow.acquire("P", "m", ledger)
    assert big.capacity == 2048
    shadow.release(big, "P", "m", used=100, ledger=ledger)
    assert shadow.predicted_size("P", "m") == 100  # shrunk


def test_grow_doubles_and_preserves_data(shadow, ledger):
    buf = shadow.acquire("P", "m", ledger)
    buf.data[0:3] = b"abc"
    bigger = shadow.grow(buf, used=3, ledger=ledger)
    assert bigger.capacity == 256
    assert bytes(bigger.data[0:3]) == b"abc"
    assert shadow.grows == 1


def test_grow_rejects_bad_used(shadow, ledger):
    buf = shadow.acquire("P", "m", ledger)
    with pytest.raises(ValueError):
        shadow.grow(buf, used=buf.capacity + 1, ledger=ledger)


def test_grow_produces_no_gc_debt(shadow, ledger):
    buf = shadow.acquire("P", "m", ledger)
    shadow.grow(buf, used=10, ledger=ledger)
    assert ledger.gc_debt_us == 0.0


def test_prediction_hit_rate_under_locality(shadow, ledger):
    """Paper Sec. IV-B: only the first call needs adjustment; the rest hit."""
    for i in range(10):
        buf = shadow.acquire("P", "m", ledger)
        grown = False
        while buf.capacity < 400:
            buf = shadow.grow(buf, used=0, ledger=ledger)
            grown = True
        shadow.release(buf, "P", "m", used=400, ledger=ledger, grown=grown)
    assert shadow.grows == 2  # 128 -> 256 -> 512, first call only
    assert shadow.prediction_hits == 9
    assert shadow.hit_rate == pytest.approx(0.9)


def test_overshoot_by_a_class_is_a_miss(shadow, ledger):
    buf = shadow.acquire("P", "m", ledger)
    shadow.release(buf, "P", "m", used=1000, ledger=ledger, grown=True)
    big = shadow.acquire("P", "m", ledger)  # 1024 class
    shadow.release(big, "P", "m", used=10, ledger=ledger)  # used class 128
    assert shadow.prediction_hits == 0

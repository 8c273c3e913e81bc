"""Unit tests for the buddy-allocator registered buffer pool.

Covers the mechanics the property suite (test_buddy_properties)
fuzzes: split/coalesce bookkeeping, slab growth, the oversized
registration cache, cost-ledger charges, and the sanitizer hooks.
"""

import pytest

from repro.calibration import CostModel
from repro.mem import BuddyBuffer, BuddyBufferPool, CostLedger

SLAB = 4096
MIN_BLOCK = 128


@pytest.fixture
def model():
    return CostModel.default()


@pytest.fixture
def ledger(model):
    return CostLedger(model)


@pytest.fixture
def pool(model):
    return BuddyBufferPool(
        model, slab_bytes=SLAB, slabs=2, min_block=MIN_BLOCK,
        regcache_capacity=2,
    )


# -- construction ----------------------------------------------------------


def test_rejects_non_power_of_two_geometry(model):
    with pytest.raises(ValueError):
        BuddyBufferPool(model, slab_bytes=3000)
    with pytest.raises(ValueError):
        BuddyBufferPool(model, slab_bytes=4096, min_block=100)
    with pytest.raises(ValueError):
        BuddyBufferPool(model, slab_bytes=4096, min_block=8192)
    with pytest.raises(ValueError):
        BuddyBufferPool(model, slabs=0)
    with pytest.raises(ValueError):
        BuddyBufferPool(model, regcache_capacity=-1)


def test_slab_registration_charged_up_front(model, pool):
    mem = model.memory
    expected = 2 * (
        mem.mr_register_base_us + SLAB * mem.mr_register_per_byte_us
    )
    assert pool.preregistration_us == pytest.approx(expected)
    assert pool.runtime_registrations == 0
    assert pool.free_bytes() == 2 * SLAB


def test_class_for_rounds_to_power_of_two_blocks(pool):
    assert pool.class_for(0) == MIN_BLOCK
    assert pool.class_for(1) == MIN_BLOCK
    assert pool.class_for(129) == 256
    assert pool.class_for(SLAB) == SLAB
    assert pool.class_for(SLAB + 1) is None  # oversized
    with pytest.raises(ValueError):
        pool.class_for(-1)


# -- split / coalesce ------------------------------------------------------


def test_get_splits_down_to_the_requested_block(pool, ledger):
    buf = pool.get(100, ledger)
    assert isinstance(buf, BuddyBuffer)
    assert buf.capacity == MIN_BLOCK
    # 4096 -> 2048 -> 1024 -> 512 -> 256 -> 128: five splits, one free
    # buddy left at each level.
    assert pool.splits == 5
    for size in (128, 256, 512, 1024, 2048):
        assert pool.free_count(size) == 1
    assert pool.free_bytes() + pool.outstanding_block_bytes == 2 * SLAB


def test_put_coalesces_back_to_a_whole_slab(pool, ledger):
    before = pool.free_map()
    buf = pool.get(100, ledger)
    pool.put(buf, ledger)
    assert pool.coalesces == 5
    assert pool.free_map() == before
    assert pool.free_bytes() == 2 * SLAB
    assert pool.outstanding == 0


def test_sibling_blocks_do_not_overlap(pool, ledger):
    a = pool.get(128, ledger)
    b = pool.get(128, ledger)
    assert (a.slab, a.offset) != (b.slab, b.offset)
    a.data[:] = b"\xaa" * a.capacity
    b.data[:] = b"\xbb" * b.capacity
    assert bytes(a.data) == b"\xaa" * 128  # b's write didn't clobber a
    pool.put(a, ledger)
    pool.put(b, ledger)


def test_buffer_views_alias_the_slab_storage(pool, ledger):
    buf = pool.get(128, ledger)
    buf.data[0:4] = b"data"
    raw = pool._slabs[buf.slab][buf.offset: buf.offset + 4]
    assert bytes(raw) == b"data"
    pool.put(buf, ledger)


def test_interleaved_release_order_still_coalesces(pool, ledger):
    bufs = [pool.get(512, ledger) for _ in range(8)]  # one whole slab
    for buf in bufs[::2] + bufs[1::2]:  # evens first, then odds
        pool.put(buf, ledger)
    assert pool.free_bytes() == 2 * SLAB
    assert pool.free_count(SLAB) == 2


def test_double_return_is_rejected(pool, ledger):
    buf = pool.get(64, ledger)
    pool.put(buf, ledger)
    with pytest.raises(RuntimeError):
        pool.put(buf, ledger)


def test_get_charges_pool_get_and_put_charges_pool_return(model, pool):
    mem = model.memory
    ledger = CostLedger(model)
    buf = pool.get(64, ledger)
    assert ledger.by_category["pool"] == pytest.approx(mem.pool_get_us)
    pool.put(buf, ledger)
    assert ledger.by_category["pool"] == pytest.approx(
        mem.pool_get_us + mem.pool_return_us
    )
    assert "register" not in ledger.by_category


# -- slab growth and caps --------------------------------------------------


def test_exhausted_pool_grows_a_slab_charging_registration(model, ledger):
    mem = model.memory
    pool = BuddyBufferPool(model, slab_bytes=SLAB, slabs=1, min_block=MIN_BLOCK)
    whole = pool.get(SLAB, ledger)
    assert ledger.by_category.get("register", 0.0) == 0.0
    extra = pool.get(SLAB, ledger)  # nothing free: grow
    assert pool.slab_count == 2
    assert pool.runtime_registrations == 1
    assert ledger.by_category["register"] == pytest.approx(
        mem.mr_register_base_us + SLAB * mem.mr_register_per_byte_us
    )
    # The growth get charges registration *instead of* pool_get,
    # mirroring NativeBufferPool's growth path: only the first get
    # touched the "pool" category.
    assert ledger.by_category["pool"] == pytest.approx(mem.pool_get_us)
    pool.put(whole, ledger)
    pool.put(extra, ledger)
    assert pool.free_bytes() == 2 * SLAB


# -- oversized registration cache ------------------------------------------


def test_oversized_miss_registers_and_hit_reuses(model, pool):
    mem = model.memory
    ledger = CostLedger(model)
    big = pool.get(SLAB + 1, ledger)
    assert not isinstance(big, BuddyBuffer)
    assert big.capacity == 2 * SLAB  # pow2-rounded dedicated registration
    assert pool.regcache_stats()["misses"] == 1
    assert ledger.by_category["register"] == pytest.approx(
        mem.mr_register_base_us + 2 * SLAB * mem.mr_register_per_byte_us
    )
    pool.put(big, ledger)
    assert pool.regcache_stats()["cached"] == 1
    again = pool.get(SLAB + 100, ledger)
    assert again is big  # still-registered buffer reused
    assert pool.regcache_stats() == {
        "hits": 1, "misses": 1, "evicts": 0, "cached": 0,
    }
    pool.put(again, ledger)


def test_regcache_evicts_oldest_beyond_capacity(pool, ledger):
    bufs = [pool.get(SLAB + 1, ledger) for _ in range(3)]
    for buf in bufs:
        pool.put(buf, ledger)  # capacity 2: third insert evicts bufs[0]
    assert pool.regcache_stats()["evicts"] == 1
    assert pool.regcache_stats()["cached"] == 2
    assert not bufs[0].registered  # evicted = deregistered


def test_zero_capacity_regcache_drops_registrations(model, ledger):
    pool = BuddyBufferPool(
        model, slab_bytes=SLAB, slabs=1, regcache_capacity=0
    )
    big = pool.get(SLAB + 1, ledger)
    pool.put(big, ledger)
    assert pool.regcache_stats()["cached"] == 0
    # Next oversized get misses again (nothing was retained).
    pool.get(SLAB + 1, ledger)
    assert pool.regcache_stats()["misses"] == 2


# -- counters / introspection ----------------------------------------------


def test_counters_track_gets_returns_outstanding(pool, ledger):
    a = pool.get(64, ledger)
    b = pool.get(SLAB + 1, ledger)
    assert (pool.gets, pool.returns, pool.outstanding) == (2, 0, 2)
    pool.put(a, ledger)
    pool.put(b, ledger)
    assert (pool.gets, pool.returns, pool.outstanding) == (2, 2, 0)
    assert pool.outstanding_block_bytes == 0


def test_sanitizer_ledger_empty_without_a_session(pool, ledger):
    buf = pool.get(64, ledger)
    assert pool.sanitizer_outstanding() == []
    pool.put(buf, ledger)

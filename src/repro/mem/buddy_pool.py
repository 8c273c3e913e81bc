"""Buddy-allocator registered buffer pool — the SNIPPETS.md Snippet 1
(cubefs ``rdmaMemBlock*``/``rdmaMemPoolLevel``) design for level 1.

Instead of fixed per-size-class free lists, the pool pre-registers a
handful of large power-of-two *slabs* and carves buffers out of them
with a classic buddy allocator: a request is rounded up to a
power-of-two block, the smallest free block that fits is split in
halves down to that size, and on release a block coalesces with its
buddy (the block at ``offset ^ size``) back up the levels.  Buffers
are memoryview windows into the slab storage — acquiring one moves no
bytes and registers no memory, which is what makes rendezvous
pre-posting for predicted-large messages (``repro.net.verbs``)
measurable: the advertised buffer already exists inside a registered
region.

Requests larger than a slab take a dedicated registration, fronted by
a small **registration cache** (keyed by power-of-two size, LRU): a
hit reuses a still-registered buffer for the pool-get cost, a miss
pays the full ``mr_register`` charge, and inserting into a full cache
evicts (deregisters) the oldest entry.  Hit/miss/evict counts are
exported for the crossover experiment's report.

Cost model: identical charges to :class:`NativeBufferPool` — slab
registration is charged up front to ``preregistration_us``, steady
state acquire/release costs ``pool_get_us``/``pool_return_us``
(splits and coalesces are pointer arithmetic; Section III-C: "the
overhead of getting a buffer is very small"), and only slab growth or
an oversized-cache miss pays ``mr_register`` at runtime.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.calibration import CostModel
from repro.mem.cost import CostLedger
from repro.mem.native_pool import NativeBuffer
from repro.simcore import sanitizer as _sanitizer


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class BuddyBuffer(NativeBuffer):
    """A registered buffer that is a window into a buddy-pool slab."""

    __slots__ = ("slab", "offset")

    def __init__(
        self, capacity: int, size_class: int, view, slab: int, offset: int
    ):
        # Deliberately does NOT call NativeBuffer.__init__: the storage
        # is the slab's, not a fresh bytearray.
        self.capacity = capacity
        self.data = view
        self.size_class = size_class
        self.registered = True
        self.in_pool = False
        self.slab = slab
        self.offset = offset

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<BuddyBuffer slab={self.slab} off={self.offset}"
            f" cap={self.capacity}>"
        )


class BuddyBufferPool:
    """Power-of-two buddy allocator over pre-registered slabs.

    Drop-in for :class:`NativeBufferPool` (``get``/``put``/
    ``class_for``/``outstanding``/sanitizer ledger), selected via the
    ``rpc.ib.pool.impl=buddy`` configuration key.
    """

    def __init__(
        self,
        model: CostModel,
        slab_bytes: int = 1024 * 1024,
        slabs: int = 8,
        min_block: int = 128,
        regcache_capacity: int = 16,
    ):
        if not _is_pow2(slab_bytes):
            raise ValueError(f"slab_bytes must be a power of two: {slab_bytes}")
        if not _is_pow2(min_block) or min_block > slab_bytes:
            raise ValueError(
                f"min_block must be a power of two <= slab_bytes: {min_block}"
            )
        if slabs < 1:
            raise ValueError(f"need at least one slab, got {slabs}")
        if regcache_capacity < 0:
            raise ValueError(f"negative regcache_capacity {regcache_capacity}")
        self.model = model
        self.slab_bytes = slab_bytes
        self.min_block = min_block
        self.regcache_capacity = regcache_capacity
        self._slabs: List[bytearray] = []
        #: free map: block size -> insertion-ordered {(slab, offset): None}
        #: (dict-as-ordered-set: O(1) membership removal for coalescing
        #: plus deterministic LIFO allocation via popitem()).
        self._free: Dict[int, Dict[Tuple[int, int], None]] = {}
        size = min_block
        while size <= slab_bytes:
            self._free[size] = {}
            size *= 2
        #: oversized registration cache: pow2 size -> [NativeBuffer] (LRU
        #: order: index 0 is oldest); plus a flat insertion-order list
        #: of (size, buffer) for eviction.
        self._regcache: Dict[int, List[NativeBuffer]] = {}
        self._regcache_order: List[Tuple[int, NativeBuffer]] = []
        self.outstanding = 0
        self.outstanding_block_bytes = 0
        self.gets = 0
        self.returns = 0
        self.splits = 0
        self.coalesces = 0
        self.runtime_registrations = 0
        self.regcache_hits = 0
        self.regcache_misses = 0
        self.regcache_evicts = 0
        self.preregistration_us = 0.0
        self._sanitizer = _sanitizer.current()
        self._acquired_at: Dict[int, str] = {}
        if self._sanitizer is not None:
            self._sanitizer.note_pool(self)
        for _ in range(slabs):
            self._add_slab(ledger=None)

    # -- slab management ---------------------------------------------------
    def _add_slab(self, ledger: Optional[CostLedger]) -> None:
        """Register one more slab; charged up front or to ``ledger``."""
        mem = self.model.memory
        cost = (
            mem.mr_register_base_us
            + self.slab_bytes * mem.mr_register_per_byte_us
        )
        if ledger is None:
            self.preregistration_us += cost
        else:
            ledger.charge("register", cost)
            self.runtime_registrations += 1
        index = len(self._slabs)
        self._slabs.append(bytearray(self.slab_bytes))
        self._free[self.slab_bytes][(index, 0)] = None

    @property
    def slab_count(self) -> int:
        return len(self._slabs)

    # -- class lookup ------------------------------------------------------
    def class_for(self, nbytes: int) -> Optional[int]:
        """Power-of-two block size serving ``nbytes``; None if oversized."""
        if nbytes < 0:
            raise ValueError(f"negative size {nbytes}")
        size = self.min_block
        while size < nbytes:
            size *= 2
        return size if size <= self.slab_bytes else None

    # -- acquire/release ---------------------------------------------------
    def get(self, nbytes: int, ledger: CostLedger) -> NativeBuffer:
        """Acquire a registered buffer of at least ``nbytes``."""
        self.gets += 1
        block = self.class_for(nbytes)
        if block is None:
            buf = self._get_oversized(nbytes, ledger)
        else:
            buf = self._get_block(block, ledger)
        self.outstanding += 1
        if self._sanitizer is not None:
            self._acquired_at[id(buf)] = _sanitizer.acquisition_site()
        return buf

    def _get_block(self, block: int, ledger: CostLedger) -> BuddyBuffer:
        # Smallest free block that fits, splitting downward.
        size = block
        while size <= self.slab_bytes and not self._free[size]:
            size *= 2
        if size > self.slab_bytes:
            # Every slab fully carved out: grow by one slab (the
            # NativeBufferPool "pool grew beyond preallocation" case —
            # the runtime registration is the whole cost of the get).
            self._add_slab(ledger)
            size = self.slab_bytes
        else:
            ledger.charge_pool_get()
        (slab, offset), _ = self._free[size].popitem()
        while size > block:
            size //= 2
            self.splits += 1
            self._free[size][(slab, offset + size)] = None
        view = memoryview(self._slabs[slab])[offset: offset + block]
        self.outstanding_block_bytes += block
        return BuddyBuffer(block, block, view, slab, offset)

    def _get_oversized(self, nbytes: int, ledger: CostLedger) -> NativeBuffer:
        """Dedicated registration, fronted by the registration cache."""
        mem = self.model.memory
        # Cache key: pow2 rounding keeps reuse possible across nearby
        # oversized requests without per-byte keys.
        size = self.slab_bytes
        while size < nbytes:
            size *= 2
        cached = self._regcache.get(size)
        if cached:
            buf = cached.pop(0)
            self._regcache_order.remove((size, buf))
            self.regcache_hits += 1
            ledger.charge_pool_get()
            buf.in_pool = False
            return buf
        self.regcache_misses += 1
        ledger.charge(
            "register",
            mem.mr_register_base_us + size * mem.mr_register_per_byte_us,
        )
        self.runtime_registrations += 1
        return NativeBuffer(size, -1)

    def put(self, buffer: NativeBuffer, ledger: CostLedger) -> None:
        """Return a buffer: coalesce into the free map or cache it."""
        if buffer.in_pool:
            raise RuntimeError("double return of a pooled buffer")
        self.returns += 1
        self.outstanding -= 1
        if self._sanitizer is not None:
            self._acquired_at.pop(id(buffer), None)
        ledger.charge_pool_return()
        if not isinstance(buffer, BuddyBuffer):
            self._cache_oversized(buffer)
            return
        buffer.in_pool = True
        slab, offset, size = buffer.slab, buffer.offset, buffer.size_class
        self.outstanding_block_bytes -= size
        while size < self.slab_bytes:
            buddy = (slab, offset ^ size)
            if buddy not in self._free[size]:
                break
            del self._free[size][buddy]
            offset &= ~size
            size *= 2
            self.coalesces += 1
        self._free[size][(slab, offset)] = None

    def _cache_oversized(self, buffer: NativeBuffer) -> None:
        """LRU-insert a dedicated registration; evict when over capacity."""
        if self.regcache_capacity == 0:
            return  # registration dropped (deregistered) immediately
        buffer.in_pool = True
        size = buffer.capacity
        self._regcache.setdefault(size, []).append(buffer)
        self._regcache_order.append((size, buffer))
        if len(self._regcache_order) > self.regcache_capacity:
            old_size, old_buf = self._regcache_order.pop(0)
            self._regcache[old_size].remove(old_buf)
            old_buf.in_pool = False
            old_buf.registered = False
            self.regcache_evicts += 1

    # -- introspection (property tests + experiment report) ----------------
    def free_bytes(self) -> int:
        """Total bytes sitting in the slab free map."""
        return sum(size * len(blocks) for size, blocks in self._free.items())

    def free_map(self) -> Dict[int, Tuple[Tuple[int, int], ...]]:
        """Canonical (sorted) snapshot of the free map, for invariants."""
        return {
            size: tuple(sorted(blocks))
            for size, blocks in self._free.items()
            if blocks
        }

    def free_count(self, block: int) -> int:
        return len(self._free.get(block, ()))

    def regcache_stats(self) -> Dict[str, int]:
        return {
            "hits": self.regcache_hits,
            "misses": self.regcache_misses,
            "evicts": self.regcache_evicts,
            "cached": len(self._regcache_order),
        }

    def sanitizer_outstanding(self) -> List[str]:
        """Acquisition sites of buffers never returned (sanitizer only)."""
        return sorted(self._acquired_at.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<BuddyBufferPool slabs={len(self._slabs)}"
            f" outstanding={self.outstanding}>"
        )

"""Native (off-JVM-heap) registered buffer pool — Section III-C, level 1.

Buffers are pre-allocated in size classes and pre-registered for RDMA
when the pool ("the RPCoIB library") loads, so steady-state acquisition
costs only a free-list pop.  The design follows the paper's reference
to TCMalloc/UCR-style size-class pools.  Every RPCoIB client and
server serializes through one of these, under the history-based
shadow pool (:mod:`repro.mem.shadow_pool`).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence

from repro.calibration import CostModel
from repro.mem.cost import CostLedger
from repro.simcore import sanitizer as _sanitizer


class NativeBuffer:
    """A registered native buffer: real bytes + pool bookkeeping.

    ``data`` is real storage — serialization writes actual bytes into
    it, so receivers deserialize genuine payloads.
    """

    __slots__ = ("capacity", "data", "size_class", "in_pool")

    def __init__(self, capacity: int, size_class: int):
        self.capacity = capacity
        self.data = bytearray(capacity)
        self.size_class = size_class
        self.in_pool = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<NativeBuffer cap={self.capacity} class={self.size_class}>"


#: Default size classes: every power of two from 128 B to 4 MB.
SIZE_CLASSES = tuple(128 << i for i in range(16))


class NativeBufferPool:
    """Size-class pool of pre-registered native buffers.

    ``size_classes`` must be strictly increasing.  Requests larger than
    the largest class get a dedicated (registered-on-demand) buffer —
    they are rare by construction (message-size locality keeps RPC
    payloads inside the classes).
    """

    def __init__(
        self,
        model: CostModel,
        size_classes: Sequence[int] = SIZE_CLASSES,
        buffers_per_class: int = 64,
    ):
        if not size_classes or any(
            b <= a for a, b in zip(size_classes, size_classes[1:])
        ):
            raise ValueError("size_classes must be non-empty, strictly increasing")
        if buffers_per_class < 1:
            raise ValueError("buffers_per_class must be >= 1")
        self.model = model
        self.size_classes = list(size_classes)
        self.buffers_per_class = buffers_per_class
        self._free: Dict[int, List[NativeBuffer]] = {c: [] for c in size_classes}
        # Buffers are pre-registered at load time (their cost is charged
        # up front in ``preregistration_us``) but their storage is
        # materialized lazily on first use — identical cost model,
        # without holding every size class's memory in the host Python
        # process.
        self._prereg_remaining: Dict[int, int] = {
            c: buffers_per_class for c in size_classes
        }
        self.outstanding = 0
        self.runtime_registrations = 0
        self.gets = 0
        self.returns = 0
        self.preregistration_us = 0.0
        # Sanitizer ledger: id(buffer) -> acquisition site, populated
        # only when a SimSanitizer is installed at construction time.
        self._sanitizer = _sanitizer.current()
        self._acquired_at: Dict[int, str] = {}
        if self._sanitizer is not None:
            self._sanitizer.note_pool(self)
        mem = model.memory
        for cls_size in self.size_classes:
            self.preregistration_us += buffers_per_class * (
                mem.mr_register_base_us + cls_size * mem.mr_register_per_byte_us
            )

    # -- class lookup ------------------------------------------------------
    def class_for(self, nbytes: int) -> Optional[int]:
        """Smallest size class holding ``nbytes``; None if oversized."""
        if nbytes < 0:
            raise ValueError(f"negative size {nbytes}")
        idx = bisect.bisect_left(self.size_classes, nbytes)
        return self.size_classes[idx] if idx < len(self.size_classes) else None

    # -- acquire/release -----------------------------------------------------
    def get(self, nbytes: int, ledger: CostLedger) -> NativeBuffer:
        """Acquire a registered buffer of at least ``nbytes``."""
        self.gets += 1
        cls_size = self.class_for(nbytes)
        mem = self.model.memory
        if cls_size is None:
            # Oversized: dedicated buffer, registered on the spot.
            ledger.charge(
                "register",
                mem.mr_register_base_us + nbytes * mem.mr_register_per_byte_us,
            )
            self.runtime_registrations += 1
            self.outstanding += 1
            buf = NativeBuffer(nbytes, -1)
            if self._sanitizer is not None:
                self._acquired_at[id(buf)] = _sanitizer.acquisition_site()
            return buf
        free = self._free[cls_size]
        if free:
            buf = free.pop()
            buf.in_pool = False
            ledger.charge_pool_get()
        elif self._prereg_remaining[cls_size] > 0:
            # Materialize one of the pre-registered buffers: cheap get.
            self._prereg_remaining[cls_size] -= 1
            ledger.charge_pool_get()
            buf = NativeBuffer(cls_size, cls_size)
        else:
            # Pool grew beyond its preallocation: pay registration now.
            ledger.charge(
                "register",
                mem.mr_register_base_us + cls_size * mem.mr_register_per_byte_us,
            )
            self.runtime_registrations += 1
            buf = NativeBuffer(cls_size, cls_size)
        self.outstanding += 1
        if self._sanitizer is not None:
            self._acquired_at[id(buf)] = _sanitizer.acquisition_site()
        return buf

    def put(self, buffer: NativeBuffer, ledger: CostLedger) -> None:
        """Return a buffer to its class free list."""
        if buffer.in_pool:
            raise RuntimeError("double return of a pooled buffer")
        # Marked on every return, so a second put of a dropped
        # dedicated buffer is rejected like that of a pooled one.
        buffer.in_pool = True
        self.returns += 1
        self.outstanding -= 1
        if self._sanitizer is not None:
            self._acquired_at.pop(id(buffer), None)
        ledger.charge_pool_return()
        if buffer.size_class in self._free:
            self._free[buffer.size_class].append(buffer)
        # Oversized dedicated buffers (size_class == -1) are dropped.

    def free_count(self, cls_size: int) -> int:
        return len(self._free.get(cls_size, ()))

    def sanitizer_outstanding(self) -> List[str]:
        """Acquisition sites of buffers never returned (sanitizer only)."""
        return sorted(self._acquired_at.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<NativeBufferPool classes={len(self.size_classes)}"
            f" outstanding={self.outstanding}>"
        )


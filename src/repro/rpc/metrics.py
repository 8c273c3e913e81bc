"""Per-call RPC profiling — the instrumentation behind Table I and Fig. 1.

The client records a :class:`CallProfile` per invocation (memory
adjustments, serialization time, send time, end-to-end latency, message
size); the server records a :class:`ReceiveProfile` per received call
(buffer-allocation time vs. total receive time — Figure 1's ratio).
Aggregation is by the paper's call-kind tuple ⟨protocol, method⟩.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

CallKind = Tuple[str, str]


@dataclass(slots=True)
class CallProfile:
    """Client-side record of one RPC invocation."""

    protocol: str
    method: str
    #: Algorithm-1 growth events during request serialization.
    mem_adjustments: int
    serialization_us: float
    #: local send cost (syscall/post path), Table I's "Avg. Send Time".
    send_us: float
    #: end-to-end request->response latency.
    latency_us: float
    #: serialized request size (the Fig. 3 message-size signal).
    message_bytes: int


@dataclass(slots=True)
class ReceiveProfile:
    """Server-side record of receiving one call (Listing 2 path)."""

    protocol: str
    method: str
    alloc_us: float
    receive_total_us: float
    payload_bytes: int

    @property
    def alloc_ratio(self) -> float:
        """Figure 1's Y axis: allocation time / total receiving time."""
        return self.alloc_us / self.receive_total_us if self.receive_total_us else 0.0


@dataclass
class KindAggregate:
    """Aggregated view of one ⟨protocol, method⟩ kind (a Table I row)."""

    protocol: str
    method: str
    calls: int = 0
    total_adjustments: int = 0
    total_serialization_us: float = 0.0
    total_send_us: float = 0.0
    total_latency_us: float = 0.0
    message_sizes: List[int] = field(default_factory=list)

    @property
    def avg_adjustments(self) -> float:
        return self.total_adjustments / self.calls if self.calls else 0.0

    @property
    def avg_serialization_us(self) -> float:
        return self.total_serialization_us / self.calls if self.calls else 0.0

    @property
    def avg_send_us(self) -> float:
        return self.total_send_us / self.calls if self.calls else 0.0

    @property
    def avg_latency_us(self) -> float:
        return self.total_latency_us / self.calls if self.calls else 0.0


class RpcMetrics:
    """Collector shared by clients and servers of one experiment."""

    def __init__(self) -> None:
        self.call_profiles: List[CallProfile] = []
        self.receive_profiles: List[ReceiveProfile] = []
        self.by_kind: Dict[CallKind, KindAggregate] = {}

    # -- recording ---------------------------------------------------------
    def record_call(self, profile: CallProfile) -> None:
        self.call_profiles.append(profile)
        kind = (profile.protocol, profile.method)
        agg = self.by_kind.get(kind)
        if agg is None:
            agg = self.by_kind[kind] = KindAggregate(profile.protocol, profile.method)
        agg.calls += 1
        agg.total_adjustments += profile.mem_adjustments
        agg.total_serialization_us += profile.serialization_us
        agg.total_send_us += profile.send_us
        agg.total_latency_us += profile.latency_us
        agg.message_sizes.append(profile.message_bytes)

    def record_receive(self, profile: ReceiveProfile) -> None:
        self.receive_profiles.append(profile)

    # -- queries ------------------------------------------------------------
    def kind(self, protocol: str, method: str) -> Optional[KindAggregate]:
        return self.by_kind.get((protocol, method))

    def kinds(self) -> List[KindAggregate]:
        """All aggregates, sorted for stable report output."""
        return [self.by_kind[k] for k in sorted(self.by_kind)]

    def message_size_trace(self, protocol: str, method: str) -> List[int]:
        """Sequential message sizes of one call kind (Figure 3's series)."""
        agg = self.by_kind.get((protocol, method))
        return list(agg.message_sizes) if agg else []

    def mean_alloc_ratio(self) -> float:
        """Mean Fig.-1 ratio over all received calls."""
        if not self.receive_profiles:
            return 0.0
        return sum(p.alloc_ratio for p in self.receive_profiles) / len(
            self.receive_profiles
        )

    def mean_latency_us(self) -> float:
        if not self.call_profiles:
            raise ValueError("no calls recorded")
        return sum(p.latency_us for p in self.call_profiles) / len(self.call_profiles)

    def reset(self) -> None:
        """Clear everything (used between warm-up and measurement)."""
        self.call_profiles.clear()
        self.receive_profiles.clear()
        self.by_kind.clear()

"""Per-kind RPC profiling — the instrumentation behind Table I, Fig. 1
and Fig. 3.

Aggregation is by the paper's call-kind tuple ⟨protocol, method⟩, so
memory grows with call kinds, not calls.  The client adds each
completed call's memory adjustments, serialization time and send time
to its kind (Table I's averages are these running sums over the call
count) and appends its request size to the kind's Fig. 3 series.  The
server observes each received call's buffer-allocation / receive-time
ratio (Figure 1's Y axis) into one tally.  Per-kind latency lives in
the fabric's registry as ``rpc.client.latency_us{protocol,method}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.sketch import PercentileSketch

CallKind = Tuple[str, str]


@dataclass
class KindAggregate:
    """Aggregated view of one ⟨protocol, method⟩ kind (a Table I row)."""

    protocol: str
    method: str
    calls: int = 0
    #: Algorithm-1 growth events during request serialization.
    total_adjustments: int = 0
    total_serialization_us: float = 0.0
    #: local send cost (syscall/post path), Table I's "Avg. Send Time".
    total_send_us: float = 0.0
    #: serialized request sizes in call order (the Fig. 3 series).
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


class RpcMetrics:
    """Collector shared by clients and servers of one experiment."""

    def __init__(self) -> None:
        # Always empty; benchmarks/suite still counts them.
        self.call_profiles: List[object] = []
        self.receive_profiles: List[object] = []
        self.by_kind: Dict[CallKind, KindAggregate] = {}
        self.alloc_ratio = PercentileSketch("rpc.server.alloc_ratio")

    # -- recording ---------------------------------------------------------
    def record_call(
        self,
        protocol: str,
        method: str,
        adjustments: int,
        serialization_us: float,
        send_us: float,
        message_bytes: int,
    ) -> None:
        """Add one completed call to its kind."""
        kind = (protocol, method)
        agg = self.by_kind.get(kind)
        if agg is None:
            agg = self.by_kind[kind] = KindAggregate(protocol, method)
        agg.calls += 1
        agg.total_adjustments += adjustments
        agg.total_serialization_us += serialization_us
        agg.total_send_us += send_us
        agg.message_sizes.append(message_bytes)

    def record_receive(self, alloc_us: float, receive_total_us: float) -> None:
        """Observe one received call's allocation / receive-time ratio."""
        self.alloc_ratio.observe(
            alloc_us / receive_total_us if receive_total_us else 0.0
        )

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
        """Mean Fig.-1 ratio over all received calls (0.0 when none)."""
        return self.alloc_ratio.mean if self.alloc_ratio.count else 0.0

    def reset(self) -> None:
        """Clear everything (used between warm-up and measurement)."""
        self.by_kind.clear()
        self.alloc_ratio = PercentileSketch(self.alloc_ratio.name)

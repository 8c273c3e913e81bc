"""Memory-system model: where the paper's bottlenecks live.

Section II of the paper attributes the default Hadoop RPC's slowness on
fast networks to (a) repeated ``DataOutputBuffer`` reallocation+copy
during serialization (their Algorithm 1), (b) per-call heap buffer
allocation on receive, and (c) JVM-heap <-> native-IO copies.  This
package provides the accounting machinery that makes those costs
explicit and the Section III remedies: the pre-registered native buffer
pool and the history-based two-level (shadow) pool keyed on
message-size locality.
"""

from repro.mem.cost import CostLedger, OpCounts
from repro.mem.jvm import JvmHeap
from repro.mem.native_pool import NativeBuffer, NativeBufferPool
from repro.mem.predictor import SizePredictor, size_class_of, within_one_class
from repro.mem.shadow_pool import HistoryShadowPool

__all__ = [
    "CostLedger",
    "HistoryShadowPool",
    "JvmHeap",
    "NativeBuffer",
    "NativeBufferPool",
    "OpCounts",
    "SizePredictor",
    "size_class_of",
    "within_one_class",
]

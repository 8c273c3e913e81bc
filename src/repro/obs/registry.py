"""Unified metrics registry: named, labeled instruments for every layer.

Subsumes the :mod:`repro.simcore.monitor` primitives (``Counter``,
``TimeWeighted``, ``Histogram``) and the bounded
:class:`~repro.obs.sketch.PercentileSketch` tally behind a single
registry keyed on instrument name **plus labels**, e.g.::

    reg = MetricsRegistry(env)
    depth = reg.gauge("rpc.server.handler_queue_depth", fabric="ib")
    depth.inc()
    reg.counter("rpc.server.calls_handled", server="nn").add()
    reg.tally("rpc.client.latency_us", protocol="ClientProtocol").observe(42.0)

Instruments with the same (name, labels) pair are shared; snapshots
render keys Prometheus-style as ``name{k=v,...}``.  Updates never touch
the simulated event queue — gauges read ``env.now`` only — so metrics
collection cannot perturb measured results.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.sketch import PercentileSketch
from repro.simcore.monitor import Counter, Histogram, TimeWeighted

LabelItems = Tuple[Tuple[str, str], ...]
InstrumentKey = Tuple[str, LabelItems]


def json_safe(value):
    """Recursively replace non-finite floats with ``None``.

    ``json.dumps`` emits the bare literal ``NaN``/``Infinity`` for
    non-finite floats — invalid JSON per RFC 8259 (the ``default`` hook
    never sees floats, so it cannot catch them).  Every metrics export
    path routes its payload through here first, so an empty tally's
    ``nan`` statistics serialize as ``null``.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    return value


def _label_items(labels: Dict[str, object]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_key(name: str, labels: LabelItems) -> str:
    """Render ``name{k=v,...}`` (bare ``name`` when unlabeled)."""
    if not labels:
        return name
    body = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{body}}}"


class Gauge:
    """A settable level with a time-weighted mean on the simulated clock."""

    def __init__(self, name: str, env=None, initial: float = 0.0):
        self.name = name
        self.env = env
        now = env.now if env is not None else 0.0
        self._tw = TimeWeighted(name, initial=initial, start_time=now)

    @property
    def value(self) -> float:
        return self._tw.value

    def _now(self) -> float:
        return self.env.now if self.env is not None else self._tw._last_time

    def set(self, value: float) -> None:
        self._tw.update(self._now(), value)

    def inc(self, delta: float = 1.0) -> None:
        self.set(self._tw.value + delta)

    def dec(self, delta: float = 1.0) -> None:
        self.set(self._tw.value - delta)

    def mean(self, now: Optional[float] = None) -> float:
        return self._tw.mean(self._now() if now is None else now)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.name}={self.value}>"


class MetricsRegistry:
    """Registry of labeled instruments shared across one simulation."""

    def __init__(self, env=None):
        self.env = env
        self._counters: Dict[InstrumentKey, Counter] = {}
        self._gauges: Dict[InstrumentKey, Gauge] = {}
        self._tallies: Dict[InstrumentKey, PercentileSketch] = {}
        self._histograms: Dict[InstrumentKey, Histogram] = {}

    # -- instrument factories (get-or-create) ------------------------------
    def counter(self, name: str, **labels) -> Counter:
        key = (name, _label_items(labels))
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter(format_key(name, key[1]))
        return inst

    def gauge(self, name: str, initial: float = 0.0, **labels) -> Gauge:
        key = (name, _label_items(labels))
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge(
                format_key(name, key[1]), env=self.env, initial=initial
            )
        return inst

    def tally(self, name: str, **labels) -> PercentileSketch:
        """A bounded-memory tally: exact count, mean, min and max;
        estimated percentiles."""
        key = (name, _label_items(labels))
        inst = self._tallies.get(key)
        if inst is None:
            inst = self._tallies[key] = PercentileSketch(format_key(name, key[1]))
        return inst

    def histogram(self, name: str, bounds: Sequence[float], **labels) -> Histogram:
        key = (name, _label_items(labels))
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(
                bounds, format_key(name, key[1])
            )
        return inst

    # -- queries ------------------------------------------------------------
    def keys(self) -> List[str]:
        """Every registered instrument key, rendered and sorted."""
        keys = []
        for store in (self._counters, self._gauges, self._tallies, self._histograms):
            keys.extend(format_key(name, labels) for name, labels in store)
        return sorted(keys)

    def find(self, name: str) -> Dict[str, object]:
        """All instruments sharing ``name``, keyed by rendered label key."""
        out: Dict[str, object] = {}
        for store in (self._counters, self._gauges, self._tallies, self._histograms):
            for (iname, labels), inst in store.items():
                if iname == name:
                    out[format_key(iname, labels)] = inst
        return out

    # -- export -------------------------------------------------------------
    def snapshot(self) -> Dict[str, dict]:
        """JSON-safe dump of every instrument's current statistics."""
        now = self.env.now if self.env is not None else None
        out: Dict[str, dict] = {}
        for (name, labels), counter in self._counters.items():
            out[format_key(name, labels)] = {
                "type": "counter",
                "value": counter.value,
            }
        for (name, labels), gauge in self._gauges.items():
            entry = {"type": "gauge", "value": gauge.value}
            if now is not None:
                entry["mean"] = gauge.mean(now)
            out[format_key(name, labels)] = entry
        for (name, labels), tally in self._tallies.items():
            # Empty tallies report the full stat schema with nan values;
            # every JSON writer scrubs those to null via json_safe()
            # (json.dumps alone would emit the invalid literal ``NaN``).
            p50, p99 = tally.percentiles(50, 99)
            out[format_key(name, labels)] = {
                "type": "tally",
                "count": tally.count,
                "mean": tally.mean,
                "min": tally.minimum,
                "max": tally.maximum,
                "p50": p50,
                "p99": p99,
            }
        for (name, labels), hist in self._histograms.items():
            out[format_key(name, labels)] = {
                "type": "histogram",
                "total": hist.total,
                "buckets": dict(hist.items()),
            }
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(json_safe(self.snapshot()), indent=indent, sort_keys=True)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        counts = (
            len(self._counters),
            len(self._gauges),
            len(self._tallies),
            len(self._histograms),
        )
        return "<MetricsRegistry counters=%d gauges=%d tallies=%d histograms=%d>" % counts

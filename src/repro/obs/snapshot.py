"""Periodic metrics snapshotter on the simulated clock.

Post-hoc exports (``--metrics``) show only the end-of-run aggregate; the
live-observability plane needs *time series* — per-interval queue
depths, counter deltas, latency percentiles — the way Ibdxnet-style
benchmark harnesses sample continuously instead of reporting one number
per run.  :class:`Snapshotter` is a simulation process that wakes on a
fixed interval of the **simulated** clock, records the owning
registry's full snapshot, and goes back to sleep:

* **Deterministic alignment** — ticks land on exact multiples of the
  interval (``interval, 2*interval, ...``), independent of when the
  fabric was built, so two runs produce sample rows at identical
  simulated times and the time-series files diff cleanly.
* **Read-only sampling** — a tick calls ``registry.snapshot()`` and
  appends a row; it never mutates instruments (a tally's p50/p99 are
  computed on a merged copy of its sketch, so end-of-run percentiles do
  not depend on the interval) and never schedules anything except its
  own next wake-up, so measured results are unchanged (the extra
  timeout events shift event ids uniformly, which affects no ordering
  decision).
* **Self-terminating** — when a tick fires and the event queue is
  otherwise empty (``env.peek() == inf``) the snapshotter records the
  final state and stops re-arming, so ``env.run()`` to exhaustion still
  terminates.  Under ``run(until=...)`` the process is simply left
  suspended, which the sanitizer correctly does not flag (it is alive,
  not a dead generator with waiters).

Snapshotters are attached by :class:`repro.obs.runtime.ObsSession` when
a snapshot interval is configured (``--run-dir``); with the feature off
the class is never instantiated and no event is ever scheduled.
"""

from __future__ import annotations

import json
import math
from typing import List, Optional

#: Default sampling interval in simulated microseconds (5 ms): fine
#: enough to resolve the qos/operator phase changes, coarse enough that
#: a multi-second simulated run stays a few hundred rows.
DEFAULT_INTERVAL_US = 5000.0


class Snapshotter:
    """Samples one registry on a fixed simulated-clock interval."""

    def __init__(self, env, registry, interval_us: float = DEFAULT_INTERVAL_US,
                 run: str = ""):
        if not interval_us > 0:
            raise ValueError(f"interval_us must be > 0, got {interval_us}")
        self.env = env
        self.registry = registry
        self.interval_us = float(interval_us)
        self.run = run
        #: Appended in simulated-time order: {"t_us": float, "metrics": dict}.
        self.samples: List[dict] = []
        self.process = env.process(self._loop(), name=f"obs-snapshot:{run}")

    def _next_tick(self, now: float) -> float:
        """Smallest interval multiple strictly after ``now``."""
        tick = math.floor(now / self.interval_us + 1.0) * self.interval_us
        if tick <= now:  # float-rounding guard
            tick += self.interval_us
        return tick

    def _loop(self):
        env = self.env
        while True:
            yield env.timeout(self._next_tick(env.now) - env.now)
            self.sample()
            if env.peek() == float("inf"):
                # Nothing left but us: final state captured, stand down.
                return

    def sample(self) -> dict:
        """Record one row now (also usable for explicit final samples)."""
        row = {"t_us": self.env.now, "metrics": self.registry.snapshot()}
        self.samples.append(row)
        return row


def write_snapshots(path: str, snapshotters, label: str = "") -> int:
    """Write all samples as JSON Lines; returns the row count.

    One object per line — append-only in spirit and in format: rows are
    emitted in (run, simulated-time) order and a consumer can ``tail``
    or stream-parse the file without loading the whole document.  Every
    row is scrubbed through :func:`repro.obs.registry.json_safe` so
    empty-tally ``nan`` statistics serialize as ``null``.
    """
    from repro.obs.registry import json_safe

    rows = 0
    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "schema": "repro.obs.snapshot/1",
            "label": label,
            "runs": [
                {
                    "run": snap.run,
                    "interval_us": snap.interval_us,
                    "samples": len(snap.samples),
                }
                for snap in snapshotters
            ],
        }
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for snap in snapshotters:
            for row in snap.samples:
                doc = {
                    "run": snap.run,
                    "t_us": row["t_us"],
                    "metrics": json_safe(row["metrics"]),
                }
                fh.write(json.dumps(doc, sort_keys=True) + "\n")
                rows += 1
    return rows


def read_snapshots(path: str):
    """Parse a snapshot JSONL file -> (header, rows)."""
    header: Optional[dict] = None
    rows: List[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            if header is None and "schema" in doc:
                header = doc
            else:
                rows.append(doc)
    return header or {}, rows

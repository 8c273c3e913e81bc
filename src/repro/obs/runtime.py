"""Process-wide observability session for the experiment harness.

The experiment modules construct their own ``Environment``/``Fabric``
pairs internally (often one per data point), so the CLI cannot inject a
tracer by argument.  Instead the runner *installs* an
:class:`ObsSession`; every ``Fabric`` created while it is active asks
:func:`current` for a tracer and metrics registry, and the session
collects them all so the runner can export one combined Chrome trace
and one metrics dump at the end::

    with obs_session(trace=True) as session:
        fig5_micro.run()
    session.write_trace("/tmp/fig5.trace.json")

With no session installed, fabrics fall back to the zero-cost
:data:`~repro.obs.trace.NULL_TRACER` plus a private (unexported)
registry — the default, calibration-safe configuration.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import List, Optional

from repro.obs.export import write_chrome_trace
from repro.obs.registry import MetricsRegistry, json_safe
from repro.obs.snapshot import Snapshotter, write_snapshots
from repro.obs.trace import Tracer


class ObsSession:
    """Collects the tracers/registries of every Fabric built under it.

    ``snapshot_interval_us``, when set, attaches a
    :class:`~repro.obs.snapshot.Snapshotter` to every fabric so the run
    emits live time-series rows alongside the end-of-run aggregates;
    ``None`` (the default) schedules nothing and keeps the simulated
    event stream bit-identical to a session-free run.
    """

    def __init__(
        self,
        trace: bool = True,
        label: str = "",
        snapshot_interval_us: Optional[float] = None,
    ):
        self.trace = trace
        self.label = label
        self.snapshot_interval_us = snapshot_interval_us
        self.tracers: List[Tracer] = []
        self.registries: List[MetricsRegistry] = []
        self.snapshotters: List[Snapshotter] = []
        self._runs = 0

    # -- called by Fabric ---------------------------------------------------
    def tracer_for(self, env) -> Optional[Tracer]:
        """A fresh tracer for one environment (None = tracing off)."""
        if not self.trace:
            return None
        self._runs += 1
        tracer = Tracer(env, run=f"run{self._runs}")
        self.tracers.append(tracer)
        return tracer

    def registry_for(self, env) -> MetricsRegistry:
        registry = MetricsRegistry(env)
        self.registries.append(registry)
        if self.snapshot_interval_us is not None:
            self.snapshotters.append(
                Snapshotter(
                    env,
                    registry,
                    interval_us=self.snapshot_interval_us,
                    run=f"run{len(self.registries)}",
                )
            )
        return registry

    # -- export -------------------------------------------------------------
    def span_count(self) -> int:
        return sum(len(t.finished_spans()) for t in self.tracers)

    def write_trace(self, path: str) -> int:
        """Write the combined Chrome trace; returns the event count."""
        return write_chrome_trace(path, self.tracers, label=self.label)

    def metrics_snapshots(self) -> List[dict]:
        snapshots = (r.snapshot() for r in self.registries)
        return [s for s in snapshots if s]

    def write_metrics(self, path: str) -> int:
        """Write per-run metrics snapshots as JSON; returns run count.

        Snapshots pass through :func:`json_safe` first: an empty tally's
        ``nan`` statistics become ``null`` instead of the bare ``NaN``
        literal ``json.dump`` would emit (invalid per RFC 8259 — the
        ``default`` hook never sees floats, so it cannot intercept them).
        """
        snapshots = self.metrics_snapshots()
        doc = {"label": self.label, "runs": json_safe(snapshots)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        return len(snapshots)

    def snapshot_rows(self) -> int:
        return sum(len(s.samples) for s in self.snapshotters)

    def write_snapshots(self, path: str) -> int:
        """Write the time-series rows as JSON Lines; returns row count."""
        return write_snapshots(path, self.snapshotters, label=self.label)

    def write_run_dir(self, run_dir: str) -> dict:
        """Write the full run bundle the dashboard renders.

        Layout: ``meta.json`` (label + options), ``metrics.json``
        (end-of-run aggregates), ``snapshots.jsonl`` (time series), and
        ``trace.json`` when tracing was on.  Returns the meta document.
        """
        os.makedirs(run_dir, exist_ok=True)
        runs = self.write_metrics(os.path.join(run_dir, "metrics.json"))
        rows = self.write_snapshots(os.path.join(run_dir, "snapshots.jsonl"))
        meta = {
            "schema": "repro.obs.run/1",
            "label": self.label,
            "snapshot_interval_us": self.snapshot_interval_us,
            "runs": runs,
            "snapshot_rows": rows,
            "trace": bool(self.trace),
        }
        if self.trace:
            meta["trace_events"] = self.write_trace(
                os.path.join(run_dir, "trace.json")
            )
        with open(os.path.join(run_dir, "meta.json"), "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
        return meta


_current: Optional[ObsSession] = None


def current() -> Optional[ObsSession]:
    """The active session, if any (consulted by ``Fabric.__init__``)."""
    return _current


def install(session: ObsSession) -> None:
    global _current
    if _current is not None:
        raise RuntimeError("an ObsSession is already installed")
    _current = session


def uninstall() -> None:
    global _current
    _current = None


@contextmanager
def obs_session(
    trace: bool = True,
    label: str = "",
    snapshot_interval_us: Optional[float] = None,
):
    """Scope an :class:`ObsSession` around a block of experiment runs."""
    session = ObsSession(
        trace=trace, label=label, snapshot_interval_us=snapshot_interval_us
    )
    install(session)
    try:
        yield session
    finally:
        uninstall()

"""Hadoop-style ``Configuration``: string-keyed tunables with typed reads.

Mirrors ``org.apache.hadoop.conf.Configuration`` far enough for the RPC
layer and daemons to share one mechanism, including the paper's
``rpc.ib.enabled`` switch and the eager/RDMA threshold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, FrozenSet, Iterator, List, Mapping, Optional, TypeVar,
)

T = TypeVar("T")


class Configuration:
    """A mutable mapping of dotted config keys to values.

    Values are stored as given; typed getters coerce on read like
    Hadoop's ``getInt``/``getBoolean`` do.
    """

    #: Keys the reproduction understands, with defaults (documented in
    #: README).  Unknown keys are allowed — Hadoop configs are open.
    DEFAULTS: Dict[str, Any] = {
        # -- RPC engine selection (Section III-D) -------------------------
        "rpc.ib.enabled": False,
        # Messages at or below this many bytes use eager send/recv over
        # IB; larger ones use RDMA (paper: "a tunable threshold to
        # adaptively make very small messages go through send/recv").
        "rpc.ib.rdma.threshold": 8192,
        # -- predictor-driven adaptive transport (repro.net.verbs) --------
        # When enabled, the eager/rendezvous choice consults the
        # message-size-locality predictor (Fig. 3): confidently
        # predicted-large messages have their rendezvous buffer
        # advertisement pre-posted (overlapped with serialization, the
        # cheaper rdma_prepost_us instead of rdma_rendezvous_us).  Off
        # by default — the static-threshold event schedule is preserved
        # exactly unless a workload opts in.  Both keys hot-reload (see
        # RELOADABLE below).
        "ipc.ib.adaptive.enabled": False,
        # Consecutive same-size-class observations of a call kind before
        # its prediction is trusted; below this the static threshold
        # decides alone.
        "ipc.ib.adaptive.confidence": 3,
        # -- RPC server sizing (Hadoop 0.20.2 defaults) --------------------
        "ipc.server.handler.count": 10,
        "ipc.server.reader.count": 1,
        "ipc.server.callqueue.size": 100,
        "ipc.client.connection.maxidletime": 10_000_000.0,  # usec
        # -- RPC failure semantics (Hadoop ipc.Client analogues) -----------
        "ipc.client.connect.max.retries": 10,
        "ipc.client.connect.retry.interval": 1_000_000.0,  # usec
        "ipc.client.connect.retry.policy": "fixed",  # or "exponential"
        "ipc.client.call.timeout": 0.0,  # usec; 0 disables call deadlines
        "ipc.client.call.max.retries": 5,
        "ipc.client.call.retry.interval": 200_000.0,  # usec (exponential)
        "ipc.client.ping": True,
        "ipc.ping.interval": 60_000_000.0,  # usec
        # -- async multiplexed client (repro.rpc.mux) ----------------------
        # Share one connection per (address, transport) across every
        # caller on the node: calls enqueue into a ConnectionMux whose
        # single sender batches all queued calls into one wire frame.
        # Off by default — call-at-a-time semantics (and the existing
        # event schedule) are preserved exactly unless a workload opts in.
        "ipc.client.async.enabled": False,
        # Bound on sent-but-unanswered calls per mux (the pipelining
        # window).  Hot-reloadable: the sender re-reads it before every
        # batch, so a live retune widens or narrows the window mid-run.
        "ipc.client.async.max-inflight": 32,
        # -- client-side NameNode failover (repro.rpc.failover) ------------
        # Failovers a FailoverProxy performs before giving up on a call.
        "ipc.client.failover.max.attempts": 15,
        "ipc.client.failover.sleep.base": 200_000.0,  # usec
        "ipc.client.failover.sleep.max": 5_000_000.0,  # usec
        "ipc.client.failover.retry.policy": "exponential",  # or "fixed"
        # Extra sleep drawn uniformly from [0, jitter * delay) on the
        # proxy's named RNG stream (de-synchronizes a client fleet).
        "ipc.client.failover.jitter": 0.1,
        # -- RPC QoS: call queue + scheduler (HADOOP-9640/10282) -----------
        "ipc.callqueue.impl": "fifo",  # or "fair" (FairCallQueue)
        # Comma-separated WRR drain weights, one per priority level;
        # empty = Hadoop's 2^(levels-1-i) defaults (8,4,2,1 for 4).
        "ipc.callqueue.fair.weights": "",
        "scheduler.priority.levels": 4,
        "decay-scheduler.period": 1_000_000.0,  # usec between decay sweeps
        "decay-scheduler.decay-factor": 0.5,
        # Comma-separated usage-share thresholds (levels-1 increasing
        # floats in (0,1]); empty = Hadoop's 1/2**(levels-i) ladder.
        "decay-scheduler.thresholds": "",
        # Reject over-limit tenants with RetriableException (+ suggested
        # backoff) instead of ServerOverloadedException.
        "ipc.backoff.enable": False,
        # -- buffer management --------------------------------------------
        "io.buffer.initial.size": 32,  # DataOutputBuffer initial (Java)
        "io.server.buffer.initial.size": 10 * 1024,  # server-side initial
        # -- HDFS -----------------------------------------------------------
        "dfs.replication": 3,
        # Replicas that must be confirmed (blockReceived) before addBlock
        # will allocate the next block / complete() returns true.  The
        # Fig. 7 integrated evaluation runs with this at the full
        # replication factor (durable-write configuration).
        "dfs.replication.min": 1,
        "dfs.block.size": 64 * 1024 * 1024,
        "dfs.heartbeat.interval": 3_000_000.0,  # usec (3 s)
        # -- NameNode HA (repro.ha) -----------------------------------------
        "dfs.ha.failover.check.interval": 150_000.0,  # usec between probes
        "dfs.ha.failover.probe.timeout": 200_000.0,  # usec per-probe deadline
        # Consecutive failed health probes before the controller fences
        # the active and promotes the standby.
        "dfs.ha.failover.failure.threshold": 3,
        "dfs.ha.tail-edits.period": 100_000.0,  # usec between standby tails
        # -- MapReduce --------------------------------------------------------
        "mapred.tasktracker.map.tasks.maximum": 8,
        "mapred.tasktracker.reduce.tasks.maximum": 4,
        "mapred.heartbeat.interval": 3_000_000.0,  # usec
        "mapred.task.ping.interval": 3_000_000.0,
        # -- HBase ------------------------------------------------------------
        "hbase.regionserver.handler.count": 10,
        # Effective per-server flush trigger.  Per-region flush size is
        # 64 MB, but with ~100 regions per server the global memstore
        # heap limit (35% of a 1 GB heap) forces flushes far earlier —
        # this is the server-level pressure point we model.
        "hbase.hregion.memstore.flush.size": 8 * 1024 * 1024,
        "hbase.blockcache.size": 200 * 1024 * 1024,
    }

    #: Keys the runtime re-reads after construction, each through a
    #: :meth:`view`: a write mid-run takes effect at the key's next use.
    #: Lint rule SIM010 flags an init-time cache of any of them that
    #: bypasses a view.
    RELOADABLE: FrozenSet[str] = frozenset(
        {
            # repro.rpc.client.Client, per call
            "ipc.client.call.timeout",
            "ipc.client.call.max.retries",
            "ipc.client.call.retry.interval",
            "io.buffer.initial.size",
            "ipc.client.async.enabled",
            # repro.rpc.mux.ConnectionMux, per batch
            "ipc.client.async.max-inflight",
            # repro.rpc.server.Server, per socket response
            "io.server.buffer.initial.size",
            # repro.rpc.callqueue.FairCallQueue, per admit / drain
            "ipc.callqueue.fair.weights",
            "decay-scheduler.thresholds",
            # repro.net.verbs.AdaptiveTransport, per RPCoIB send
            "rpc.ib.rdma.threshold",
            "ipc.ib.adaptive.enabled",
            "ipc.ib.adaptive.confidence",
            # repro.rpc.failover.FailoverProxy, per call
            "ipc.client.failover.max.attempts",
            "ipc.client.failover.sleep.base",
            "ipc.client.failover.sleep.max",
            "ipc.client.failover.retry.policy",
            "ipc.client.failover.jitter",
            # repro.ha.controller.FailoverController, per probe round
            "dfs.ha.failover.check.interval",
            "dfs.ha.failover.failure.threshold",
        }
    )

    def __init__(self, values: Optional[Mapping[str, Any]] = None):
        self._values: Dict[str, Any] = dict(self.DEFAULTS)
        if values:
            self._values.update(values)
        # Mutation stamp: bumped by every write; views compare it.
        self._version = 0

    # -- typed getters -----------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        return self._values.get(key, default)

    def get_int(self, key: str, default: Optional[int] = None) -> int:
        value = self._values.get(key, default)
        if value is None:
            raise KeyError(key)
        return int(value)

    def get_float(self, key: str, default: Optional[float] = None) -> float:
        value = self._values.get(key, default)
        if value is None:
            raise KeyError(key)
        return float(value)

    def get_bool(self, key: str, default: Optional[bool] = None) -> bool:
        value = self._values.get(key, default)
        if value is None:
            raise KeyError(key)
        if isinstance(value, str):
            return value.strip().lower() in ("true", "1", "yes", "on")
        return bool(value)

    def get_ints(self, key: str) -> list[int]:
        """Parse a comma-separated int list (call-queue weights etc.)."""
        raw = self._values.get(key, "")
        if isinstance(raw, (list, tuple)):
            return [int(v) for v in raw]
        return [int(part) for part in str(raw).split(",") if part.strip()]

    def get_floats(self, key: str) -> list[float]:
        """Parse a comma-separated float list (threshold ladders etc.)."""
        raw = self._values.get(key, "")
        if isinstance(raw, (list, tuple)):
            return [float(v) for v in raw]
        return [float(part) for part in str(raw).split(",") if part.strip()]

    # -- mutation ----------------------------------------------------------
    def set(self, key: str, value: Any) -> "Configuration":
        self._values[key] = value
        self._version += 1
        return self

    def update(self, values: Mapping[str, Any]) -> "Configuration":
        self._values.update(values)
        self._version += 1
        return self

    def copy(self) -> "Configuration":
        return Configuration(self._values)

    # -- hot reload --------------------------------------------------------
    def view(self, parse: Callable[["Configuration"], T]) -> Callable[[], T]:
        """A cached ``parse(self)`` that re-runs on the first read after
        any write — how components hold the :attr:`RELOADABLE` keys.

        A read costs one int comparison, so hot paths (a call, a batch,
        a send) read their tunables through a view on every use, and a
        write mid-run — say, by a :class:`ConfigWatcher` — lands at the
        next one.
        """
        parsed_at, value = -1, None

        def read() -> T:
            nonlocal parsed_at, value
            if parsed_at != self._version:
                value = parse(self)
                parsed_at = self._version
            return value

        return read

    # -- mapping protocol -----------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return key in self._values

    def __getitem__(self, key: str) -> Any:
        return self._values[key]

    def __setitem__(self, key: str, value: Any) -> None:
        self._values[key] = value
        self._version += 1

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        overrides = {
            k: v for k, v in self._values.items() if self.DEFAULTS.get(k) != v
        }
        return f"<Configuration overrides={overrides!r}>"


# -- scheduled hot reload ----------------------------------------------------


@dataclass(frozen=True)
class ScheduledUpdate:
    """One reload step: apply ``values`` at simulated time ``at_us``."""

    at_us: float
    values: Dict[str, Any] = field(default_factory=dict)


@dataclass
class ReloadPlan:
    """An ordered list of scheduled configuration updates.

    JSON schema (``ReloadPlan.from_dict`` / ``from_file``)::

        {"updates": [{"at_us": 250000.0,
                      "set": {"ipc.callqueue.fair.weights": "8,4,2,1"}}]}

    The plan is pure data; :meth:`watch` arms it on a simulation by
    spawning a :class:`ConfigWatcher`.
    """

    updates: List[ScheduledUpdate] = field(default_factory=list)

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "ReloadPlan":
        updates = []
        for entry in doc.get("updates", []):
            at_us = float(entry["at_us"])
            values = dict(entry.get("set", {}))
            if at_us < 0:
                raise ValueError(f"at_us must be >= 0, got {at_us}")
            if not values:
                raise ValueError(f"update at t={at_us} sets nothing")
            updates.append(ScheduledUpdate(at_us=at_us, values=values))
        return cls(updates=updates)

    @classmethod
    def from_file(cls, path: str) -> "ReloadPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "updates": [
                {"at_us": u.at_us, "set": dict(u.values)} for u in self.updates
            ]
        }

    def watch(self, env, conf: Configuration, name: str = "") -> "ConfigWatcher":
        return ConfigWatcher(env, conf, self.updates, name=name)


class ConfigWatcher:
    """Applies scheduled updates to a live Configuration on the sim clock.

    The watcher is one simulation process: it sleeps until each update's
    ``at_us`` (stable-sorted, so same-time updates apply in plan order)
    and calls ``conf.update(values)`` at that exact simulated instant.
    Components read the keys through :meth:`Configuration.view`, so each
    sees the update at its next use of the key (a fair call queue: the
    threshold ladder at its next admit, the weights at its next drain).
    ``applied`` records ``{"t_us", "keys"}`` rows for the run artifacts.
    """

    def __init__(self, env, conf: Configuration, updates, name: str = ""):
        self.env = env
        self.conf = conf
        self.updates = sorted(updates, key=lambda u: u.at_us)
        self.applied: List[Dict[str, Any]] = []
        self.process = env.process(
            self._loop(), name=name or "config-watcher"
        )

    def _loop(self):
        for update in self.updates:
            delay = update.at_us - self.env.now
            yield self.env.timeout(max(0.0, delay))
            self.conf.update(update.values)
            self.applied.append(
                {"t_us": self.env.now, "keys": sorted(update.values)}
            )

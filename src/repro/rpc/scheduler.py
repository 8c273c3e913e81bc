"""RPC schedulers: per-caller priority assignment for the call queue.

Reproduces Hadoop's ``DecayRpcScheduler`` (HADOOP-10282), the priority
engine behind ``FairCallQueue``: the server tracks how many calls each
caller has issued, periodically multiplies every count by a decay
factor on the *simulated* clock, and maps each caller's share of the
decayed total onto a priority level through a threshold ladder.  A
tenant that monopolizes the server decays toward the lowest priority;
an occasional caller stays at the highest.

Determinism: the decay sweep runs on a named
:mod:`repro.simcore.rng` stream (the per-server jitter that staggers
sweeps across servers), never on ambient RNG — rule SIM007 of
:mod:`repro.lint` enforces this for this module just as it does for the
fault-injection plane.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.simcore.rng import DEFAULT_SEED, named_stream


def default_thresholds(levels: int) -> List[float]:
    """Hadoop's default usage-share ladder: ``1/2**(levels-i)`` steps.

    For 4 levels this is ``[0.125, 0.25, 0.5]`` — a caller with less
    than 12.5% of the decayed traffic gets priority 0 (highest), one
    with at least half of it gets priority 3 (lowest).
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    return [1.0 / (2 ** (levels - 1 - i)) for i in range(levels - 1)]


class RpcScheduler:
    """Interface: assigns a priority level to each incoming call."""

    levels: int = 1

    def charge(self, caller: str) -> int:
        """Record one call from ``caller``; returns its priority level."""
        raise NotImplementedError

    def priority_of(self, caller: str) -> int:
        """Current priority of ``caller`` without recording a call."""
        raise NotImplementedError

    def suggested_backoff_us(self, priority: int) -> float:
        """Server-suggested client backoff for a rejected call."""
        raise NotImplementedError

    def stop(self) -> None:
        """Tear down any housekeeping processes."""


class DecayRpcScheduler(RpcScheduler):
    """Priority by decayed per-caller usage share (HADOOP-10282).

    * ``charge(caller)`` bumps the caller's count and the grand total;
    * every ``period_us`` (± a deterministic, named-stream jitter that
      staggers sweeps across servers) all counts are multiplied by
      ``decay_factor`` and callers that decay below half a call are
      forgotten;
    * ``priority_of`` maps ``count/total`` through ``thresholds``: the
      first level whose threshold exceeds the share wins, callers above
      every threshold land on the lowest level.
    """

    #: forget callers whose decayed count drops below this.
    MIN_COUNT = 0.5
    #: sweep-stagger jitter: each period is scaled into [0.95, 1.05].
    JITTER_FRACTION = 0.1

    def __init__(
        self,
        env,
        levels: int = 4,
        period_us: float = 1_000_000.0,
        decay_factor: float = 0.5,
        thresholds: Optional[List[float]] = None,
        registry=None,
        server_name: str = "",
        seed: int = DEFAULT_SEED,
    ):
        if levels < 1:
            raise ValueError(f"levels must be >= 1, got {levels}")
        if period_us <= 0:
            raise ValueError(f"period must be > 0, got {period_us}")
        if not 0.0 < decay_factor < 1.0:
            raise ValueError(f"decay factor must be in (0, 1), got {decay_factor}")
        self.env = env
        self.levels = int(levels)
        self.period_us = float(period_us)
        self.decay_factor = float(decay_factor)
        self.thresholds = self._validated_thresholds(
            list(thresholds) if thresholds is not None
            else default_thresholds(self.levels)
        )
        self.server_name = server_name
        #: decayed per-caller call counts and their sum.
        self.counts: Dict[str, float] = {}
        self.total = 0.0
        self.decay_sweeps = 0
        self._stopped = False
        self._rng = named_stream(f"decay-scheduler:{server_name}", seed)
        self._registry = registry
        self._priority_gauges: Dict[str, object] = {}
        self._decay_proc = env.process(
            self._decay_loop(), name=f"decay-scheduler:{server_name}"
        )

    def _validated_thresholds(self, thresholds: List[float]) -> List[float]:
        if len(thresholds) != self.levels - 1:
            raise ValueError(
                f"{self.levels} levels need {self.levels - 1} thresholds, "
                f"got {len(thresholds)}"
            )
        if any(
            a >= b for a, b in zip(thresholds, thresholds[1:])
        ) or any(not 0.0 < t <= 1.0 for t in thresholds):
            raise ValueError(f"thresholds must be increasing in (0, 1]: "
                             f"{thresholds}")
        return thresholds

    # -- hot reload ---------------------------------------------------------
    def set_thresholds(self, thresholds: Optional[List[float]]) -> None:
        """Replace the usage-share ladder mid-run (``None`` = defaults).

        Takes effect for the *next* priority decision; existing decayed
        counts are kept, so an abusive tenant's history immediately maps
        through the new ladder.  Priority gauges refresh here, so the
        live time-series shows the reclassification when the ladder is
        applied rather than at each caller's next charge.  The same
        ladder again is a no-op.
        """
        if thresholds is None:
            thresholds = default_thresholds(self.levels)
        if thresholds != self.thresholds:
            self.thresholds = self._validated_thresholds(list(thresholds))
            if self._registry is not None:
                for caller in self.counts:
                    gauge = self._priority_gauges.get(caller)
                    if gauge is not None:
                        gauge.set(self.priority_of(caller))

    # -- priority assignment ----------------------------------------------
    def priority_of(self, caller: str) -> int:
        if self.total <= 0.0:
            return 0
        share = self.counts.get(caller, 0.0) / self.total
        for level, threshold in enumerate(self.thresholds):
            if share < threshold:
                return level
        return self.levels - 1

    def charge(self, caller: str) -> int:
        self.counts[caller] = self.counts.get(caller, 0.0) + 1.0
        self.total += 1.0
        priority = self.priority_of(caller)
        if self._registry is not None:
            gauge = self._priority_gauges.get(caller)
            if gauge is None:
                gauge = self._priority_gauges[caller] = self._registry.gauge(
                    "rpc.scheduler.caller_priority",
                    server=self.server_name, caller=caller,
                )
            gauge.set(priority)
        return priority

    def suggested_backoff_us(self, priority: int) -> float:
        """Longer backoff for lower priority: a slice of the decay
        period, so an over-limit tenant retries after its usage share
        has had a chance to decay."""
        return self.period_us * (priority + 1) / self.levels

    # -- decay sweep --------------------------------------------------------
    def decay(self) -> None:
        """One sweep: scale every count, forget negligible callers."""
        self.decay_sweeps += 1
        total = 0.0
        for caller in list(self.counts):
            decayed = self.counts[caller] * self.decay_factor
            if decayed < self.MIN_COUNT:
                del self.counts[caller]
                gauge = self._priority_gauges.get(caller)
                if gauge is not None:
                    gauge.set(0)
            else:
                self.counts[caller] = decayed
                total += decayed
        self.total = total
        if self._registry is not None:
            for caller in self.counts:
                self._priority_gauges[caller].set(self.priority_of(caller))

    def _decay_loop(self):
        half = self.JITTER_FRACTION / 2.0
        while not self._stopped:
            jitter = 1.0 - half + self.JITTER_FRACTION * self._rng.random()
            yield self.env.timeout(self.period_us * jitter)
            if self._stopped:
                return
            self.decay()

    def stop(self) -> None:
        self._stopped = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<DecayRpcScheduler levels={self.levels} callers={len(self.counts)}"
            f" total={self.total:.1f} sweeps={self.decay_sweeps}>"
        )

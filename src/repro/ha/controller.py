"""The failover controller: ZKFC-style failure detection + fencing.

One controller process watches an HA pair from its own node.  It
health-probes the current active over real RPC (so crashes, partitions
and slow paths are observed exactly as a peer would observe them) on a
jittered ``dfs.ha.failover.check.interval`` cadence; after
``dfs.ha.failover.failure.threshold`` consecutive probe failures it

1. verifies the standby is reachable (one probe),
2. **fences** the old active by bumping the shared journal's epoch
   (synchronous — the fenced writer demotes inside the call), then
3. replays the standby's remaining journal entries (:meth:`catch_up`)
   and promotes it under the new epoch.

Between fence and promote there are *zero* actives, never two — the
at-most-one-active invariant is structural.  Transitions are driven by
direct method calls (the controller plays the colocated-ZKFC +
ZooKeeper coordination plane); only the health probes, which must see
the network's failures, ride RPC.

A fenced NameNode that later restarts simply *is* a standby already
(the fence hook demoted it while it was down), and its tail loop
catches it up — rejoin needs no extra protocol.
"""

from __future__ import annotations

from typing import List, Optional

from repro.calibration import NetworkSpec
from repro.config import Configuration
from repro.ha.journal import SharedJournal
from repro.ha.participant import HAServiceProtocol
from repro.ha.state import HAState
from repro.net.fabric import Fabric, Node
from repro.rpc.call import RemoteException
from repro.rpc.engine import RPC
from repro.simcore.rng import Random, named_stream


class FailoverController:
    """Deterministic failure detector + fencing driver for one HA pair."""

    def __init__(
        self,
        fabric: Fabric,
        node: Node,
        targets: List,
        journal: SharedJournal,
        conf: Optional[Configuration] = None,
        spec: Optional[NetworkSpec] = None,
        rng: Optional[Random] = None,
        name: str = "",
    ):
        assert spec is not None, "FailoverController needs the RPC network spec"
        self.fabric = fabric
        self.env = fabric.env
        self.node = node
        self.targets = list(targets)
        self.journal = journal
        self.conf = conf or Configuration()
        self.rng = rng or named_stream(f"ha-controller:{node.name}")
        self.name = name or f"ha-controller@{node.name}"
        # The probe client gets its own tight-deadline Configuration
        # copy: one connect attempt, per-call deadline at the probe
        # timeout, no keepalive pings — a probe either answers fast or
        # counts as a failure.
        probe_conf = self.conf.copy()
        probe_conf.update(
            {
                "ipc.client.call.timeout": self.conf.get_float(
                    "dfs.ha.failover.probe.timeout"
                ),
                "ipc.client.call.max.retries": 0,
                "ipc.client.connect.max.retries": 1,
                "ipc.client.connect.retry.interval": 50_000.0,
                "ipc.client.ping": False,
            }
        )
        self.client = RPC.get_client(
            fabric, node, spec, conf=probe_conf, name=self.name
        )
        self._proxies = {
            t.ha_name: RPC.get_proxy(HAServiceProtocol, t.address, self.client)
            for t in self.targets
        }
        self.failovers = 0
        self.probes = 0
        self.probe_failures = 0
        self._failover_counter = fabric.metrics.counter(
            "ha.failovers", node=node.name
        )
        #: (probe interval, failure threshold), re-read per probe round.
        self._controller_conf = self.conf.view(lambda conf: (
            conf.get_float("dfs.ha.failover.check.interval"),
            conf.get_int("dfs.ha.failover.failure.threshold"),
        ))
        self.process = self.env.process(self._loop(), name=self.name)

    def _current_active(self):
        for target in self.targets:
            if target.ha_state is HAState.ACTIVE:
                return target
        return None

    # -- probing -----------------------------------------------------------
    def _probe(self, target):
        """Generator: one health probe; value True iff it answered."""
        self.probes += 1
        try:
            yield self._proxies[target.ha_name].monitorHealth()
        except (RemoteException, ConnectionError):
            self.probe_failures += 1
            return False
        return True

    def _find_healthy(self, exclude=None):
        """Generator: first reachable target other than ``exclude``."""
        for target in self.targets:
            if target is exclude:
                continue
            healthy = yield from self._probe(target)
            if healthy:
                return target
        return None

    # -- fencing + promotion -----------------------------------------------
    def _promote(self, target):
        """Generator: fence the old epoch holder, catch up, promote."""
        epoch = self.journal.new_epoch(target.ha_name)
        yield from target.catch_up()
        target.transition_to_active(epoch)
        self.failovers += 1
        self._failover_counter.add()

    def _loop(self):
        failures = 0
        while True:
            interval, threshold = self._controller_conf()
            yield self.env.timeout(
                interval + self.rng.uniform(0.0, 0.05 * interval)
            )
            active = self._current_active()
            if active is None:
                # Nobody is active (initial grant raced, or a fenced
                # active has no promotable peer yet): promote the first
                # reachable member.
                candidate = yield from self._find_healthy()
                if candidate is not None:
                    yield from self._promote(candidate)
                    failures = 0
                continue
            healthy = yield from self._probe(active)
            if healthy:
                failures = 0
                continue
            failures += 1
            if failures < threshold:
                continue
            candidate = yield from self._find_healthy(exclude=active)
            if candidate is not None:
                yield from self._promote(candidate)
                failures = 0
            # No reachable standby: keep the (unreachable) active's
            # epoch — fencing without a successor would only turn one
            # outage into two.

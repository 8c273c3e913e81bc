"""Client-side failover: a sticky-active proxy over an HA address pair.

``FailoverProxy`` is the HA-aware drop-in for
:class:`~repro.rpc.engine.RpcProxy`: same dynamic-stub surface
(``yield proxy.method(...)``), but bound to an ordered list of
addresses instead of one.  It stays **sticky** on the address that last
answered; when a call comes back with a typed
:class:`~repro.rpc.call.StandbyException` (landed on the standby) or a
:class:`ConnectionError` (crashed/unreachable — including call
timeouts, after the underlying :class:`~repro.rpc.client.Client` has
exhausted its own per-address retries), it rotates to the next address
and re-issues the call after a backoff.

Retry policy (all hot-reloadable — the proxy re-parses on every
Configuration version bump, which lint rule SIM010 checks for any
cache-at-init regression):

* ``ipc.client.failover.max.attempts`` — failovers per call before
  :class:`~repro.rpc.call.RetriesExhaustedError`;
* ``ipc.client.failover.sleep.base`` / ``.sleep.max`` — backoff delay,
  fixed at base or doubling up to max per
  ``ipc.client.failover.retry.policy`` (``fixed``/``exponential``);
* ``ipc.client.failover.jitter`` — extra uniform-[0, jitter*delay)
  sleep drawn from the proxy's named RNG stream.

Failovers are counted in the fabric registry (``rpc.client.failovers``)
and on the proxy (``proxy.failovers``).
"""

from __future__ import annotations

from typing import List, Optional, Type

from repro.net.sockets import SocketAddress
from repro.rpc.call import (
    RemoteException,
    RetriesExhaustedError,
    StandbyException,
)
from repro.rpc.client import Client, retry_policy
from repro.rpc.protocol import RpcProtocol
from repro.simcore.rng import Random, named_stream


class FailoverProxy:
    """Dynamic stub over an ordered HA address list, sticky on success."""

    def __init__(
        self,
        client: Client,
        addresses: List[SocketAddress],
        protocol: Type[RpcProtocol],
        rng: Optional[Random] = None,
    ):
        if not addresses:
            raise ValueError("FailoverProxy needs at least one address")
        self._client = client
        self._env = client.env
        self._addresses = list(addresses)
        self._protocol = protocol
        self._rng = rng or named_stream(f"failover:{client.name}")
        #: index of the address believed active (sticky across calls).
        self._active_index = 0
        #: the ``ipc.client.failover.*`` policy, re-read per call.
        self._failover_conf = client.conf.view(lambda conf: (
            conf.get_int("ipc.client.failover.max.attempts"),
            conf.get_float("ipc.client.failover.sleep.base"),
            conf.get_float("ipc.client.failover.sleep.max"),
            retry_policy(conf, "ipc.client.failover.retry.policy"),
            conf.get_float("ipc.client.failover.jitter"),
        ))
        self._failover_counter = None
        self.failovers = 0

    def __getattr__(self, method: str):
        if method.startswith("_"):
            raise AttributeError(method)
        attr = getattr(self._protocol, method, None)
        if not callable(attr):
            raise AttributeError(
                f"{self._protocol.protocol_name()} has no RPC method {method!r}"
            )

        def invoke(*params):
            return self._env.process(
                self._invoke_proc(method, list(params)),
                name=f"failover:{self._protocol.protocol_name()}.{method}",
            )

        invoke.__name__ = method
        self.__dict__[method] = invoke
        return invoke

    def _invoke_proc(self, method: str, params: list):
        max_attempts, base_us, max_us, policy, jitter = self._failover_conf()
        failovers = 0
        while True:
            index = self._active_index
            address = self._addresses[index]
            try:
                value = yield self._client.call(
                    address, self._protocol, method, params
                )
            except RemoteException as exc:
                if exc.class_name != StandbyException.CLASS_NAME:
                    raise
                cause = exc
            except ConnectionError as exc:
                cause = exc
            else:
                # Reaffirm stickiness: a concurrent call may have
                # rotated the shared index while we were in flight.
                self._active_index = index
                return value
            failovers += 1
            if failovers > max_attempts:
                raise RetriesExhaustedError(
                    f"{method}: failover attempts exhausted after "
                    f"{failovers} tries",
                    attempts=failovers,
                    cause=cause,
                ) from cause
            self._note_failover()
            self._active_index = (index + 1) % len(self._addresses)
            if policy == "exponential":
                delay = min(max_us, base_us * (2.0 ** (failovers - 1)))
            else:
                delay = base_us
            if jitter > 0:
                delay += self._rng.uniform(0.0, jitter * delay)
            yield self._env.timeout(delay)

    def _note_failover(self) -> None:
        self.failovers += 1
        counter = self._failover_counter
        if counter is None:
            counter = self._failover_counter = self._client.fabric.metrics.counter(
                "rpc.client.failovers", node=self._client.node.name
            )
        counter.add()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FailoverProxy {self._protocol.protocol_name()}@"
            f"{self._addresses} active={self._active_index}>"
        )

"""The closed-loop scenario driver behind the non-figure experiments.

The paper measures RPC with closed-loop callers that block on each
reply: Fig. 5's ping-pong, scaled out over clients.  qos, operator,
campaign, chaos, failover, incast and crossover keep only their spec
and their report.  Each builds a :class:`Scenario` (environment, fabric,
servers), spawns its callers as :func:`closed_loop` streams tallied per
stream group in a :class:`Group`, and reports through one nearest-rank
:func:`percentile`.

A stream yields exactly the events a hand-written loop would: the
stagger timeout if one is given (a real ``timeout(0)`` for a zero
stagger), one yield per call, and one think timeout after every call,
the last included.  Tallying never touches the simulated clock, so
moving a loop onto the driver moves no event.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.faults import FaultPlan
from repro.faults import runtime as faults_runtime
from repro.net.fabric import Fabric
from repro.rpc.call import RemoteException
from repro.rpc.engine import RPC
from repro.rpc.microbench import PingPongProtocol
from repro.simcore import Environment

#: What a call may raise without ending its stream: typed RPC failures
#: and transport errors.  Anything else is a bug and fails the run.
RAISES: Tuple[type, ...] = (RemoteException, ConnectionError)


@dataclass
class Group:
    """Tallies of one stream group: a tenant, a client set, a writer pool."""

    issued: int = 0
    completed: int = 0
    raised: int = 0
    #: raised calls per exception class name.
    errors: Dict[str, int] = field(default_factory=dict)
    #: ``(start_us, latency_us)`` per completed call, in completion order.
    samples: List[Tuple[float, float]] = field(default_factory=list)
    #: first stream start and last stream end, in simulated us.
    start: Optional[float] = None
    end: Optional[float] = None

    @property
    def latencies(self) -> List[float]:
        return [latency for _, latency in self.samples]


def closed_loop(
    env, group: Group, call=None, ops=None, until_us=None, think_us=None,
    stagger_us=None, connect=None, raises=RAISES, on_done=None,
):
    """One closed-loop stream: stagger, then call, block, think, repeat.

    ``call(i)`` returns the event of op ``i``; ``connect()``, if given,
    builds the call once the stagger has elapsed.  The stream makes
    ``ops`` calls, or calls while ``env.now < until_us``.  A call that
    raises one of ``raises`` is tallied under its class name and the
    stream goes on; ``on_done(i)`` runs after each completed call.
    """
    if stagger_us is not None:
        yield env.timeout(stagger_us)
    if connect is not None:
        call = connect()
    if group.start is None:
        group.start = env.now
    i = 0
    while (i < ops) if until_us is None else (env.now < until_us):
        group.issued += 1
        start = env.now
        try:
            yield call(i)
        except raises as exc:
            group.raised += 1
            label = type(exc).__name__
            group.errors[label] = group.errors.get(label, 0) + 1
        else:
            group.completed += 1
            group.samples.append((start, env.now - start))
            if on_done is not None:
                on_done(i)
        if think_us is not None:
            yield env.timeout(think_us)
        i += 1
    group.end = env.now


def pinger(proxy, payload) -> Callable:
    """The call most experiments loop on: every op echoes ``payload``."""
    return lambda i: proxy.pingpong(payload)


class Scenario:
    """A fresh environment and fabric, and the streams that drive them.

    Build it inside the experiment's fault scope: the fabric arms the
    fault session installed when it is constructed.
    """

    def __init__(self) -> None:
        self.env = Environment()
        self.fabric = Fabric(self.env)
        self.groups: Dict[str, Group] = {}
        self.procs: List = []

    def serve(self, spec, conf, service, protocol=PingPongProtocol,
              node: str = "server"):
        """One RPC server on port 9000 of a new node called ``node``."""
        return RPC.get_server(
            self.fabric, self.fabric.add_node(node), 9000, service, protocol,
            spec, conf=conf,
        )

    def spawn(self, name: str, group: str, call=None, **loop) -> None:
        """Start one :func:`closed_loop` stream tallying into ``group``."""
        tally = self.groups.setdefault(group, Group())
        self.procs.append(self.env.process(
            closed_loop(self.env, tally, call, **loop), name=name
        ))

    def spawn_tenants(self, prefix: str, calls: Dict, hostile: Optional[str],
                      streams: int, hostile_loop: Dict, victim_loop: Dict):
        """One stream per tenant, ``streams`` for the ``hostile`` one.

        Stream ``k`` of tenant ``t`` is process ``{prefix}-{t}.{k}``.
        """
        for name, call in calls.items():
            hostile_tenant = name == hostile
            count = streams if hostile_tenant else 1
            loop = hostile_loop if hostile_tenant else victim_loop
            for stream in range(count):
                self.spawn(f"{prefix}-{name}.{stream}", name, call, **loop)

    def run(self) -> Dict[str, Group]:
        """Run until every stream ends; check that every call settled."""
        self.env.run(self.env.all_of(self.procs))
        settle_once(self.groups)
        return self.groups


def settle_once(groups: Dict[str, Group]) -> None:
    """Every issued call completed or raised exactly once: none hung."""
    for name, group in groups.items():
        assert group.issued == group.completed + group.raised, (
            name, group.issued, group.completed, group.raised,
        )


def pool(groups) -> Group:
    """One group with the summed counts and every sample of ``groups``."""
    total = Group()
    for group in groups:
        total.issued += group.issued
        total.completed += group.completed
        total.raised += group.raised
        total.samples.extend(group.samples)
    return total


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; deterministic, no interpolation."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summary(group: Group) -> Dict:
    """The per-group row the experiments report."""
    latencies = group.latencies
    return {
        "issued": group.issued,
        "completed": group.completed,
        "raised": group.raised,
        "p50_us": percentile(latencies, 50.0),
        "p99_us": percentile(latencies, 99.0),
    }


def counter_sum(fabric, name: str) -> int:
    """Sum of every labelled counter called ``name`` on ``fabric``."""
    return int(sum(c.value for c in fabric.metrics.find(name).values()))


@contextmanager
def armed(plan: Optional[FaultPlan], default: Dict,
          label: str) -> Iterator[FaultPlan]:
    """Arm an experiment's fault plan around its faulted runs.

    An externally armed session (``--faults``) wins; otherwise ``plan``,
    or else the experiment's ``default`` plan dict, is armed for the
    block.  Yields the plan in force.
    """
    active = faults_runtime.current()
    if active is not None:
        yield active.plan
        return
    used = plan or FaultPlan.from_dict(default)
    with faults_runtime.session(used, label=label):
        yield used


def plan_summary(plan: FaultPlan) -> Dict:
    return {"label": plan.label, "kinds": plan.kinds(), "events": len(plan)}


def hostile_factor(fabric, node: str) -> float:
    """The ``abusive_tenant`` factor the armed plan sets for ``node``.

    Read from the plan, not the injector: the injector applies it only
    once the t=0 fault process runs, after the streams were shaped.
    """
    events = fabric.faults.plan.events if fabric.faults is not None else []
    return max(
        (e.factor for e in events
         if e.kind == "abusive_tenant" and e.node == node),
        default=1.0,
    )

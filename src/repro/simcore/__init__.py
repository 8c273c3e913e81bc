"""Discrete-event simulation engine underlying the RPCoIB reproduction.

The engine is a from-scratch, generator-coroutine DES in the style of
SimPy: simulation processes are Python generators that ``yield`` events
(timeouts, resource requests, store gets, other processes) and are
resumed by the :class:`~repro.simcore.environment.Environment` scheduler
when those events fire.  Simulated time is a ``float`` whose unit is
*microseconds* by convention throughout the project (see
:mod:`repro.units`).

Public surface::

    env = Environment()
    def proc(env):
        yield env.timeout(5.0)
        return "done"
    p = env.process(proc(env))
    env.run()
    assert p.value == "done"
"""

from repro.simcore.events import (
    AllOf,
    AnyOf,
    Condition,
    Event,
    EventAlreadyTriggered,
    Timeout,
)
from repro.simcore.process import Interrupt, Process
from repro.simcore.environment import Environment
from repro.simcore.resources import (
    FilterStore,
    PriorityResource,
    Resource,
    Store,
)
from repro.simcore.monitor import Counter, Histogram, Tally, TimeWeighted
from repro.simcore.rng import RngRegistry, named_stream, stable_seed

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Counter",
    "Environment",
    "Event",
    "EventAlreadyTriggered",
    "FilterStore",
    "Histogram",
    "Interrupt",
    "PriorityResource",
    "Process",
    "Resource",
    "RngRegistry",
    "Store",
    "Tally",
    "TimeWeighted",
    "Timeout",
    "named_stream",
    "stable_seed",
]

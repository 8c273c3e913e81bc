"""Core event types for the DES engine.

An :class:`Event` is the unit of coordination: processes yield events
and the scheduler resumes them when the event *fires*.  Events fire in
two phases: ``succeed``/``fail`` marks the event triggered and enqueues
it; the scheduler later *processes* it by running its callbacks at the
scheduled simulation time.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simcore.environment import Environment

#: Sentinel for "event has no value yet".
PENDING = object()

#: Scheduling priorities.  URGENT events (interrupts, process resume
#: bookkeeping) run before NORMAL events scheduled at the same instant.
URGENT = 0
NORMAL = 1


class EventAlreadyTriggered(RuntimeError):
    """Raised when ``succeed``/``fail`` is called on a triggered event."""


class Event:
    """A one-shot occurrence on the simulation timeline.

    Callbacks are callables of one argument (the event itself), invoked
    in registration order when the event is processed.  After
    processing, ``callbacks`` is ``None`` and late registrations are
    invoked immediately by :meth:`add_callback`.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once succeed/fail has been called."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid when triggered."""
        if self._value is PENDING:
            raise AttributeError("Event has not been triggered yet")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or failure exception)."""
        if self._value is PENDING:
            raise AttributeError("Event has not been triggered yet")
        return self._value

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # Inlined env.schedule(self, priority): delay is always 0 here so
        # the sanitizer's negative-delay check can never fire.
        env = self.env
        env._eid += 1
        heappush(env._queue, (env._now, priority, env._eid, self))
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event as failed with ``exception``.

        A failed event that is processed while no process is waiting on
        it (and nobody called :meth:`defuse`) stops the simulation with
        the exception — silent failures hide bugs.
        """
        if self._value is not PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        env = self.env
        env._eid += 1
        heappush(env._queue, (env._now, priority, env._eid, self))
        return self

    def trigger(self, event: "Event") -> None:
        """Copy the outcome of another (triggered) event onto this one."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    # -- callbacks -----------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run inline so late waiters still wake.
            callback(self)
        else:
            self.callbacks.append(callback)

    def remove_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.callbacks is not None and callback in self.callbacks:
            self.callbacks.remove(callback)

    # -- composition ---------------------------------------------------
    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_events, [self, other])

    def __repr__(self) -> str:
        state = (
            "pending"
            if self._value is PENDING
            else ("ok" if self._ok else f"failed({self._value!r})")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Field init + scheduling inlined (no super().__init__ / env.schedule
        # calls): this constructor runs once per simulated event and
        # dominates the scheduler's allocation profile.  ``delay >= 0`` is
        # already established, so the sanitizer check cannot fire.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        env._eid += 1
        heappush(env._queue, (env._now + delay, NORMAL, env._eid, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class ConditionValue:
    """Ordered mapping of event -> value for fired condition members."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(repr(key))
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def values(self) -> list:
        return [e._value for e in self.events]

    def todict(self) -> dict:
        return {e: e._value for e in self.events}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """Fires when ``evaluate(events, n_fired)`` becomes true.

    Used through :class:`AllOf` / :class:`AnyOf` or the ``&``/``|``
    operators on events.  The value is a :class:`ConditionValue` of the
    member events that had fired by the time the condition triggered.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list, int], bool],
        events: Iterable[Event],
    ):
        # Event.__init__ inlined: one Condition per transfer join /
        # keeper wakeup makes this constructor hot on the RPC path.
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0
        if not self._events:
            self.succeed(ConditionValue())
            return
        check = self._check
        for event in self._events:
            if event.env is not env:
                raise ValueError("events of a Condition must share one Environment")
            callbacks = event.callbacks
            if callbacks is None:  # already processed
                check(event)
            else:
                callbacks.append(check)

    def _populate_value(self, value: ConditionValue) -> None:
        for event in self._events:
            if isinstance(event, Condition) and event.triggered and event._ok:
                event._populate_value(value)
            elif event.callbacks is None and event.triggered:
                value.events.append(event)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        self._count += 1
        if not event._ok:
            event.defuse()
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            value = ConditionValue()
            self._populate_value(value)
            self.succeed(value)

    @staticmethod
    def all_events(events: list, count: int) -> bool:
        return len(events) == count

    @staticmethod
    def any_events(events: list, count: int) -> bool:
        return count > 0 or not events


class AllOf(Condition):
    """Condition that fires once all ``events`` have fired."""

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Condition that fires once any of ``events`` has fired."""

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, Condition.any_events, events)

"""Opt-in runtime sim-sanitizer: the dynamic half of :mod:`repro.lint`.

Static analysis cannot see every invariant violation — a buffer that
leaks only under a rare interleaving, or an event scheduled into the
past from computed state.  The sanitizer catches those at runtime:

* :class:`~repro.simcore.environment.Environment` asserts clock
  monotonicity and *rejects* events scheduled with a negative delay;
* :class:`~repro.mem.native_pool.NativeBufferPool` keeps an
  outstanding-buffer ledger with acquisition sites and reports leaks at
  teardown;
* :class:`~repro.simcore.process.Process` instances whose generator
  died while waiters were still registered — the termination event was
  never delivered, so those waiters are stranded forever — are flagged
  at teardown.

Like the observability session (:mod:`repro.obs.runtime`), the
sanitizer is installed process-wide because experiments construct their
``Environment`` objects internally::

    from repro.simcore import sanitizer

    with sanitizer.sanitized() as session:
        fig5_micro.run()
    for line in session.report_lines():
        print(line)

With no session installed every hook is a single ``is None`` branch —
the sanitizer adds **no simulated-clock events and no RNG draws**, so
reported numbers are bit-identical with and without it.  The
experiments CLI exposes it as ``python -m repro.experiments <exp>
--sanitize``.
"""

from __future__ import annotations

import traceback
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simcore.environment import Environment
    from repro.simcore.process import Process


class SanitizerError(AssertionError):
    """A simulation-safety invariant was violated at runtime."""


class HappensBeforeTracker:
    """Dynamic cross-check for lint rule SIM009 (same-timestamp races).

    The static rule flags shared attributes that several process bodies
    touch with no event ordering in between; this tracker *observes*
    those accesses at runtime.  Components opt specific objects in via
    :meth:`track` (the fair call queue registers its WRR mux and decay
    scheduler); tracking swaps the object's class for a generated
    subclass whose ``__setattr__``/``__getattribute__`` report into the
    tracker, so the object itself needs no cooperation.

    Every access is stamped with the current *event step* — a counter
    :meth:`note_step` bumps each time the Environment pops an event.
    When the clock advances, the accesses gathered at the old timestamp
    are analyzed: a (label, attr) touched from **two or more distinct
    steps at one timestamp with at least one write** is a confirmed
    race — only the heap's eid tie-break, not any happens-before edge,
    ordered those accesses, so reordering same-timestamp events would
    change the result.  A static SIM009 finding with no runtime
    confirmation stays *static-only*; a RACE line here is *confirmed*.
    """

    def __init__(self) -> None:
        self._step = 0  # 0 = before any event step (construction time)
        self._now: Optional[float] = None
        #: accesses at the current timestamp: (label, attr, kind, step)
        self._group: List[Tuple[str, str, str, int]] = []
        #: id(obj) -> (obj, tracked attrs, label); holds a strong ref so
        #: the id cannot be recycled while the tracker is live.
        self._objects: Dict[int, Tuple[object, "frozenset[str]", str]] = {}
        self._class_cache: Dict[type, type] = {}
        self._hazard_keys: Set[Tuple[str, str]] = set()
        self.hazards: List[str] = []
        self.reads = 0
        self.writes = 0

    # -- instrumentation ---------------------------------------------------
    def track(self, obj: object, attrs: Iterable[str], label: str) -> object:
        """Start recording accesses to ``attrs`` on ``obj``."""
        self._objects[id(obj)] = (obj, frozenset(attrs), label)
        obj.__class__ = self._instrumented(type(obj))
        return obj

    def _instrumented(self, cls: type) -> type:
        cached = self._class_cache.get(cls)
        if cached is not None:
            return cached
        tracker = self

        class Tracked(cls):  # type: ignore[misc, valid-type]
            def __setattr__(self, name, value):
                tracker._note(self, name, "write")
                super().__setattr__(name, value)

            def __getattribute__(self, name):
                tracker._note(self, name, "read")
                return super().__getattribute__(name)

        Tracked.__name__ = cls.__name__
        Tracked.__qualname__ = cls.__qualname__
        self._class_cache[cls] = Tracked
        return Tracked

    def _note(self, obj: object, name: str, kind: str) -> None:
        entry = self._objects.get(id(obj))
        if entry is None or name not in entry[1]:
            return
        if kind == "write":
            self.writes += 1
        else:
            self.reads += 1
        self._group.append((entry[2], name, kind, self._step))

    # -- event-step bookkeeping (driven by Environment.step) ---------------
    def note_step(self, env: "Environment") -> None:
        now = env.now
        if now != self._now:
            self._flush()
            self._now = now
        self._step += 1

    def _flush(self) -> None:
        if not self._group:
            return
        by_key: Dict[Tuple[str, str], List[Tuple[str, int]]] = {}
        for label, attr, kind, step in self._group:
            by_key.setdefault((label, attr), []).append((kind, step))
        for (label, attr), accesses in sorted(by_key.items()):
            steps = {step for _, step in accesses}
            write_count = sum(1 for kind, _ in accesses if kind == "write")
            if (
                write_count
                and len(steps) >= 2
                and (label, attr) not in self._hazard_keys
            ):
                self._hazard_keys.add((label, attr))
                self.hazards.append(
                    f"{label}.{attr}: {write_count} write(s), "
                    f"{len(accesses) - write_count} read(s) across "
                    f"{len(steps)} event steps at t={self._now!r} — only the "
                    "eid tie-break ordered them (confirms SIM009)"
                )
        self._group.clear()

    def finalize(self) -> None:
        """Analyze the last timestamp group (idempotent)."""
        self._flush()

    @property
    def tracked(self) -> int:
        return len(self._objects)


#: Path fragments whose frames are skipped when attributing an
#: acquisition site — we want the *caller* of the pool, not the pool.
_INTERNAL_FRAGMENTS = ("mem/native_pool.py", "simcore/sanitizer.py")


def acquisition_site(limit: int = 12) -> str:
    """``file:line in func`` of the nearest frame outside pool internals."""
    for frame in reversed(traceback.extract_stack(limit=limit)[:-1]):
        filename = frame.filename.replace("\\", "/")
        if not filename.endswith(_INTERNAL_FRAGMENTS):
            return f"{frame.filename}:{frame.lineno} in {frame.name}"
    return "<unknown>"


class SimSanitizer:
    """Collects invariant checks across every Environment/pool built
    while installed, and renders one teardown report."""

    def __init__(self, label: str = "", track_races: bool = False):
        self.label = label
        self.environments = 0
        self.pools: List[object] = []
        self.processes: List["Process"] = []
        #: violations that were raised (kept for the report even though
        #: the offending run crashed)
        self.violations: List[str] = []
        #: happens-before race tracker (SIM009 cross-check), armed only
        #: by ``track_races`` — class-swap instrumentation is far too
        #: hot for the default --sanitize path.
        self.hb: Optional[HappensBeforeTracker] = (
            HappensBeforeTracker() if track_races else None
        )

    # -- hooks (called by the instrumented components) ---------------------
    def note_environment(self, env: "Environment") -> None:
        self.environments += 1

    def note_step(self, env: "Environment") -> None:
        """Per-event hook from :meth:`Environment.step` (slow path only)."""
        if self.hb is not None:
            self.hb.note_step(env)

    def track(self, obj: object, attrs: Iterable[str], label: str) -> object:
        """Opt ``obj`` into happens-before tracking (no-op without
        ``track_races`` — callers never need to check)."""
        if self.hb is not None:
            return self.hb.track(obj, attrs, label)
        return obj

    def note_pool(self, pool: object) -> None:
        self.pools.append(pool)

    def note_process(self, process: "Process") -> None:
        self.processes.append(process)

    def past_schedule(self, env: "Environment", delay: float) -> None:
        message = (
            f"past-scheduled event rejected: delay={delay!r} at t={env.now!r}"
        )
        self.violations.append(message)
        raise SanitizerError(message)

    def clock_regression(
        self, env: "Environment", event_time: float, now: float
    ) -> None:
        message = (
            f"clock regression: next event at t={event_time!r} but "
            f"now={now!r} — the heap ordering invariant is broken"
        )
        self.violations.append(message)
        raise SanitizerError(message)

    # -- teardown reporting ------------------------------------------------
    def pool_leaks(self) -> List[Tuple[object, List[str]]]:
        """(pool, acquisition sites of still-outstanding buffers)."""
        leaks = []
        for pool in self.pools:
            sites = pool.sanitizer_outstanding()
            if sites:
                leaks.append((pool, sites))
        return leaks

    def stalled_processes(self) -> List["Process"]:
        """Processes whose generator died with waiters never notified.

        A Process is also the event of its own termination: when the
        generator returns or raises, that event is scheduled and its
        callbacks (the waiters) are delivered on the next step.  If the
        scheduler stops first — a crash mid-step, a truncated run —
        the generator is dead but ``callbacks`` is still a non-empty
        list: every one of those waiters is silently stranded.

        Blocked-but-alive processes are deliberately *not* flagged:
        daemon chains (a receive loop yielding on a socket read) look
        structurally identical to deadlock, so an alive-process check
        cannot avoid false positives.
        """
        return [
            process
            for process in self.processes
            if not process.is_alive and process.callbacks
        ]

    def races(self) -> List[str]:
        """Confirmed same-timestamp races (empty without ``track_races``)."""
        if self.hb is None:
            return []
        self.hb.finalize()
        return list(self.hb.hazards)

    @property
    def clean(self) -> bool:
        return (
            not self.violations
            and not self.pool_leaks()
            and not self.stalled_processes()
            and not self.races()
        )

    def report_lines(self) -> List[str]:
        lines: List[str] = []
        for message in self.violations:
            lines.append(f"sanitizer: VIOLATION {message}")
        for race in self.races():
            lines.append(f"sanitizer: RACE {race}")
        for pool, sites in self.pool_leaks():
            lines.append(
                f"sanitizer: LEAK {len(sites)} buffer(s) outstanding in {pool!r}"
            )
            for site in sites:
                lines.append(f"sanitizer:   acquired at {site}")
        for process in self.stalled_processes():
            lines.append(
                f"sanitizer: STALLED {process!r} died with "
                f"{len(process.callbacks)} waiter(s) never notified"
            )
        return lines

    def summary(self) -> str:
        checked = (
            f"{self.environments} environment(s), {len(self.pools)} pool(s), "
            f"{len(self.processes)} process(es)"
        )
        if self.hb is not None:
            checked += (
                f", {self.hb.tracked} race-tracked object(s) "
                f"({self.hb.writes}w/{self.hb.reads}r)"
            )
        if self.clean:
            return f"sanitizer: clean — {checked}"
        issues = (
            len(self.violations)
            + sum(len(sites) for _, sites in self.pool_leaks())
            + len(self.stalled_processes())
            + len(self.races())
        )
        return f"sanitizer: {issues} issue(s) — {checked}"


_current: Optional[SimSanitizer] = None


def current() -> Optional[SimSanitizer]:
    """The active sanitizer, if any (consulted at construction time by
    Environment and NativeBufferPool)."""
    return _current


def install(session: SimSanitizer) -> None:
    global _current
    if _current is not None:
        raise RuntimeError("a SimSanitizer is already installed")
    _current = session


def uninstall() -> None:
    global _current
    _current = None


@contextmanager
def sanitized(label: str = "", track_races: bool = False):
    """Scope a :class:`SimSanitizer` around a block of simulation runs."""
    session = SimSanitizer(label=label, track_races=track_races)
    install(session)
    try:
        yield session
    finally:
        uninstall()

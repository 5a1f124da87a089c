"""The discrete-event simulation kernel.

:class:`Simulator` is the heart of the substrate that replaces Parsec in
the original study: a sequential, deterministic, seedable discrete-event
engine.  All other subsystems (network transport, resources, schedulers,
estimators, middleware, workload injection) are built as callbacks and
entities driven by a single ``Simulator`` instance.

Design notes
------------
* Time is a ``float`` in abstract "time units", matching the paper (e.g.
  ``T_CPU = 700 time units``).
* Events fire in ``(time, seq)`` order; ``seq`` is the scheduling order,
  which makes ties deterministic and runs reproducible.
* The kernel is intentionally tiny and allocation-light — the scalability
  experiments execute millions of events, and per the HPC guidance we keep
  the hot path (schedule/pop/dispatch) free of indirection.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .events import Event, EventQueue

__all__ = ["Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, bad horizons)."""


class Simulator:
    """A sequential discrete-event simulator.

    Contract (pinned by ``tests/test_kernel_conformance.py``):

    * Events fire in ``(time, seq)`` total order, ``seq`` being the
      scheduling order — ties are FIFO and deterministic.
    * ``schedule(delay, fn, *args)`` rejects negative/NaN delays with
      :class:`SimulationError` and returns an opaque cancellation
      handle; ``schedule_at`` is the absolute-time spelling under the
      same no-past rule.
    * ``cancel(handle)`` is lazy and idempotent: cancelling a fired or
      already-cancelled event is a no-op, and a cancelled event never
      runs nor counts in ``events_executed``.
    * ``run(until=, max_events=)``: inclusive horizon; the clock lands
      exactly on ``until`` whenever given — even when ``max_events``
      (``0`` allowed) stopped dispatch first — and never runs
      backwards.  A horizon before ``now`` raises.
    * ``step()`` dispatches the single earliest event, returning
      whether one ran.
    * ``pop_until(limit)`` removes and returns the earliest pending
      ``(time, fn, args)`` at or before ``limit`` (``None`` = no
      horizon) without dispatching: clock, trace, and counters are
      untouched.  ``peek_time()`` reports the earliest pending time
      without removing anything.
    * ``pending`` counts live events; ``events_executed`` counts
      dispatched ones; ``trace`` (read *per event*, so it can be
      swapped mid-run) is called as ``trace(time, fn, args)`` before
      each dispatch.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock (defaults to ``0.0``).

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, fired.append, "a")
    >>> _ = sim.schedule(1.0, fired.append, "b")
    >>> sim.run(until=10.0)
    >>> fired
    ['b', 'a']
    >>> sim.now
    10.0
    """

    __slots__ = ("_queue", "_now", "_seq", "_events_executed", "trace")

    def __init__(self, start_time: float = 0.0) -> None:
        self._queue = EventQueue()
        self._now = float(start_time)
        self._seq = 0
        self._events_executed = 0
        #: Optional callable ``(time, fn, args)`` invoked before each event
        #: executes.  Used by tests and debugging tools; ``None`` disables
        #: tracing entirely (the hot path checks a single attribute).
        self.trace: Optional[Callable[[float, Callable, tuple], None]] = None

    # ------------------------------------------------------------------
    # Clock and counters
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events dispatched so far (cancelled events excluded)."""
        return self._events_executed

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` time units from now.

        Parameters
        ----------
        delay:
            Nonnegative offset from the current clock.  ``0.0`` is allowed
            and fires after all events already scheduled for the current
            instant (stable FIFO semantics).
        fn:
            Callback to invoke.
        *args:
            Positional arguments for ``fn``.

        Returns
        -------
        Event
            A handle that can be passed to :meth:`cancel`.

        Raises
        ------
        SimulationError
            If ``delay`` is negative or not finite.
        """
        if not (delay >= 0.0):  # also rejects NaN
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        ev = Event(self._now + delay, self._seq, fn, args)
        self._seq += 1
        self._queue.push(ev)
        return ev

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``.

        Equivalent to ``schedule(time - now, ...)`` and subject to the same
        no-past rule.
        """
        return self.schedule(time - self._now, fn, *args)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event.

        Cancelling an event that already fired or was already cancelled is
        a no-op, which lets protocol code cancel timeout handles without
        tracking whether they raced with delivery.
        """
        self._queue.cancel(event)

    # ------------------------------------------------------------------
    # Queue inspection
    # ------------------------------------------------------------------
    def peek_time(self) -> Optional[float]:
        """Firing time of the earliest pending event, or ``None``.

        Does not advance the clock or dispatch anything.
        """
        return self._queue.peek_time()

    def pop_until(self, limit: Optional[float] = None):
        """Remove and return the earliest pending ``(time, fn, args)``
        at or before ``limit`` without dispatching it.

        Returns ``None`` — leaving the event queued — when the earliest
        pending event fires after ``limit`` or nothing is pending;
        ``limit=None`` means no horizon.  The clock, the trace hook, and
        ``events_executed`` are untouched: this is the dispatch-loop
        primitive that ``run()`` is built on, exposed so the conformance
        suite can pin its batching semantics.
        """
        ev = self._queue.pop_until(limit)
        if ev is None:
            return None
        fn, args = ev.fn, ev.args
        ev.fn = None
        ev.args = ()
        return (ev.time, fn, args)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the single earliest event.

        Returns
        -------
        bool
            ``True`` if an event was executed, ``False`` if the queue was
            empty (the clock does not move in that case).
        """
        try:
            ev = self._queue.pop()
        except IndexError:
            return False
        if ev.time > self._now:  # clock never runs backwards (see run())
            self._now = ev.time
        if self.trace is not None:
            self.trace(ev.time, ev.fn, ev.args)  # type: ignore[arg-type]
        fn, args = ev.fn, ev.args
        ev.fn = None  # release references promptly
        ev.args = ()
        self._events_executed += 1
        fn(*args)  # type: ignore[misc]
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until exhaustion, a time horizon, or an event budget.

        Parameters
        ----------
        until:
            If given, execute only events with ``time <= until`` and then
            advance the clock *to* ``until`` (even if the queue still holds
            later events, and even when ``max_events`` stopped the run
            first — the clock lands on ``until`` whenever it is given).
            Must not be earlier than the current clock.  Events left
            behind the advanced clock still fire, in order, on a later
            ``run()``/``step()``; the clock simply does not move backwards
            for them.
        max_events:
            If given, stop after dispatching this many additional events
            (``0`` dispatches none).  Mainly a safety valve for runaway
            protocol loops in tests.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"horizon {until} is before current time {self._now}")
        # The dispatch loop is the simulation's hottest path (millions of
        # events per run): it pops each event straight off the heap with a
        # single combined pop-within-horizon call (instead of a peek/pop
        # pair) and dispatches inline (instead of a step() call per event).
        budget = max_events if max_events is not None else -1
        pop_until = self._queue.pop_until
        while budget != 0:
            ev = pop_until(until)
            if ev is None:
                break
            if ev.time > self._now:  # clock never runs backwards
                self._now = ev.time
            if self.trace is not None:
                self.trace(ev.time, ev.fn, ev.args)  # type: ignore[arg-type]
            fn, args = ev.fn, ev.args
            ev.fn = None  # release references promptly
            ev.args = ()
            self._events_executed += 1
            fn(*args)  # type: ignore[misc]
            if budget > 0:
                budget -= 1
        if until is not None and until > self._now:
            self._now = until

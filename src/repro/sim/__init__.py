"""Discrete-event simulation kernel (the Parsec substitute).

Public surface:

* :class:`~repro.sim.kernel.Simulator` — the event loop; its docstring
  states the kernel contract.
* :class:`~repro.sim.events.Event` / :class:`~repro.sim.events.EventQueue`
  — scheduling primitives.
* :class:`~repro.sim.entity.Entity` / :class:`~repro.sim.entity.MessageServer`
  — actor base classes.
* :class:`~repro.sim.rng.RngHub` — deterministic named random streams.
* :mod:`~repro.sim.monitor` — statistics collectors.
"""

from .entity import ChargeSink, Entity, MessageServer
from .events import Event, EventQueue
from .kernel import SimulationError, Simulator
from .monitor import Counter, SeriesRecorder, Tally, TimeWeighted
from .rng import RngHub
from .trace import TraceRecord, TraceRecorder, busy_gantt, job_timeline

__all__ = [
    "ChargeSink",
    "Counter",
    "Entity",
    "Event",
    "EventQueue",
    "MessageServer",
    "RngHub",
    "SeriesRecorder",
    "SimulationError",
    "Simulator",
    "Tally",
    "TimeWeighted",
    "TraceRecord",
    "TraceRecorder",
    "busy_gantt",
    "job_timeline",
]

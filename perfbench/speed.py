"""The host's speed, sampled while the timed call runs.

A shared host changes speed by up to 3x within seconds to minutes: a
neighbour on the same cores slows every instruction, so process CPU
time inflates as much as wall time, and the steal counter does not
show it.  Timing the call alone then measures the neighbours.

:class:`SpeedProbe` measures the host alongside the program.  While the
timed call runs, an interval timer (``SIGALRM``) interrupts it every
:data:`INTERVAL_S` seconds and runs a fixed *reference slice*: a small
pure-Python event loop (a heap of pending events, handlers on objects
with slots, a dictionary per object) of the kind the simulator runs.
The slice runs twice, and only the second, warm run is timed, so the
slice measures the interpreter's speed rather than how fast it can
reload the working set the program evicted.  Every slice does the same
work from the same start, and touches none of the program's state.
Nothing it allocates outlives it, so it pins no memory among the
program's objects.  The garbage collector is paused while it runs; the
events it allocates advance the collector's count a little, so the
program's next young-generation collection comes slightly early.  Its
time is taken out of the program's time.

Each stretch of program time between two slices is scaled by the speed
the slice after it measured: ``stretch * (REFERENCE_S / slice) **
EXPONENT``.  The sum is the program's time on a host where one slice
takes :data:`REFERENCE_S`.  The exponent is below one because a slow
phase slows the program less than the slice: over ten seeds each, the
program's raw time grew as the slice's to the power 0.77
(``extreme-fluid``, correlation 0.99) to about 1 (``sweep-full``,
``study-ci``).  :data:`EXPONENT` is the value that kept the largest of
the three spreads smallest; set-up, which waits on files as well, follows
the slice less still (:data:`SETUP_EXPONENT`).  ``perfbench/README.md``
gives the spreads measured with and without the correction.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time
from typing import Dict, List, Tuple

__all__ = [
    "EXPONENT",
    "INTERVAL_S",
    "REFERENCE_S",
    "SETUP_EXPONENT",
    "SpeedProbe",
    "normalised",
    "speed_factor",
]

#: seconds between two reference slices
INTERVAL_S = 0.2

#: seconds one timed reference slice takes on a quiet 2-vCPU Xeon host;
#: the normalised times are seconds on a host that fast
REFERENCE_S = 0.0038

#: a phase that makes the slice k times slower makes the timed call
#: about k ** EXPONENT and set-up about k ** SETUP_EXPONENT times slower
EXPONENT = 0.85
SETUP_EXPONENT = 0.5

#: warm slices :meth:`SpeedProbe.sample` takes the median of
_SAMPLE_SLICES = 7

#: events one reference slice handles
_SLICE_EVENTS = 2500
#: objects in the slice's event loop (a power of two)
_NODES = 1 << 12
#: the float values a node may keep
_LEVELS = [i * 0.25 for i in range(256)]


class _Node:
    """One object of the reference event loop."""

    __slots__ = ("load", "seen", "table", "peers")

    def __init__(self, i: int) -> None:
        self.load = 0.0
        self.seen = 0
        self.table = dict.fromkeys(range(16), 0.0)
        self.peers = [(i * 31 + k * 977) & (_NODES - 1) for k in range(4)]

    def handle(self, t: float, x: int) -> int:
        # the node keeps only objects made before the slice (small ints
        # are cached, the floats come from _LEVELS), never one it made
        self.seen = (self.seen + 1) & 255
        level = _LEVELS[x & 255]
        if t - self.load > level:
            self.load = level
        self.table[x & 15] = level
        return self.peers[(x >> 4) & 3]


def speed_factor(slice_s: float, exponent: float) -> float:
    """What a time measured while a slice took ``slice_s`` is multiplied by
    to give the time at reference speed."""
    return (REFERENCE_S / slice_s) ** exponent


def normalised(stretches: List[float], slices: List[float]) -> float:
    """Program time at reference speed: each stretch scaled by the slice
    after it; a last stretch with no slice after it by the slice before."""
    if not slices:
        raise ValueError("no reference slice was timed")
    scale = slices + [slices[-1]] * (len(stretches) - len(slices))
    return sum(s * speed_factor(r, EXPONENT) for s, r in zip(stretches, scale))


class SpeedProbe:
    """Interleave reference slices into a timed call; see the module doc.

    Call ``start()`` just before the timed call and ``stop()`` just
    after it, then read :meth:`summary`.
    """

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self._nodes = [_Node(i) for i in range(_NODES)]
        self._events = [(float(i % 97), i, i) for i in range(_NODES)]
        heapq.heapify(self._events)
        self._busy = False
        self._previous = None
        self._mark = self._cpu_mark = 0.0
        #: program wall / CPU time before each slice
        self.stretches: List[float] = []
        self.cpu_stretches: List[float] = []
        #: wall / CPU time of each timed slice
        self.slices: List[float] = []
        self.cpu_slices: List[float] = []

    def reference_slice(self) -> None:
        """One fixed unit of event-loop work, with the collector paused.

        It starts from the same pending events every time; the events it
        creates die with its copy of the heap.
        """
        heap, nodes = self._events.copy(), self._nodes
        collecting = gc.isenabled()
        gc.disable()
        try:
            x = 12345
            for _ in range(_SLICE_EVENTS):
                t, seq, i = heapq.heappop(heap)
                x = (x * 1103515245 + 12345) & 0x7FFFFFFF
                peer = nodes[i].handle(t, x)
                heapq.heappush(heap, (t + 1.0 + (x & 15) * 0.25, seq + 1, peer))
            del heap
        finally:
            if collecting:
                gc.enable()

    def _timed_slice(self) -> Tuple[float, float]:
        """Wall and CPU time of one warm reference slice."""
        self.reference_slice()  # warm-up: reload the working set the program evicted
        t0, c0 = time.perf_counter(), time.process_time()
        self.reference_slice()
        return time.perf_counter() - t0, time.process_time() - c0

    def _record_slice(self) -> None:
        wall, cpu = self._timed_slice()
        self.slices.append(wall)
        self.cpu_slices.append(cpu)

    def sample(self) -> float:
        """The median wall time of :data:`_SAMPLE_SLICES` warm slices, run
        now; for normalising a phase the probe cannot interrupt, such as
        interpreter start-up."""
        times = sorted(self._timed_slice()[0] for _ in range(_SAMPLE_SLICES))
        return times[_SAMPLE_SLICES // 2]

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        self.stretches.append(time.perf_counter() - self._mark)
        self.cpu_stretches.append(time.process_time() - self._cpu_mark)
        self._record_slice()
        self._mark, self._cpu_mark = time.perf_counter(), time.process_time()
        self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._mark, self._cpu_mark = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.stretches.append(time.perf_counter() - self._mark)
        self.cpu_stretches.append(time.process_time() - self._cpu_mark)
        if not self.slices:  # a call shorter than one interval
            self._record_slice()

    def summary(self) -> Dict[str, float]:
        """Raw and normalised program times, and the slices' count and mean."""
        return {
            "wall_s": sum(self.stretches),
            "cpu_s": sum(self.cpu_stretches),
            "norm_wall_s": normalised(self.stretches, self.slices),
            "norm_cpu_s": normalised(self.cpu_stretches, self.cpu_slices),
            "slices": len(self.slices),
            "slice_mean_s": sum(self.slices) / len(self.slices),
        }

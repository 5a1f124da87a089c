"""In-memory span recorder for the traced benchmark run.

The traced run wraps the simulator's public functions from outside the
program: :meth:`SpanRecorder.wrap` replaces a function or method with a
timing wrapper at every name its callers look it up under, so a
function that other modules import by name (``single_source`` in
``network.routing``, ``run_simulation`` in the engine) is wrapped there
too.  :meth:`SpanRecorder.restore` puts every original back.

Each call of a wrapped function records one span — name, start, end,
parent span and run id — in flat typed arrays (32 bytes a span), so a
run with a million handler calls stays small.  Hot functions whose
duration is not wanted get a counting wrapper instead
(:meth:`SpanRecorder.wrap` with ``span=False``).

A layer's *self time* is the time its spans cover minus the time their
child spans cover (:func:`self_times`).  Calls nest strictly, so the
children of one span never overlap and their durations simply add.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["SpanRecorder", "self_times"]

#: attribute set on every wrapper, so tests can prove none is left behind
WRAPPED_MARK = "__perfbench_wrapped__"

#: the package whose modules hold the wrapped functions
_PACKAGE = "repro"


def self_times(
    names: Sequence[str],
    name_id: Sequence[int],
    parent: Sequence[int],
    start: Sequence[float],
    end: Sequence[float],
) -> Dict[str, float]:
    """Total self time per span name.

    ``parent[i]`` is the index of span ``i``'s parent, or ``-1`` for a
    root.  A span's self time is its duration minus the summed
    durations of its direct children.
    """
    n = len(start)
    out = {name: 0.0 for name in names}
    if n == 0:
        return out
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    par = np.asarray(parent, dtype=np.int64)
    has_parent = par >= 0
    covered = np.bincount(par[has_parent], weights=dur[has_parent], minlength=n)
    own = dur - covered
    totals = np.bincount(np.asarray(name_id, dtype=np.int64), weights=own,
                         minlength=len(names))
    for i, name in enumerate(names):
        out[name] = float(totals[i])
    return out


def _package_modules() -> List[Any]:
    """Every loaded module of the simulator package, in name order."""
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == _PACKAGE or name.startswith(_PACKAGE + "."))
    ]


class SpanRecorder:
    """Records spans and counts at wrapped function boundaries."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        #: exact work counters, by name
        self.counts: Dict[str, int] = {}
        #: id stamped on every span; callers bump it per simulation
        self.run_id = 0
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._originals: Dict[int, Tuple[Callable, Any]] = {}

    # ------------------------------------------------------------------
    def name_index(self, name: str) -> int:
        """The integer id of span name ``name`` (registered on first use)."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name``."""
        self.counts[name] = self.counts.get(name, 0) + n

    def spans(self, name: str) -> int:
        """How many spans named ``name`` were recorded."""
        nid = self._ids.get(name)
        if nid is None:
            return 0
        return int(np.count_nonzero(np.frombuffer(self.name_id, dtype=np.int32) == nid))

    def self_times(self) -> Dict[str, float]:
        """Self time per span name (see :func:`self_times`)."""
        return self_times(self.names, self.name_id, self.parent, self.start, self.end)

    # ------------------------------------------------------------------
    def _span_wrapper(self, fn: Callable, name: str, before, after) -> Callable:
        nid = self.name_index(name)
        stack, starts, ends = self._stack, self.start, self.end
        names, parents, runs = self.name_id, self.parent, self.run
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(rec.run_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result, token)
            return result

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def _count_wrapper(self, fn: Callable, name: str) -> Callable:
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        span: bool = True,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Wrap ``owner.attr`` (a module function or a class method).

        A module-level function is replaced in every loaded ``repro``
        module that holds it under ``attr`` — the name its callers
        look up.  A method is replaced on the class that defines it.
        ``before(args)`` runs before the call and its return value is
        passed to ``after(args, result, token)`` after it.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap {attr!r}: static and class methods are not supported")
        if span:
            wrapper = self._span_wrapper(original, name, before, after)
        else:
            wrapper = self._count_wrapper(original, name)
        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [
                mod for mod in _package_modules()
                if getattr(mod, attr, None) is original
            ]
        self._originals[id(wrapper)] = (wrapper, original)
        for target in targets:
            self._patches.append((target, attr, original))
            setattr(target, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped function back (idempotent).

        ``repro`` modules imported while the wrappers were in place
        may have copied one by name; those copies are restored too.
        """
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])

    # ------------------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write every span and counter to ``path`` (``.npz``)."""
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=object).astype(str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            run=np.frombuffer(self.run, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            count_names=np.array(sorted(self.counts), dtype=str),
            count_values=np.array([self.counts[k] for k in sorted(self.counts)],
                                  dtype=np.int64),
        )

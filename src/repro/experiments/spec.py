"""The unified :class:`StudySpec`: one description of one study.

Every way of running a study — the Python API (:func:`repro.api.run_study`),
each CLI subcommand, and the distributed fabric's wire protocol — constructs
and consumes the same frozen dataclass.  A spec answers three questions:

* **what** to measure — ``kind`` (``figure``/``compare``/``faults``/
  ``series``/``trace``) plus the kind's scientific knobs (figure number,
  profile, RMS subset, seed, fault plan, probe intervals, ...);
* **how** to execute it — ``jobs``, ``cache_dir``, ``no_cache``,
  ``resume`` (these never change the numbers, only the mechanics);
* **how** to present it — ``quantity``, ``precision``.

:func:`spec_digest` hashes only the first group: two specs with the same
digest describe the same science, so their results (and cache/manifest
bytes) must be identical regardless of job count or transport.  That is
the fabric's correctness contract — a study executed through
``repro serve`` / ``repro work`` is byte-identical to the same spec run
locally with ``--jobs N``.

Wire format: :func:`spec_to_jsonable` / :func:`spec_from_jsonable` are
exact inverses over plain JSON types (unknown keys rejected), shared by
the fabric protocol and any on-disk spec files.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..faults import FaultPlan, plan_from_jsonable, plan_to_jsonable
from .parallel.cache import canonical_json

__all__ = [
    "KINDS",
    "SPEC_VERSION",
    "StudySpec",
    "spec_digest",
    "spec_from_jsonable",
    "spec_to_jsonable",
]

#: wire/schema version of the jsonable spec format
SPEC_VERSION = 1

#: the study kinds a spec can describe
KINDS = ("figure", "compare", "faults", "series", "trace")

#: fields that do not affect the measured numbers — execution mechanics
#: and presentation only; :func:`spec_digest` excludes them
EXECUTION_FIELDS = frozenset(
    {"jobs", "cache_dir", "no_cache", "resume", "quantity", "precision"}
)


@dataclass(frozen=True)
class StudySpec:
    """One study, fully described (frozen; validated on construction)."""

    # -- what ----------------------------------------------------------
    kind: str = "figure"
    figure: Optional[int] = None          # kind=figure: 2..7 (default 2)
    profile: str = "ci"
    rms: Optional[Tuple[str, ...]] = None  # None = the kind's default set
    seed: int = 7
    sa_iterations: Optional[int] = None
    speculate: Optional[int] = None
    warm_start: Optional[bool] = None
    traffic_mode: Optional[str] = None
    aggregator_fanout: Optional[int] = None
    faults: Optional[FaultPlan] = None     # kinds: faults, compare, trace
    mttf: Optional[float] = None           # kind=faults
    mttr: Optional[float] = None           # kind=faults
    window: Optional[float] = None         # kind=series
    probe_intervals: Tuple[float, ...] = ()  # kind=series: base + sweep
    charge_rate: Optional[float] = None    # kind=series
    trace_sample: Optional[float] = None   # kind=trace
    trace_charge: Optional[float] = None   # kind=trace
    max_events: Optional[int] = None       # kind=trace

    # -- how to execute (never changes the numbers) --------------------
    jobs: Optional[int] = None
    cache_dir: Optional[str] = None
    no_cache: bool = False
    resume: bool = False

    # -- how to present ------------------------------------------------
    quantity: Optional[str] = None         # kind=figure: plotted quantity
    precision: Optional[int] = None        # table precision (kind default)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown study kind {self.kind!r}; valid: {list(KINDS)}")
        if self.figure is not None:
            if self.kind != "figure":
                raise ValueError(f"figure number is meaningless for kind={self.kind!r}")
            if self.figure not in range(2, 8):
                raise ValueError(f"the paper has figures 2-7, not {self.figure}")
        if self.rms is not None:
            object.__setattr__(self, "rms", tuple(str(x) for x in self.rms))
        object.__setattr__(
            self, "probe_intervals", tuple(float(x) for x in self.probe_intervals)
        )
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise TypeError("faults must be a FaultPlan (or None)")

    # -- convenience ---------------------------------------------------
    @property
    def figure_number(self) -> int:
        """The effective figure number (kind=figure; default 2)."""
        return 2 if self.figure is None else self.figure

    @property
    def rms_list(self) -> "Optional[list]":
        """The RMS subset as the list the study functions expect."""
        return list(self.rms) if self.rms is not None else None

    def replace(self, **changes: Any) -> "StudySpec":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------

def spec_to_jsonable(spec: StudySpec) -> Dict[str, Any]:
    """The spec as plain JSON types (inverse of :func:`spec_from_jsonable`).

    Defaults are included so the payload is self-describing; tuples
    become lists; the fault plan uses the shared ``plan_to_jsonable``
    shape.
    """
    out: Dict[str, Any] = {"version": SPEC_VERSION}
    for f in dataclasses.fields(StudySpec):
        value = getattr(spec, f.name)
        if f.name == "faults":
            value = None if value is None else plan_to_jsonable(value)
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def spec_from_jsonable(payload: Dict[str, Any]) -> StudySpec:
    """Build a :class:`StudySpec` from a JSON dict (unknown keys rejected)."""
    if not isinstance(payload, dict):
        raise TypeError("a study spec must be a JSON object")
    payload = dict(payload)
    version = payload.pop("version", SPEC_VERSION)
    if version != SPEC_VERSION:
        raise ValueError(f"unsupported spec version {version!r} (have {SPEC_VERSION})")
    known = {f.name for f in dataclasses.fields(StudySpec)}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"unknown study-spec keys: {sorted(unknown)}")
    kwargs: Dict[str, Any] = dict(payload)
    if kwargs.get("faults") is not None:
        kwargs["faults"] = plan_from_jsonable(kwargs["faults"])
    if kwargs.get("rms") is not None:
        kwargs["rms"] = tuple(kwargs["rms"])
    if kwargs.get("probe_intervals"):
        kwargs["probe_intervals"] = tuple(kwargs["probe_intervals"])
    else:
        kwargs.pop("probe_intervals", None)
    return StudySpec(**kwargs)


def spec_digest(spec: StudySpec) -> str:
    """SHA-256 identity of the spec's *science*.

    Execution and presentation fields (:data:`EXECUTION_FIELDS`) are
    excluded: two specs with equal digests must produce byte-identical
    results whether run with ``--jobs 1``, ``--jobs N``, or through the
    fabric.
    """
    payload = spec_to_jsonable(spec)
    for name in EXECUTION_FIELDS:
        payload.pop(name, None)
    return hashlib.sha256(canonical_json(payload)).hexdigest()

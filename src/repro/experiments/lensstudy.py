"""The Case-1 study driver behind ``repro faults``, ``series`` and ``trace``.

The paper's scalability verdict is the slope of ``G(k)`` along a
scaling path.  The churn, time-resolved and causal-tracing studies each
ask that question again over the same Case-1 (design x k) grid; they
differ only in which plan rides on every config and what each point
reports from its run.  A :class:`Lens` names exactly that difference,
and :func:`run_lens_study` does the rest:

* every (RMS, scale) run goes through the engine as **one** batch, so
  results are byte-identical whatever ``--jobs`` is, and every run
  lands in the content-addressed cache;
* the results come back as per-design :class:`StudyPoint` lists in
  ascending scale order;
* the study checkpoints into a manifest in the shape ``repro attrib``
  and ``repro watch`` read, under a key that names every plan that
  changed the runs (see :func:`manifest_key`).

Payloads and the cache: a passive monitor or trace plan shares its
cache key with an unobserved run, so an entry cached by an earlier
sweep may lack the payload a study needs.
:meth:`~repro.experiments.parallel.cache.RunCache.get` reads such an
entry as a miss, and the engine recomputes and upgrades it in place.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, TextIO, Tuple

from ..faults.plan import plan_to_jsonable
from ..rms.registry import rms_names
from ..telemetry.promexport import attribution_labels
from .cases import get_case
from .config import PROFILES, ScaleProfile, SimulationConfig
from .parallel.hashing import canonical_json
from .parallel.manifest import StudyManifest
from .runner import RunMetrics, run_simulation

__all__ = [
    "Lens",
    "LensStudyResult",
    "StudyPoint",
    "export_jsonl",
    "manifest_key",
    "overhead_samples",
    "plan_digest",
    "point_labels",
    "run_lens_study",
]


@dataclass(frozen=True)
class StudyPoint:
    """One (RMS, scale) run of a study."""

    rms: str
    scale: float
    metrics: RunMetrics
    #: the config the run executed (not part of any report or manifest)
    config: Optional[SimulationConfig] = field(default=None, compare=False, repr=False)

    def overhead(self, prefix: str) -> float:
        """The run's total attributed overhead under ``prefix``.

        ``point.overhead("g.faults")`` is the recovery work churn
        caused; ``"g.monitor"`` and ``"g.trace"`` are what probing and
        span recording charged.
        """
        attribution = self.metrics.attribution or {}
        return math.fsum(
            v for k, v in attribution.items() if k.startswith(prefix)
        )


@dataclass(frozen=True)
class Lens:
    """What one study adds to the plain Case-1 scaling path."""

    #: manifest-key tag (``faults`` / ``series`` / ``trace``)
    name: str
    #: the :class:`SimulationConfig` field the study's plan rides on
    config_field: str
    #: the plan's JSON codec (manifests, JSONL rows, digests)
    to_jsonable: Callable[[Any], Dict[str, Any]]
    #: key of the plan inside manifest entries and JSONL rows
    plan_key: str
    #: the :class:`RunMetrics` attribute carrying the per-run payload
    payload: str
    #: lens-specific manifest fields of one point
    point: Callable[[StudyPoint], Dict[str, Any]]


@dataclass(frozen=True)
class LensStudyResult:
    """Everything one Case-1 study measured."""

    lens: Lens
    profile: str
    seed: int
    plan: Any
    #: traffic plan the runs executed under (``None`` means discrete)
    fluid: Optional[Any] = None
    #: fault plan riding beside a non-fault lens (``None`` means none)
    faults: Optional[Any] = None
    #: RMS name -> points in ascending scale order
    points: Dict[str, List[StudyPoint]] = field(default_factory=dict)
    #: ``repro series`` only: probe interval -> per-RMS base-scale
    #: points, present only when several intervals were requested
    sweep: Dict[float, Dict[str, StudyPoint]] = field(default_factory=dict)
    manifest_path: Optional[Path] = None


def plan_digest(payload: Dict[str, Any]) -> str:
    """A short stable digest of a plan's JSON form (12 hex digits)."""
    return hashlib.sha256(canonical_json(payload)).hexdigest()[:12]


def manifest_key(result: LensStudyResult, rms: str) -> str:
    """The manifest key of one design's points.

    ``{profile}:seed{seed}:{lens}{digest}{fluid}{faults}:case1:{rms}``;
    the fluid and faults tags are empty when their plan is inert, so
    a study in discrete mode without a side fault plan keeps the key
    it always had.
    """
    tags = ""
    fluid = result.fluid
    if fluid is not None and fluid.is_fluid:
        tags += f":fluid{fluid.mode}-fan{fluid.aggregator_fanout}"
    if result.faults is not None and not result.faults.is_inert:
        tags += f":faults{plan_digest(plan_to_jsonable(result.faults))}"
    digest = plan_digest(result.lens.to_jsonable(result.plan))
    return (
        f"{result.profile}:seed{result.seed}:{result.lens.name}{digest}"
        f"{tags}:case1:{rms}"
    )


def run_lens_study(
    lens: Lens,
    plan: Any,
    profile: "str | ScaleProfile",
    rms: Optional[Sequence[str]],
    seed: int,
    engine,
    manifest_path: "str | Path | None",
    fluid=None,
    faults=None,
    extra_configs: Sequence[SimulationConfig] = (),
) -> Tuple[LensStudyResult, List[RunMetrics]]:
    """Run the Case-1 scaling path with ``plan`` on every config.

    Builds one config per (design, scale) with the plan on
    ``lens.config_field``, appends ``extra_configs``, and runs
    everything in one pass.  Returns the result and the metrics of
    ``extra_configs`` in their order.

    Parameters
    ----------
    engine:
        Optional :class:`~repro.experiments.parallel.ExperimentEngine`;
        all runs go through it as **one** batch, so worker count cannot
        affect results.  ``None`` runs them in-process.
    manifest_path:
        When given, each design's points are checkpointed there in the
        study-manifest shape ``repro attrib`` and ``repro watch`` read.
    fluid:
        Optional :class:`~repro.fluid.plan.FluidPlan` applied to every
        run.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` applied to every
        run beside a non-fault lens's plan.
    """
    prof = PROFILES[profile] if isinstance(profile, str) else profile
    names = list(rms) if rms else rms_names()
    case = get_case(1)
    plans = {"fluid": fluid, "faults": faults, lens.config_field: plan}
    configs = [
        case.config_for(name, k, prof, seed=seed, **plans)
        for name in names
        for k in prof.scales
    ]
    configs += extra_configs
    if engine is not None:
        metrics_list = engine.run_many(configs)
    else:
        metrics_list = [run_simulation(c) for c in configs]

    it = iter(zip(metrics_list, configs))
    points = {
        name: [StudyPoint(name, float(k), *next(it)) for k in prof.scales]
        for name in names
    }
    result = LensStudyResult(
        lens=lens,
        profile=prof.name,
        seed=seed,
        plan=plan,
        fluid=fluid,
        faults=faults,
        points=points,
        manifest_path=Path(manifest_path) if manifest_path else None,
    )
    if result.manifest_path is not None:
        _write_manifest(result)
    return result, [metrics for metrics, _ in it]


def _record(p: StudyPoint) -> Dict[str, float]:
    record = p.metrics.record
    return {"F": record.F, "G": record.G, "H": record.H}


def _write_manifest(result: LensStudyResult) -> None:
    """Checkpoint the study in the shape ``repro attrib``/``watch`` read."""
    lens = result.lens
    manifest = StudyManifest(result.manifest_path)
    for name, points in result.points.items():
        payload = {
            lens.plan_key: lens.to_jsonable(result.plan),
            "result": {
                "points": [
                    {
                        "scale": p.scale,
                        "record": _record(p),
                        "attribution": p.metrics.attribution or {},
                        **lens.point(p),
                    }
                    for p in points
                ]
            },
        }
        manifest.mark_done(manifest_key(result, name), payload)


def export_jsonl(result: LensStudyResult, fh: TextIO) -> int:
    """One JSON line per run (full payload); returns line count."""
    lens = result.lens
    n = 0
    for name, points in result.points.items():
        for p in points:
            row = {
                "rms": name,
                "scale": p.scale,
                "profile": result.profile,
                "seed": result.seed,
                lens.plan_key: lens.to_jsonable(result.plan),
                "record": _record(p),
                **lens.point(p),
                lens.payload: getattr(p.metrics, lens.payload),
            }
            fh.write(json.dumps(row, sort_keys=True) + "\n")
            n += 1
    return n


def point_labels(
    result: LensStudyResult, p: StudyPoint, **extra: Any
) -> Dict[str, Any]:
    """The Prometheus label set of one point's samples."""
    return {"rms": p.rms, "scale": p.scale, "profile": result.profile, **extra}


def overhead_samples(result: LensStudyResult, prefix: str):
    """``(labels, value)`` for every attribution cell under ``prefix``.

    One sample per point and flattened ledger cell, labeled by both —
    the per-component overhead family of the Prometheus exports.
    """
    return (
        (point_labels(result, p, **attribution_labels(key)), value)
        for points in result.points.values()
        for p in points
        for key, value in sorted((p.metrics.attribution or {}).items())
        if key.startswith(prefix)
    )

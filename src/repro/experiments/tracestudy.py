"""Causal-tracing study: ``repro trace``.

Runs the Case-1 scaling path with a :class:`TracePlan` attached to
every config, so each (RMS, scale) run carries sampled span DAGs and
per-message-class latency histograms.  On top of the per-run payloads
this driver renders:

* per-design **phase-share tables** — every sampled job's turnaround
  decomposed into named critical-path phases (submit wait, scheduler
  queue, decision service, transfer/dispatch transit, resource queue,
  service, recovery wait), one row per scale;
* the **decomposition invariant** — per-job phase sums must telescope
  to the recorded turnaround (floating-point tolerance); the report
  carries a grep-able yes/VIOLATION line;
* the **growth ranking** — which phase's *share* of turnaround grows
  fastest with the scale factor k, the per-job twin of ``repro
  attrib``'s per-component G(k) slopes;
* **latency quantiles** — p50/p95/p99 transit delay per message class,
  merged across scales from the bucketed histograms;
* **exports** — per-phase CSV, per-run JSONL (full trace payloads),
  and a Prometheus text exposition via the shared
  :mod:`~repro.telemetry.promexport` path.

The batch, the points and the ``<cache>/manifests/trace.json``
checkpoint come from the shared :mod:`~repro.experiments.lensstudy`
driver, which also says how trace-less cache entries are upgraded.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, TextIO

from ..telemetry.critpath import (
    PHASES,
    aggregate_phases,
    growth_ranking,
    latency_quantiles,
    merge_latency,
    phase_shares,
)
from ..telemetry.promexport import write_metric
from ..telemetry.tracing import (
    TracePlan,
    resolve_trace_plan,
    trace_plan_to_jsonable,
)
from .lensstudy import (
    Lens,
    LensStudyResult,
    StudyPoint,
    export_jsonl,
    overhead_samples,
    plan_digest,
    point_labels,
    run_lens_study,
)
from .tabulate import format_table

__all__ = [
    "RESIDUAL_TOLERANCE",
    "TRACE",
    "default_trace_plan",
    "export_csv",
    "export_jsonl",
    "export_prometheus",
    "phases",
    "run_trace_study",
    "shares",
    "trace_report",
]

#: absolute tolerance on |fsum(phases) - turnaround| per job.  The
#: decomposition telescopes, so the only error source is rounding of
#: the interval differences — parts in 1e-12 of the O(1e4) turnarounds.
RESIDUAL_TOLERANCE = 1e-6


def phases(p: StudyPoint) -> Dict[str, Any]:
    """A point's phase aggregate (``aggregate_phases`` shape)."""
    if p.metrics.trace is None:
        return {}
    return aggregate_phases(p.metrics.trace)


def shares(p: StudyPoint) -> Dict[str, float]:
    """Each phase's share of a point's summed turnaround."""
    agg = phases(p)
    if not agg:
        return {}
    return phase_shares(agg["phases"])


#: the causal-tracing lens: a :class:`TracePlan` on every config, each
#: point reporting its phase aggregate and phase shares
TRACE = Lens(
    name="trace",
    config_field="trace",
    to_jsonable=trace_plan_to_jsonable,
    plan_key="trace_plan",
    payload="trace",
    point=lambda p: {"phases": phases(p), "shares": shares(p)},
)


def default_trace_plan(
    sample: Optional[float] = None,
    charge_rate: Optional[float] = None,
    max_events: Optional[int] = None,
) -> TracePlan:
    """The standard study plan: trace every job unless told otherwise.

    CI-profile runs submit a few hundred jobs per point, so full
    sampling stays cheap; explicit knobs and the ``REPRO_TRACE_*``
    environment variables override (see :func:`resolve_trace_plan`).
    The default charge rate is the dataclass's nonzero one — the study
    *charges* its observation to ``g.trace`` by default, same contract
    as an active monitor plan.
    """
    return resolve_trace_plan(
        sample=sample,
        charge_rate=charge_rate,
        max_events=max_events,
        default_sample=1.0,
    )


def run_trace_study(
    profile: str = "ci",
    rms: Optional[Sequence[str]] = None,
    seed: int = 7,
    plan: Optional[TracePlan] = None,
    sample: Optional[float] = None,
    charge_rate: Optional[float] = None,
    max_events: Optional[int] = None,
    engine=None,
    manifest_path: "str | Path | None" = None,
    fluid=None,
    faults=None,
) -> LensStudyResult:
    """Run the causal-tracing study: Case-1 scaling under a trace plan.

    Parameters
    ----------
    plan:
        Explicit :class:`TracePlan`; when ``None``, the default study
        plan is resolved (``sample`` / ``charge_rate`` / ``max_events``
        override its knobs, then ``REPRO_TRACE_*`` env vars, then the
        trace-everything default).
    engine, manifest_path, fluid, faults:
        As for :func:`~repro.experiments.lensstudy.run_lens_study`.
        Tracing composes with the fluid traffic mode (job-plane messages
        stay discrete there, so span DAGs are unchanged); under a fault
        plan, crash/recovery paths show up as ``recovery_wait``.
    """
    if plan is None:
        plan = default_trace_plan(
            sample=sample, charge_rate=charge_rate, max_events=max_events
        )
    result, _ = run_lens_study(
        TRACE, plan, profile, rms, seed, engine, manifest_path,
        fluid=fluid, faults=faults,
    )
    return result


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def _present_phases(points: Sequence[StudyPoint]) -> List[str]:
    """Phases that occur anywhere across the points, in canonical order."""
    seen = {name for p in points for name in phases(p).get("phases", {})}
    return [name for name in PHASES if name in seen]


def trace_report(result: LensStudyResult, precision: int = 3) -> str:
    """Render the study: per-design phase-share tables, the telescoping
    invariant, the share-growth ranking, and latency quantiles."""
    plan = result.plan
    parts: List[str] = [
        f"trace plan {plan_digest(trace_plan_to_jsonable(plan))}: "
        f"sample={plan.sample:g}, charge_rate={plan.charge_rate:g}, "
        f"max_events={plan.max_events} "
        f"(profile {result.profile}, seed {result.seed})"
    ]

    worst_residual = 0.0
    total_sampled = 0
    total_dropped = 0
    for name, points in result.points.items():
        columns = _present_phases(points)
        rows = []
        growth_points = []
        for p in points:
            agg = phases(p)
            if not agg:
                continue
            point_shares = shares(p)
            if agg["max_residual"] > worst_residual:
                worst_residual = agg["max_residual"]
            trace = p.metrics.trace or {}
            total_sampled += trace.get("sampled", 0)
            total_dropped += trace.get("dropped", 0)
            growth_points.append((p.scale, point_shares))
            rows.append(
                [p.scale, agg["jobs"], agg["incomplete"]]
                + [point_shares.get(c, 0.0) for c in columns]
                + [p.overhead("g.trace")]
            )
        parts.append(f"\n{name} — phase shares of turnaround per scale:")
        parts.append(
            format_table(
                ["k", "jobs", "incompl"] + columns + ["g.trace"],
                rows,
                precision=precision,
            )
        )
        ranking = growth_ranking(growth_points)
        if ranking:
            top = ", ".join(
                f"{n} ({slope:+.2e}/k)" for n, slope in ranking[:3]
            )
            parts.append(f"  share growth with k (top 3): {top}")

        merged = merge_latency(
            p.metrics.trace for p in points if p.metrics.trace is not None
        )
        if merged:
            parts.append(f"  {name} — transit latency by message class (all scales):")
            parts.append(
                format_table(
                    ["class", "count", "mean", "p50", "p95", "p99", "max"],
                    latency_quantiles(merged),
                    precision=precision,
                )
            )

    parts.append(
        f"\nsampled jobs: {total_sampled}, spans dropped past the "
        f"per-job bound: {total_dropped}"
    )
    parts.append(
        "phase decomposition sums to turnaround: "
        + (
            f"yes (worst residual {worst_residual:.2e})"
            if worst_residual <= RESIDUAL_TOLERANCE
            else f"NO — VIOLATION (worst residual {worst_residual:.2e})"
        )
    )
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def export_csv(result: LensStudyResult, fh: TextIO) -> int:
    """One CSV row per (rms, scale, phase); returns the row count."""
    writer = csv.writer(fh)
    writer.writerow(
        ["rms", "scale", "jobs", "incomplete", "phase", "seconds", "share"]
    )
    n = 0
    for name, points in result.points.items():
        for p in points:
            agg = phases(p)
            if not agg:
                continue
            point_shares = shares(p)
            for phase in PHASES:
                if phase not in agg["phases"]:
                    continue
                writer.writerow(
                    [
                        name,
                        p.scale,
                        agg["jobs"],
                        agg["incomplete"],
                        phase,
                        agg["phases"][phase],
                        point_shares.get(phase, 0.0),
                    ]
                )
                n += 1
    return n


def export_prometheus(result: LensStudyResult, fh: TextIO) -> int:
    """Prometheus text exposition of the study's summary samples.

    Phase seconds and shares per (rms, scale), the ``g.trace``
    recording overhead with its attribution labels, and per-message-
    class latency quantiles.  Returns the sample count.
    """
    points = [p for pts in result.points.values() for p in pts]
    n = 0
    n += write_metric(
        fh,
        "repro_trace_phase_seconds_total",
        "counter",
        (
            (point_labels(result, p, phase=phase), seconds)
            for p in points
            for phase, seconds in sorted(phases(p).get("phases", {}).items())
        ),
    )
    n += write_metric(
        fh,
        "repro_trace_phase_share",
        "gauge",
        (
            (point_labels(result, p, phase=phase), share)
            for p in points
            for phase, share in sorted(shares(p).items())
        ),
    )
    n += write_metric(
        fh,
        "repro_trace_jobs_sampled",
        "gauge",
        (
            (point_labels(result, p), (p.metrics.trace or {}).get("sampled"))
            for p in points
        ),
    )
    n += write_metric(
        fh,
        "repro_trace_overhead_total",
        "counter",
        overhead_samples(result, "g.trace"),
    )
    n += write_metric(
        fh,
        "repro_trace_latency",
        "gauge",
        (
            (point_labels(result, p, message_class=kind, quantile=q), snap.get(q))
            for p in points
            for kind, snap in sorted(
                (p.metrics.trace or {}).get("latency", {}).items()
            )
            for q in ("p50", "p95", "p99")
        ),
    )
    return n

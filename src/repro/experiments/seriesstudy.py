"""Time-resolved observability study: ``repro series``.

Runs the Case-1 scaling path with a :class:`MonitorPlan` attached to
every config, so each (RMS, scale) run carries a windowed F/G/H stream
and (optionally) in-sim probe gauges.  On top of the per-run payloads
this driver renders:

* per-scale **E(t)/G(t) tables** — the windowed trajectory, thinned to
  a terminal-friendly row count (the exports carry every window);
* the **steady-state vs final-E comparison** — MSER warmup truncation
  per run, with the relative disagreement the acceptance bar checks;
* an **overhead/accuracy sweep** — several probe intervals at a fixed
  charge rate, demonstrating monotone ``G:monitor`` growth with probe
  frequency while F stays bit-for-bit conserved (ledger charges never
  feed back into behaviour, so the efficiency *measurement* degrades
  gracefully while the *workload outcome* is invariant);
* **exports** — per-window CSV, per-run JSONL, and a Prometheus text
  exposition of the study's summary gauges.

The batch, the points and the ``<cache>/manifests/series.json``
checkpoint (the series payload rides inside each point, where ``repro
attrib`` and ``repro watch`` read it) come from the shared
:mod:`~repro.experiments.lensstudy` driver.  A passive plan shares
cache keys with unmonitored runs *by design* (see
``parallel.hashing``); ``RunCache.get`` reads a series-less entry for
a monitored config as a miss, so the run is recomputed (byte-identical,
now carrying its stream) and the entry upgraded in place.
"""

from __future__ import annotations

import csv
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, TextIO

from ..rms.registry import rms_names
from ..telemetry.promexport import write_metric
from ..telemetry.timeseries import (
    MonitorPlan,
    efficiency_curve,
    merge_series,
    monitor_plan_to_jsonable,
    resolve_monitor_plan,
    steady_state,
)
from .cases import get_case
from .config import PROFILES, ScaleProfile
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
    "SERIES",
    "default_monitor_plan",
    "default_probe_interval",
    "export_csv",
    "export_jsonl",
    "export_prometheus",
    "run_series_study",
    "series_report",
    "steady",
    "sweep_report",
]


def steady(p: StudyPoint) -> Dict[str, float]:
    """Warmup/steady-state analysis of a point's stream."""
    if p.metrics.series is None:
        return {}
    return steady_state(p.metrics.series)


#: the time-resolved lens: a :class:`MonitorPlan` on every config, each
#: point reporting its windowed stream and steady-state analysis
SERIES = Lens(
    name="series",
    config_field="monitor",
    to_jsonable=monitor_plan_to_jsonable,
    plan_key="monitor",
    payload="series",
    point=lambda p: {"series": p.metrics.series, "steady": steady(p)},
)


def default_probe_interval(profile: ScaleProfile) -> float:
    """The study's probe period: ``horizon / 200``.

    That is the status-update period's order of magnitude, so a run
    collects a few hundred sweeps — dense enough for the gauges to
    mean something, sparse enough to stay cheap.
    """
    return profile.horizon / 200.0


def default_monitor_plan(
    profile: ScaleProfile,
    probe_interval: Optional[float] = None,
    charge_rate: Optional[float] = None,
    window: Optional[float] = None,
) -> MonitorPlan:
    """The standard study plan for one profile.

    Windowed streams on; each knob comes from its argument, else its
    ``REPRO_SERIES_*`` environment variable, else the plan default
    (:func:`~repro.telemetry.timeseries.resolve_monitor_plan`).  A probe
    interval set nowhere falls back to :func:`default_probe_interval`.
    ``repro series`` and :func:`run_series_study` both build their plan here.
    """
    plan = resolve_monitor_plan(
        series=True,
        window=window,
        probe_interval=probe_interval,
        charge_rate=charge_rate,
    )
    if plan.probe_interval == 0.0:
        plan = replace(plan, probe_interval=default_probe_interval(profile))
    return plan


def run_series_study(
    profile: str = "ci",
    rms: Optional[Sequence[str]] = None,
    seed: int = 7,
    plan: Optional[MonitorPlan] = None,
    probe_interval: Optional[float] = None,
    charge_rate: Optional[float] = None,
    sweep_intervals: Optional[Sequence[float]] = None,
    engine=None,
    manifest_path: "str | Path | None" = None,
    fluid=None,
) -> LensStudyResult:
    """Run the time-resolved study: Case-1 scaling under a monitor plan.

    Parameters
    ----------
    plan:
        Explicit :class:`MonitorPlan`; when ``None``, the
        :func:`default_monitor_plan` of the profile, honouring the
        ``REPRO_SERIES_*`` knobs as ``repro series`` does
        (``probe_interval`` / ``charge_rate`` override them).
    sweep_intervals:
        Additional probe intervals for the overhead/accuracy sweep,
        each run at the base scale for every design with the plan's
        charge rate.
    engine, manifest_path, fluid:
        As for :func:`~repro.experiments.lensstudy.run_lens_study`; the
        sweep runs ride in the same engine batch.  In fluid mode the
        probe sampler reads the status plane's O(1) aggregate gauges
        instead of sweeping per-resource state, so the study stays
        cheap at extreme scale.
    """
    prof = PROFILES[profile] if isinstance(profile, str) else profile
    names = list(rms) if rms else rms_names()
    if plan is None:
        plan = default_monitor_plan(
            prof, probe_interval=probe_interval, charge_rate=charge_rate
        )
    intervals = [
        float(i) for i in (sweep_intervals or ()) if float(i) != plan.probe_interval
    ]
    base_k = prof.scales[0]
    sweep_configs = [
        get_case(1).config_for(
            name,
            base_k,
            prof,
            seed=seed,
            monitor=replace(plan, series=True, probe_interval=interval),
            fluid=fluid,
        )
        for interval in intervals
        for name in names
    ]
    result, sweep_metrics = run_lens_study(
        SERIES, plan, prof, names, seed, engine, manifest_path,
        fluid=fluid, extra_configs=sweep_configs,
    )

    it = iter(sweep_metrics)
    sweep: Dict[float, Dict[str, StudyPoint]] = {}
    for interval in intervals:
        sweep[interval] = {
            name: StudyPoint(rms=name, scale=float(base_k), metrics=next(it))
            for name in names
        }
    if intervals:
        # The study's own points cover the plan's interval at base scale.
        sweep[plan.probe_interval] = {
            name: result.points[name][0] for name in names
        }
    return replace(result, sweep=dict(sorted(sweep.items())))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _thin(indices: Sequence[int], limit: int) -> List[int]:
    """At most ``limit`` evenly spaced entries, endpoints included."""
    n = len(indices)
    if n <= limit:
        return list(indices)
    step = (n - 1) / (limit - 1)
    picked = {int(round(i * step)) for i in range(limit)}
    return [indices[i] for i in sorted(picked)]


def series_report(
    result: LensStudyResult, precision: int = 3, curve_rows: int = 12
) -> str:
    """Render the study: steady-state tables plus thinned E(t)/G(t) curves."""
    plan = result.plan
    parts: List[str] = [
        f"monitor plan {plan_digest(monitor_plan_to_jsonable(plan))}: "
        f"probe_interval={plan.probe_interval:g}, "
        f"charge_rate={plan.charge_rate:g} "
        f"(profile {result.profile}, seed {result.seed})"
    ]

    worst = 0.0
    rows = []
    for name, points in result.points.items():
        for p in points:
            ss = steady(p)
            if not ss:
                continue
            rel = ss["rel_error"]
            if rel == rel and rel > worst:
                worst = rel
            rows.append(
                [
                    name,
                    p.scale,
                    ss["steady_E"],
                    ss["final_E"],
                    rel * 100.0,
                    ss["warmup_time"],
                    p.overhead("g.monitor"),
                ]
            )
    parts.append("\nsteady-state detection (MSER warmup truncation):")
    parts.append(
        format_table(
            ["RMS", "k", "steady E", "final E", "|err| %", "warmup t", "G:monitor"],
            rows,
            precision=precision,
        )
    )
    parts.append(
        f"steady-state vs final-E agreement: worst {worst * 100.0:.3f}%"
        + (" (within 2%)" if worst <= 0.02 else " (EXCEEDS 2%)")
    )

    for name, points in result.points.items():
        payloads = [
            p.metrics.series for p in points if p.metrics.series is not None
        ]
        if not payloads:
            continue
        parts.append(f"\n{name} — E(t)/G(t) per scale (thinned to {curve_rows} rows):")
        for p in points:
            if p.metrics.series is None:
                continue
            curve = efficiency_curve(p.metrics.series)
            g = p.metrics.series["sums"].get("G", [])
            idx = _thin(range(len(curve)), curve_rows)
            crows = [
                [
                    curve[i][0],
                    curve[i][1],
                    curve[i][2],
                    g[i] if i < len(g) else 0.0,
                ]
                for i in idx
            ]
            parts.append(f"  k={p.scale:g}:")
            parts.append(
                format_table(
                    ["t", "e(t) inst", "E(t) cum", "G(t) window"],
                    crows,
                    precision=precision,
                )
            )
        merged = merge_series(payloads)
        mss = steady_state(merged)
        parts.append(
            f"  merged across scales: steady E={mss['steady_E']:.{precision}f}, "
            f"final E={mss['final_E']:.{precision}f}, "
            f"warmup t={mss['warmup_time']:g}"
        )
    return "\n".join(parts)


def sweep_report(result: LensStudyResult, precision: int = 3) -> str:
    """Render the overhead/accuracy sweep (monotone G:monitor check).

    Charges never feed back into simulation behaviour, so F must be
    bit-for-bit identical across probe intervals; the report says so
    explicitly (and flags any violation).
    """
    if not result.sweep:
        return ""
    parts: List[str] = ["\noverhead/accuracy sweep (base scale, per design):"]
    conserved = True
    monotone = True
    for name in sorted(next(iter(result.sweep.values()))):
        rows = []
        f_values = []
        g_monitor_by_rate = []
        for interval, by_rms in result.sweep.items():
            p = by_rms[name]
            sweeps = (p.metrics.series or {}).get("sweeps", 0)
            f_values.append(p.metrics.record.F)
            g_monitor_by_rate.append((1.0 / interval, p.overhead("g.monitor")))
            rows.append(
                [
                    interval,
                    int(sweeps),
                    p.overhead("g.monitor"),
                    p.metrics.record.G,
                    p.metrics.efficiency,
                    p.metrics.record.F,
                ]
            )
        if any(f != f_values[0] for f in f_values[1:]):
            conserved = False
        g_monitor_by_rate.sort()
        gm = [g for _, g in g_monitor_by_rate]
        if any(b < a for a, b in zip(gm, gm[1:])):
            monotone = False
        parts.append(f"\n{name}:")
        parts.append(
            format_table(
                ["probe_interval", "sweeps", "G:monitor", "G", "E", "F"],
                rows,
                precision=precision,
            )
        )
    parts.append(
        "\nF conserved across sweep: " + ("yes" if conserved else "NO — VIOLATION")
    )
    parts.append(
        "G:monitor monotone in probe frequency: "
        + ("yes" if monotone else "NO — VIOLATION")
    )
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def export_csv(result: LensStudyResult, fh: TextIO) -> int:
    """Every window of every run as CSV rows; returns the row count."""
    writer = csv.writer(fh)
    writer.writerow(
        ["rms", "scale", "t", "width", "F", "G", "H", "e_inst", "E_cum"]
    )
    n = 0
    for name, points in result.points.items():
        for p in points:
            if p.metrics.series is None:
                continue
            sums = p.metrics.series["sums"]
            f = sums.get("F", [])
            g = sums.get("G", [])
            h = sums.get("H", [])
            width = p.metrics.series["width"]
            for i, (t, inst, cum) in enumerate(efficiency_curve(p.metrics.series)):
                writer.writerow(
                    [
                        name,
                        p.scale,
                        t,
                        width,
                        f[i] if i < len(f) else 0.0,
                        g[i] if i < len(g) else 0.0,
                        h[i] if i < len(h) else 0.0,
                        "" if inst != inst else inst,
                        "" if cum != cum else cum,
                    ]
                )
                n += 1
    return n


def export_prometheus(result: LensStudyResult, fh: TextIO) -> int:
    """Prometheus text exposition of the study's summary gauges.

    One sample per (metric, rms, scale) — the end-of-study snapshot a
    scrape of a live study would serve — rendered via the shared
    :mod:`~repro.telemetry.promexport` path, plus a per-component
    attribution family (``repro_overhead_component_total``) labeled by
    the flattened ledger cell.  Returns the sample count.
    """
    metrics: Dict[str, tuple] = {
        "repro_useful_work_total": ("counter", lambda p, s: p.metrics.record.F),
        "repro_rms_overhead_total": ("counter", lambda p, s: p.metrics.record.G),
        "repro_rp_overhead_total": ("counter", lambda p, s: p.metrics.record.H),
        "repro_monitor_overhead_total": (
            "counter",
            lambda p, s: p.overhead("g.monitor"),
        ),
        "repro_efficiency": ("gauge", lambda p, s: p.metrics.efficiency),
        "repro_steady_efficiency": ("gauge", lambda p, s: s.get("steady_E")),
        "repro_warmup_time": ("gauge", lambda p, s: s.get("warmup_time")),
    }
    points = [p for pts in result.points.values() for p in pts]
    n = 0
    for mname, (mtype, getter) in metrics.items():
        n += write_metric(
            fh,
            mname,
            mtype,
            ((point_labels(result, p), getter(p, steady(p))) for p in points),
        )
    n += write_metric(
        fh,
        "repro_overhead_component_total",
        "counter",
        overhead_samples(result, "g."),
    )
    return n

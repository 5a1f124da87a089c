"""Churn study: how recovery overhead scales — ``repro faults``.

The paper's scalability verdict is the slope of ``G(k)`` under a
*fault-free* substrate.  This driver re-asks the question under
resource churn: every design runs the Case-1 scaling path with a
:class:`~repro.faults.plan.FaultPlan` injecting exponential
crash/recover cycles, and the new ``g.faults`` attribution component
(heartbeat sweeps, dead-resource processing, job re-dispatch) shows how
much of the growth is recovery work rather than steady-state
management.

The batch, the points and the ``<cache>/manifests/faults.json``
checkpoint (which ``repro attrib`` decomposes per component) come from
the shared :mod:`~repro.experiments.lensstudy` driver; this module
holds the churn lens, its default plan and its report.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence

from ..core.slope import slopes
from ..faults.plan import FaultPlan, plan_to_jsonable
from .config import PROFILES, ScaleProfile
from .lensstudy import Lens, LensStudyResult, plan_digest, run_lens_study
from .tabulate import format_table

__all__ = [
    "FAULTS",
    "default_churn_plan",
    "fault_report",
    "run_fault_study",
]

#: the churn lens: a :class:`FaultPlan` on every config, each point
#: reporting its injector's crash/kill/re-dispatch counters
FAULTS = Lens(
    name="faults",
    config_field="faults",
    to_jsonable=plan_to_jsonable,
    plan_key="plan",
    payload="fault_stats",
    point=lambda p: {"fault_stats": p.metrics.fault_stats or {}},
)


def default_churn_plan(
    profile: ScaleProfile,
    mttf: Optional[float] = None,
    mttr: Optional[float] = None,
) -> FaultPlan:
    """The standard churn plan for one profile.

    Default MTTF is a quarter of the measured horizon — every resource
    crashes a handful of times per run, enough churn that recovery
    overhead is clearly visible without drowning useful work.  MTTR
    follows the plan's own convention (MTTF/10) unless overridden.
    """
    if mttf is None:
        mttf = profile.horizon / 4.0
    return FaultPlan(resource_mttf=float(mttf), resource_mttr=mttr)


def run_fault_study(
    profile: str = "ci",
    rms: Optional[Sequence[str]] = None,
    seed: int = 7,
    plan: Optional[FaultPlan] = None,
    mttf: Optional[float] = None,
    mttr: Optional[float] = None,
    engine=None,
    manifest_path: "str | Path | None" = None,
    fluid=None,
) -> LensStudyResult:
    """Run the churn study: Case-1 scaling under a fault plan.

    Parameters
    ----------
    plan:
        Explicit :class:`FaultPlan`; when ``None``, a default churn
        plan is derived from the profile (``mttf`` / ``mttr`` override
        its timing).
    engine, manifest_path, fluid:
        As for :func:`~repro.experiments.lensstudy.run_lens_study`.
    """
    if plan is None:
        prof = PROFILES[profile] if isinstance(profile, str) else profile
        plan = default_churn_plan(prof, mttf=mttf, mttr=mttr)
    result, _ = run_lens_study(
        FAULTS, plan, profile, rms, seed, engine, manifest_path, fluid=fluid
    )
    return result


def fault_report(result: LensStudyResult, precision: int = 1) -> str:
    """Render the churn study: per-design tables plus a slope ranking."""
    plan = result.plan
    parts: List[str] = []
    if plan.has_churn:
        parts.append(
            f"churn plan: MTTF={plan.resource_mttf:g}, "
            f"MTTR={plan.effective_mttr:g}, "
            f"churn fraction={plan.churn_fraction:g} "
            f"(profile {result.profile}, seed {result.seed})"
        )
    else:
        parts.append(
            f"fault plan {plan_digest(plan_to_jsonable(plan))} "
            f"(profile {result.profile}, seed {result.seed})"
        )

    for name, points in result.points.items():
        rows = []
        for p in points:
            m = p.metrics
            stats = m.fault_stats or {}
            rows.append(
                [
                    p.scale,
                    m.record.F,
                    m.record.G,
                    m.record.H,
                    m.efficiency,
                    p.overhead("g.faults"),
                    stats.get("crashes", 0),
                    stats.get("jobs_killed", 0),
                    stats.get("redispatches", 0),
                    stats.get("jobs_unrecovered", 0),
                ]
            )
        parts.append(f"\n{name} under churn:")
        parts.append(
            format_table(
                [
                    "k",
                    "F",
                    "G",
                    "H",
                    "E",
                    "G:faults",
                    "crashes",
                    "killed",
                    "redisp",
                    "lost",
                ],
                rows,
                precision=precision,
            )
        )

    ranking = []
    for name, points in result.points.items():
        if len(points) < 2:
            continue
        ks = [p.scale for p in points]
        try:
            g_slope = slopes(ks, [p.metrics.record.G for p in points])
            f_slope = slopes(ks, [p.overhead("g.faults") for p in points])
        except ValueError:
            continue
        ranking.append(
            [
                name,
                sum(g_slope) / len(g_slope),
                sum(f_slope) / len(f_slope),
            ]
        )
    if ranking:
        ranking.sort(key=lambda row: row[1])
        parts.append("\nmean slope under churn (time units / k, lower is better):")
        parts.append(
            format_table(["RMS", "dG/dk", "d(G:faults)/dk"], ranking, precision=2)
        )
    return "\n".join(parts)

"""The benchmark's workloads: inputs from a seed, the timed call, the outputs.

Each workload is built from the workload seed alone (:func:`make_inputs`
is a pure function of it), runs the simulator through one of its public
entry points, and returns every simulation's result for checking:

* ``study-ci`` — :func:`repro.api.run_study` on the ci-profile Figure-2
  study of CENTRAL and LOWEST, with speculation, warm start and the
  annealing budget pinned: the study path users run.  About 55 small
  simulations; as traced, kernel dispatch, scheduler handlers and
  message sends take most of the time, the tuner, engine and cache
  about 0.2%.
* ``sweep-full`` — ``ExperimentEngine(jobs=1).run_many`` over full-profile
  Case-1 LOWEST configs at k=3 (480 resources, 96 schedulers): one
  platform seed, drawn from the workload seed, and the three enabler
  settings of :data:`SWEEP_SETTINGS`.  Every run shares one platform, so
  the 576 per-source Dijkstras repeat identically in every run: the tuned
  walk's access pattern.
* ``extreme-fluid`` — one :func:`run_simulation` of the extreme profile in
  fluid traffic mode, Case-1 LOWEST at k=1 (25k resources).  The build
  and the fluid status plane dominate; the kernel dispatches ~1k events.

The enabler settings of ``sweep-full`` are fixed rather than drawn: the
status traffic, and so a run's cost, scales with 1/tau and grows with
the neighbourhood size, and drawn settings made an iteration cost 10.4 s
on one seed and 13.0 s on another.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "DEFAULT_SEED",
    "ITERATION_S",
    "STUDY_SA_ITERATIONS",
    "SWEEP_SETTINGS",
    "WORKLOADS",
    "check_metrics",
    "digest",
    "make_inputs",
    "prepare",
]

WORKLOADS = ("study-ci", "sweep-full", "extreme-fluid")

#: the seed the golden digests are recorded for
DEFAULT_SEED = 7

#: seconds one iteration is budgeted at, about the slowest iteration
#: measured on a 2-vCPU host; a run of ``--seconds`` makes
#: ``seconds // ITERATION_S`` iterations (at least one).  A fixed count,
#: rather than one chosen from measured times, keeps a slow first
#: iteration from changing how many iterations the median is taken over.
ITERATION_S = {"study-ci": 28.0, "sweep-full": 17.0, "extreme-fluid": 25.0}

#: annealing iterations per tuning problem in ``study-ci`` (profile: 10)
STUDY_SA_ITERATIONS = 2

#: enabler settings of the ``sweep-full`` runs, one config each: three
#: points of the Case-1 grid, every update interval, neighbourhood size
#: and link delay in it different
SWEEP_SETTINGS = (
    {"update_interval": 40.0, "neighborhood_size": 3, "link_delay_scale": 1.0},
    {"update_interval": 80.0, "neighborhood_size": 5, "link_delay_scale": 0.6},
    {"update_interval": 160.0, "neighborhood_size": 7, "link_delay_scale": 1.6},
)


def make_inputs(workload: str, seed: int) -> Dict[str, Any]:
    """The workload's inputs for ``seed``, as plain JSON values."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; valid: {list(WORKLOADS)}")
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])

    def derived() -> int:
        return int(rng.integers(1, 2**31))

    if workload == "study-ci":
        return {"study_seed": int(seed)}
    if workload == "sweep-full":
        platform_seed = DEFAULT_SEED if seed == DEFAULT_SEED else derived()
        return {"platform_seed": platform_seed, "settings": [dict(s) for s in SWEEP_SETTINGS]}
    sim_seed = DEFAULT_SEED if seed == DEFAULT_SEED else derived()
    return {"sim_seed": sim_seed}


def digest(data: bytes) -> str:
    """SHA-256 hex digest."""
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# set-up and the timed call
# ---------------------------------------------------------------------------

def prepare(workload: str, inputs: Dict[str, Any], cache_dir: str):
    """Import what the workload needs and build its inputs.

    Returns ``(call, collect)``: ``call()`` is the timed call, and
    ``collect(value)`` turns its return value into ``(runs, extra)`` —
    the :class:`RunMetrics` of every simulation the call executed, in a
    fixed order, and the digests of any further outputs.  Everything
    before ``call`` is set-up.
    """
    if workload == "study-ci":
        return _prepare_study(inputs, cache_dir)
    if workload == "sweep-full":
        return _prepare_sweep(inputs, cache_dir)
    if workload == "extreme-fluid":
        return _prepare_extreme(inputs)
    raise ValueError(f"unknown workload {workload!r}")


def _prepare_study(inputs, cache_dir):
    from repro.api import StudySpec, run_study
    from repro.experiments import reporting, reproduce  # noqa: F401  (set-up imports)
    from repro.experiments.parallel import RunCache, metrics_from_jsonable
    from repro.experiments.parallel.cache import canonical_json

    spec = StudySpec(
        kind="figure",
        figure=2,
        profile="ci",
        rms=("CENTRAL", "LOWEST"),
        seed=inputs["study_seed"],
        sa_iterations=STUDY_SA_ITERATIONS,
        jobs=1,
        cache_dir=cache_dir,
        speculate=1,
        warm_start=True,
    )

    def call():
        return run_study(spec)

    def collect(result):
        # every executed simulation left exactly one cache entry
        entries = RunCache(root=cache_dir).entry_bytes()
        runs = [
            metrics_from_jsonable(json.loads(entries[key])["metrics"])
            for key in sorted(entries)
        ]
        tuned = {
            rms: [
                {"scale": p.scale, "settings": p.settings, "feasible": p.feasible}
                for p in series.result.points
            ]
            for rms, series in result.data.series.items()
        }
        report = result.report.encode("utf-8") + b"\n" + canonical_json(tuned)
        points = [
            (p.record, p.efficiency)
            for series in result.data.series.values()
            for p in series.result.points
        ]
        return runs, {"report": digest(report), "points": points}

    return call, collect


def _prepare_sweep(inputs, cache_dir):
    from repro.experiments.cases import CASES
    from repro.experiments.config import PROFILES
    from repro.experiments.parallel import ExperimentEngine, RunCache

    base = CASES[1].config_for("LOWEST", 3, PROFILES["full"], seed=inputs["platform_seed"])
    configs = [base.with_enablers(s) for s in inputs["settings"]]
    engine = ExperimentEngine(jobs=1, cache=RunCache(root=cache_dir))

    def call():
        return engine.run_many(configs)

    def collect(results):
        return list(results), {}

    return call, collect


def _prepare_extreme(inputs):
    from repro.experiments.cases import CASES
    from repro.experiments import runner
    from repro.experiments.config import PROFILES
    from repro.fluid.plan import FluidPlan

    config = CASES[1].config_for(
        "LOWEST", 1, PROFILES["extreme"], seed=inputs["sim_seed"],
        fluid=FluidPlan(mode="fluid"),
    )

    def call():
        return runner.run_simulation(config)

    def collect(metrics):
        return [metrics], {}

    return call, collect


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_metrics(metrics) -> List[str]:
    """Invariant violations of one run's :class:`RunMetrics` (empty: ok).

    Holds for every seed: the attribution re-sums to F, G and H exactly,
    E is F/(F+G+H), and no more jobs complete or succeed than were
    submitted.
    """
    problems = []
    record = metrics.record
    attribution = metrics.attribution or {}
    for prefix, total in (("f.", record.F), ("g.", record.G), ("h.", record.H)):
        parts = [v for k, v in attribution.items() if k.startswith(prefix)]
        if math.fsum(parts) != total:
            problems.append(f"attribution {prefix}* does not sum to the ledger total")
    problems.extend(check_efficiency(record, metrics.efficiency))
    if not (metrics.jobs_successful <= metrics.jobs_completed <= metrics.jobs_submitted):
        problems.append("successful <= completed <= submitted violated")
    if metrics.jobs_submitted < 1:
        problems.append("no jobs submitted")
    return problems


def check_efficiency(record, efficiency: float) -> List[str]:
    """E recomputed from F, G and H must equal the reported ``efficiency``."""
    total = record.F + record.G + record.H
    expected = record.F / total if total > 0 else 0.0
    return [] if efficiency == expected else ["E differs from F/(F+G+H)"]


def load_golden(path: Path) -> Dict[str, Any]:
    """The recorded golden digests (empty when none are recorded)."""
    if not path.exists():
        return {}
    return json.loads(path.read_text("utf-8"))


def outcome(
    runs, extra: Dict[str, Any], golden: Optional[Dict[str, Any]]
) -> Tuple[int, int, List[str], Dict[str, Any]]:
    """Check one iteration's outputs.

    Returns ``(attempted, failed, problems, digests)``: one attempt per
    simulation; a simulation fails when it breaks an invariant or, with
    ``golden`` given, when its digest differs from the recorded one.  A
    mismatched study report fails every simulation of the study.
    """
    from repro.experiments.parallel import metrics_json_bytes

    digests = [digest(metrics_json_bytes(m)) for m in runs]
    problems: List[str] = []
    failed = set()
    for i, m in enumerate(runs):
        bad = check_metrics(m)
        if bad:
            failed.add(i)
            problems.extend(f"run {i}: {p}" for p in bad)
    for record, efficiency in extra.get("points", ()):
        bad = check_efficiency(record, efficiency)
        if bad:
            failed.update(range(len(runs)))
            problems.extend(f"tuned point: {p}" for p in bad)
    out = {"runs": digests}
    if "report" in extra:
        out["report"] = extra["report"]
    if golden is not None:
        want = golden.get("runs", [])
        mismatched = {i for i, d in enumerate(digests) if i >= len(want) or want[i] != d}
        if mismatched or len(want) != len(digests):
            problems.append(f"{len(mismatched)} of {len(digests)} run digests differ "
                            f"from the {len(want)} golden digests")
        failed |= mismatched
        if golden.get("report") != out.get("report"):
            failed.update(range(len(runs)))
            problems.append("study report differs from the golden digest")
    if not runs:
        problems.append("no simulation ran")
        return 1, 1, problems, out
    return len(runs), len(failed), problems, out

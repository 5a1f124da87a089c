"""Reproduction drivers: one function per paper figure.

``figure2()`` … ``figure7()`` regenerate the corresponding paper
figure's data series under a scale profile, returning a
:class:`FigureData` whose rows the reporting module renders.  Figures
4, 6, and 7 share a single Case-3 measurement (the paper derives all
three from the same experiment), so the drivers memoize per-case
results within a :class:`Study`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.annealing import AnnealingSchedule
from ..core.procedure import ScalabilityProcedure, ScalabilityResult
from ..envknobs import get_bool, get_str, raw as _env_raw
from ..fluid.plan import FluidPlan, resolve_fluid_plan
from ..rms.registry import rms_names
from ..telemetry.spans import current as _telemetry
from .cases import ExperimentCase, get_case, make_batch_simulate, make_simulate
from .config import PROFILES, ScaleProfile
from .parallel.cache import DEFAULT_CACHE_DIR, metrics_from_jsonable, metrics_to_jsonable
from .parallel.manifest import StudyManifest, result_from_jsonable, result_to_jsonable
from .runner import RunMetrics

__all__ = [
    "DEFAULT_SPECULATION_WIDTH",
    "RMSSeries",
    "FigureData",
    "Study",
    "resolve_speculation",
    "resolve_warm_start",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
]

#: annealing speculation width used when speculation is switched on
#: without an explicit width (``--speculate`` bare, ``REPRO_SPECULATE=1``)
DEFAULT_SPECULATION_WIDTH = 4


def resolve_speculation(speculate: "bool | int | None" = None) -> int:
    """Resolve the annealing speculation width: argument > env > off.

    ``None`` defers to ``$REPRO_SPECULATE``; ``False``/``0`` (and an
    unset/falsy environment) mean no speculation (width 1, the classic
    serial walk); ``True`` (or ``REPRO_SPECULATE=1``/``true``) selects
    :data:`DEFAULT_SPECULATION_WIDTH`; any larger integer is used as
    the width directly.
    """
    if speculate is None:
        env = (_env_raw("REPRO_SPECULATE") or "").lower()
        if env in ("", "0", "false", "no", "off"):
            return 1
        if env in ("1", "true", "yes", "on"):
            return DEFAULT_SPECULATION_WIDTH
        speculate = int(env)
    if speculate is True:
        return DEFAULT_SPECULATION_WIDTH
    if not speculate:
        return 1
    return max(1, int(speculate))


def resolve_warm_start(warm_start: "bool | None" = None) -> bool:
    """Resolve the warm-start flag: argument > ``$REPRO_WARM_START`` > on."""
    return get_bool("REPRO_WARM_START", override=warm_start, default=True)


@dataclass
class RMSSeries:
    """One RMS's measured series along a case's scaling path."""

    rms: str
    result: ScalabilityResult
    metrics: List[RunMetrics]

    @property
    def scales(self) -> Tuple[float, ...]:
        """Scale factors of the path."""
        return self.result.scales

    @property
    def G(self) -> Tuple[float, ...]:
        """Tuned minimum overhead per scale."""
        return self.result.G

    @property
    def g_norm(self) -> Tuple[float, ...]:
        """Normalized overhead ``g(k) = G(k)/G(k0)``."""
        return self.result.curves.g

    @property
    def f_norm(self) -> Tuple[float, ...]:
        """Normalized useful work ``f(k) = F(k)/F(k0)``."""
        return self.result.curves.f

    @property
    def h_norm(self) -> Tuple[float, ...]:
        """Normalized RP overhead ``h(k) = H(k)/H(k0)`` — the axis the
        paper's future work (c) proposes measuring scalability on."""
        return self.result.curves.h

    @property
    def efficiency(self) -> Tuple[float, ...]:
        """Achieved efficiency per scale."""
        return self.result.efficiencies

    @property
    def throughput(self) -> Tuple[float, ...]:
        """Successful jobs per unit time, per scale (Fig. 6's y-axis)."""
        return tuple(m.throughput for m in self.metrics)

    @property
    def response(self) -> Tuple[float, ...]:
        """Mean job response time per scale (Fig. 7's y-axis)."""
        return tuple(m.mean_response for m in self.metrics)


@dataclass
class FigureData:
    """One regenerated figure: a named family of per-RMS series."""

    figure: str
    title: str
    x_label: str
    y_label: str
    series: Dict[str, RMSSeries]

    def rows(self, quantity: str = "G") -> List[List]:
        """Tabular view: one row per RMS, one column per scale."""
        out = []
        for name, s in self.series.items():
            values = getattr(s, quantity)
            out.append([name, *values])
        return out

    @property
    def scales(self) -> Tuple[float, ...]:
        """The common scale axis."""
        first = next(iter(self.series.values()))
        return first.scales


class Study:
    """A reproduction session: caches per-case measurements.

    Parameters
    ----------
    profile:
        ``"ci"`` (default) or ``"full"`` — see
        :mod:`repro.experiments.config`.
    rms:
        Which designs to measure (default: all seven).
    seed:
        Root seed for every simulation in the study.
    engine:
        Optional :class:`~repro.experiments.parallel.ExperimentEngine`;
        every simulation of the study then executes through it —
        independent candidate batches fan out over its worker pool and
        repeat runs are served from its run cache.  ``None`` keeps the
        historical serial in-process behavior.
    resume:
        Checkpoint/resume the study through a
        :class:`~repro.experiments.parallel.StudyManifest`: completed
        (case, RMS) points are persisted as they finish and *skipped*
        (reconstructed from the manifest, zero simulations) on the next
        run.
    manifest_path:
        Manifest file location (implies ``resume``); defaults to
        ``<cache-dir>/manifests/study.json``.
    speculate:
        Speculative-annealing width (see :func:`resolve_speculation`;
        default: ``$REPRO_SPECULATE`` or off).  With a width ``W > 1``
        every annealing round evaluates up to ``W`` proposed neighbors
        as one engine batch.  Tuned points stay identical across worker
        counts — only wall-clock changes.
    warm_start:
        Warm-start each scale of the walk from the previous scale's
        tuned settings (see :func:`resolve_warm_start`; default:
        ``$REPRO_WARM_START`` or on).  ``False`` restores the
        historical cold-start walk.
    fluid:
        Traffic model for every simulation of the study (default:
        ``$REPRO_TRAFFIC_MODE`` or discrete — see
        :mod:`repro.fluid.plan`).  A fluid plan changes what the runs
        compute (G/H carry the modeled rates), so it is part of point
        identities and cache keys.
    """

    def __init__(
        self,
        profile: "str | ScaleProfile" = "ci",
        rms: Optional[Sequence[str]] = None,
        seed: int = 7,
        sa_iterations: Optional[int] = None,
        engine=None,
        resume: bool = False,
        manifest_path: "str | Path | None" = None,
        speculate: "bool | int | None" = None,
        warm_start: "bool | None" = None,
        fluid: "FluidPlan | None" = None,
    ) -> None:
        if isinstance(profile, ScaleProfile):
            self.profile = profile
        elif profile in PROFILES:
            self.profile = PROFILES[profile]
        else:
            raise KeyError(f"unknown profile {profile!r}; valid: {sorted(PROFILES)}")
        self.rms_list = list(rms) if rms is not None else rms_names()
        self.seed = seed
        self.sa_iterations = (
            sa_iterations if sa_iterations is not None else self.profile.sa_iterations
        )
        self.engine = engine
        self.speculation = resolve_speculation(speculate)
        self.warm_start = resolve_warm_start(warm_start)
        self.fluid = fluid if fluid is not None else resolve_fluid_plan()
        self._manifest: Optional[StudyManifest] = None
        if resume or manifest_path is not None:
            if manifest_path is None:
                root = get_str("REPRO_CACHE_DIR", default=DEFAULT_CACHE_DIR)
                manifest_path = Path(root) / "manifests" / "study.json"
            self._manifest = StudyManifest(manifest_path)
        self._case_cache: Dict[int, Dict[str, RMSSeries]] = {}

    # ------------------------------------------------------------------
    def run_case(self, case_id: int) -> Dict[str, RMSSeries]:
        """Measure every requested RMS on one case (memoized).

        With a manifest attached (``resume=True``), points the manifest
        records as completed are reconstructed from it without running
        a single simulation; newly measured points are checkpointed as
        they finish.
        """
        if case_id in self._case_cache:
            return self._case_cache[case_id]
        case = get_case(case_id)
        out: Dict[str, RMSSeries] = {}
        for rms in self.rms_list:
            key = self._point_key(case_id, rms)
            if self._manifest is not None and self._manifest.is_done(key):
                series = self._series_from_payload(rms, self._manifest.payload(key))
                if series is not None:
                    out[rms] = series
                    continue
            series = self._measure(case, rms)
            out[rms] = series
            if self._manifest is not None:
                self._manifest.mark_done(key, self._series_payload(series))
        self._case_cache[case_id] = out
        return out

    def _point_key(self, case_id: int, rms: str) -> str:
        """Identity of one study point: everything that shapes its result.

        Warm-start and speculation change which candidates the search
        examines (and therefore the tuned points), so they are part of
        the identity — a manifest written under one flag set is never
        replayed under another.
        """
        scales = ",".join(str(s) for s in self.profile.scales)
        # An inert fluid plan leaves keys bit-for-bit what they were
        # before the field existed, so pre-fluid manifests stay valid;
        # a fluid plan computes different G/H and gets its own points.
        fluid = ""
        if self.fluid.is_fluid:
            fluid = f":fluid{self.fluid.mode}-fan{self.fluid.aggregator_fanout}"
        return (
            f"{self.profile.name}:seed{self.seed}:sa{self.sa_iterations}"
            f":scales[{scales}]:warm{int(self.warm_start)}"
            f":spec{self.speculation}{fluid}:case{case_id}:{rms}"
        )

    def _series_payload(self, series: RMSSeries) -> Dict:
        """Serialize one measured series for the manifest."""
        return {
            "result": result_to_jsonable(series.result),
            "metrics": [metrics_to_jsonable(m) for m in series.metrics],
        }

    @staticmethod
    def _series_from_payload(rms: str, payload) -> Optional[RMSSeries]:
        """Rebuild a series from its manifest payload (``None`` if bad)."""
        try:
            return RMSSeries(
                rms=rms,
                result=result_from_jsonable(payload["result"]),
                metrics=[metrics_from_jsonable(m) for m in payload["metrics"]],
            )
        except (KeyError, TypeError, ValueError):
            return None

    def _measure(self, case: ExperimentCase, rms: str) -> RMSSeries:
        memo: Dict = {}
        simulate = make_simulate(
            case, rms, self.profile, seed=self.seed, memo=memo, engine=self.engine,
            fluid=self.fluid,
        )
        batch = make_batch_simulate(
            case, rms, self.profile, seed=self.seed, memo=memo, engine=self.engine,
            fluid=self.fluid,
        )
        procedure = ScalabilityProcedure(
            simulate,
            case.enabler_space(),
            path=case.path(self.profile),
            warm_start=self.warm_start,
            schedule=AnnealingSchedule(iterations=self.sa_iterations, t0=0.5),
            seed=self.seed,
            batch_simulate=batch,
            speculation=self.speculation,
        )
        # The study.measure span labels everything nested under it —
        # tuner iterations, engine batches, ledger snapshots — with the
        # (case, rms) pair; `repro telemetry tuner` groups by it.
        with _telemetry().span(
            "study.measure", case=case.case_id, rms=rms, profile=self.profile.name
        ):
            result = procedure.run(name=rms)
            # Re-read the tuned points' full metrics from the shared memo
            # (cache hits: no extra simulation).
            metrics = [simulate(p.scale, p.settings) for p in result.points]
        return RMSSeries(rms=rms, result=result, metrics=metrics)

    # ------------------------------------------------------------------
    def figure(self, number: int) -> FigureData:
        """Regenerate paper Figure ``number`` (2–7)."""
        if number == 2:
            return FigureData(
                "Figure 2",
                "Variation in G(k) on scaling the RP by number of nodes",
                "scale factor k (network size)",
                "G(k) [time units]",
                self.run_case(1),
            )
        if number == 3:
            return FigureData(
                "Figure 3",
                "Variation in G(k) on scaling the RP by service rate (fixed network)",
                "scale factor k (service rate)",
                "G(k) [time units]",
                self.run_case(2),
            )
        if number == 4:
            return FigureData(
                "Figure 4",
                "Variation of G(k) on scaling the RMS by number of estimators",
                "scale factor k (estimators)",
                "G(k) [time units]",
                self.run_case(3),
            )
        if number == 5:
            return FigureData(
                "Figure 5",
                "Variation in G(k) on scaling the RMS by L_p",
                "scale factor k (L_p)",
                "G(k) [time units]",
                self.run_case(4),
            )
        if number == 6:
            return FigureData(
                "Figure 6",
                "Throughput obtained by scaling the RMS by number of estimators",
                "scale factor k (estimators)",
                "throughput [successful jobs / time unit]",
                self.run_case(3),
            )
        if number == 7:
            return FigureData(
                "Figure 7",
                "Average response times obtained by scaling the RMS by estimators",
                "scale factor k (estimators)",
                "mean response time [time units]",
                self.run_case(3),
            )
        raise ValueError(f"the paper has figures 2-7; got {number}")


# Convenience single-figure entry points -------------------------------------

def _one(number: int, profile: str = "ci", **kw) -> FigureData:
    return Study(profile=profile, **kw).figure(number)


def figure2(profile: str = "ci", **kw) -> FigureData:
    """Regenerate paper Figure 2 (Case 1: scale RP by network size)."""
    return _one(2, profile, **kw)


def figure3(profile: str = "ci", **kw) -> FigureData:
    """Regenerate paper Figure 3 (Case 2: scale RP by service rate)."""
    return _one(3, profile, **kw)


def figure4(profile: str = "ci", **kw) -> FigureData:
    """Regenerate paper Figure 4 (Case 3: scale RMS by estimators)."""
    return _one(4, profile, **kw)


def figure5(profile: str = "ci", **kw) -> FigureData:
    """Regenerate paper Figure 5 (Case 4: scale RMS by L_p)."""
    return _one(5, profile, **kw)


def figure6(profile: str = "ci", **kw) -> FigureData:
    """Regenerate paper Figure 6 (throughput under estimator scaling)."""
    return _one(6, profile, **kw)


def figure7(profile: str = "ci", **kw) -> FigureData:
    """Regenerate paper Figure 7 (response times under estimator scaling)."""
    return _one(7, profile, **kw)

"""Parallel experiment engine: process-pool fan-out, run cache, resume.

The isoefficiency procedure is, computationally, hundreds of
independent :func:`~repro.experiments.runner.run_simulation` calls —
tuner probes at each scale, replications across seeds, whole figure
sweeps.  Every one of them is a pure function of its
:class:`~repro.experiments.config.SimulationConfig` (the runner seeds
every stream from ``config.seed``), which makes the sweep
embarrassingly parallel *and* content-addressable.  This subsystem
exploits both properties:

* :mod:`~repro.experiments.parallel.hashing` — a canonical, stable,
  cross-process hash of a :class:`SimulationConfig` (no reliance on
  ``PYTHONHASHSEED``).
* :mod:`~repro.experiments.parallel.cache` — a content-addressed
  on-disk **run cache** (``.repro-cache/`` by default): the config hash
  keys a persisted :class:`~repro.experiments.runner.RunMetrics` JSON
  record, so repeated tuner probes and benchmark re-runs are free.
* :mod:`~repro.experiments.parallel.engine` —
  :class:`ExperimentEngine`, which fans batches of independent configs
  out over a :class:`concurrent.futures.ProcessPoolExecutor`
  (``jobs=1`` falls back to a plain in-process loop so debugging and
  coverage keep working).
* :mod:`~repro.experiments.parallel.manifest` —
  :class:`StudyManifest`, a checkpoint/resume record for multi-point
  studies: completed (case, RMS) points are persisted with their full
  serialized results, so a killed sweep restarts where it left off.

All of it is gated on run determinism, which
``tests/test_determinism.py`` proves byte-for-byte, in-process and
across a subprocess boundary.
"""

from .cache import RunCache, metrics_from_jsonable, metrics_json_bytes, metrics_to_jsonable
from .engine import ExperimentEngine, resolve_jobs
from .hashing import (
    CACHE_SCHEMA_VERSION,
    CONDITIONAL_PROVENANCE_FIELDS,
    canonical_config,
    config_key,
)
from .manifest import StudyManifest, result_from_jsonable, result_to_jsonable

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CONDITIONAL_PROVENANCE_FIELDS",
    "ExperimentEngine",
    "RunCache",
    "StudyManifest",
    "canonical_config",
    "config_key",
    "metrics_from_jsonable",
    "metrics_json_bytes",
    "metrics_to_jsonable",
    "resolve_jobs",
    "result_from_jsonable",
    "result_to_jsonable",
]

"""The tracked performance benchmark: kernel, sims, and study wall clock.

Runs :func:`repro.experiments.benchperf.run_bench` — the same
measurement behind ``repro bench-perf`` — and writes the
``BENCH_perf.json`` record this repo tracks over time:

* kernel event throughput (events/sec) on a steady-state storm,
* end-to-end simulation throughput (sims/sec),
* wall clock + tuner evaluation counts for a full isoefficiency study
  in three arms: the historical serial cold-start tuner (baseline) and
  the warm-started speculative tuner at ``jobs=1`` and ``jobs=N``.

Timings are machine-dependent and recorded, not gated.  What *is*
asserted is the determinism contract: the speculative arms' tuned
points must be identical across worker counts, and warm-started search
must not do more simulation work than the baseline.

Environment knobs (shared with the rest of the bench suite):
``REPRO_BENCH_PROFILE``, ``REPRO_BENCH_SA_ITERS``, ``REPRO_JOBS``
(parallel-arm worker count, default 4), and ``REPRO_BENCH_RMS``
(comma-separated subset; default: all seven designs).

Also runnable directly — ``python benchmarks/bench_perf.py`` — which
prints the report and writes ``BENCH_perf.json`` in the working
directory.
"""

from __future__ import annotations

import os

from repro.experiments.benchperf import render_report, run_bench, write_bench

_PROFILE = os.environ.get("REPRO_BENCH_PROFILE", "ci")
_SA_ITERS = os.environ.get("REPRO_BENCH_SA_ITERS", "")
_RMS = os.environ.get("REPRO_BENCH_RMS", "")
_JOBS = int(os.environ.get("REPRO_JOBS", "") or "4")


def run_perf_bench(output: str = "BENCH_perf.json") -> dict:
    """Run the full benchmark, print its report, write the record."""
    payload = run_bench(
        profile=_PROFILE,
        rms=_RMS.split(",") if _RMS else None,
        sa_iterations=int(_SA_ITERS) if _SA_ITERS else None,
        jobs=_JOBS if _JOBS > 0 else 4,
    )
    print()
    print(render_report(payload))
    path = write_bench(payload, output)
    print(f"benchmark record written to {path}")
    return payload


def test_perf_record(benchmark, tmp_path):
    payload = benchmark.pedantic(
        run_perf_bench, args=(str(tmp_path / "BENCH_perf.json"),),
        rounds=1, iterations=1,
    )
    study = payload["study"]

    # Worker count must never change tuned points.
    assert study["tuned_points_identical_across_jobs"]

    # The warm-started walk exists to cut evaluations: it must never do
    # more simulation work than the cold-start baseline.
    for arm in study["arms"]:
        assert arm["simulations"] <= study["baseline"]["simulations"]

    # Structural soundness of the record.
    assert payload["kernel"]["events_per_sec"] > 0
    assert payload["sims"]["sims_per_sec"] > 0
    assert set(study["baseline"]["tuned"]) == set(payload["rms"])


if __name__ == "__main__":
    run_perf_bench()

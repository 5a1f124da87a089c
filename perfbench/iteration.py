"""One benchmark iteration, in its own interpreter.

``run.py`` starts this script once per iteration, so no import, memo or
warm cache carries over from one iteration to the next: a real study
pays its build once per process.  It prints one JSON object::

    python3 perfbench/iteration.py --workload sweep-full --seed 7 \
        --cache-dir .perfbench/it0 --spawned-at <time.monotonic()>

Set-up runs from interpreter start (``--spawned-at``, read on the same
system-wide monotonic clock by the parent just before it started this
process) to the first timed call; it is also reported normalised by
seven reference slices (``speed.py``) timed right after it.  ``--setup-only``
stops there.
``--probe`` interleaves the host-speed probe (``speed.py``) into the
timed call and reports its normalised times as well.  ``--trace PATH``
wraps the layer boundaries before set-up ends, reports the per-layer
metrics, restores every wrapped function and writes the spans to
``PATH``; traced runs go without the probe, whose slices would land in
the layers' self times.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def _cache_entries(cache_dir: str) -> list:
    """Run-cache entry files under ``cache_dir`` (manifests excluded)."""
    root = Path(cache_dir)
    if not root.exists():
        return []
    return [p for p in root.glob("*/*.json") if p.parent.name != "manifests"]


def failure(error: str, cache_dir: str):
    """``(attempted, failed, problems, digests)`` of an iteration whose
    outputs could not be produced or read: every simulation it ran (one
    per run-cache entry, at least one) counts as failed."""
    attempted = max(1, len(_cache_entries(cache_dir)))
    return attempted, attempted, [error], {}


def check_outputs(collect, value, golden, cache_dir: str):
    """Check the timed call's return ``value``; ``(attempted, failed,
    problems, digests)``.  An output that cannot be read fails the
    iteration's simulations instead of stopping the benchmark."""
    try:
        runs, extra = collect(value)
        return workloads.outcome(runs, extra, golden)
    except Exception as exc:
        return failure(f"unreadable output: {type(exc).__name__}: {exc}", cache_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--golden", default=None,
                        help="JSON file of the digests this seed must reproduce")
    parser.add_argument("--trace", default=None, help="write spans here (.npz)")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--probe", action="store_true",
                        help="sample the host's speed during the timed call")
    args = parser.parse_args(argv)

    inputs = workloads.make_inputs(args.workload, args.seed)
    recorder = None
    if args.trace:
        recorder = layers.install()
    call, collect = workloads.prepare(args.workload, inputs, args.cache_dir)

    t0 = time.monotonic()
    setup_s = t0 - args.spawned_at
    probe = speed.SpeedProbe()
    norm_setup_s = setup_s * speed.speed_factor(probe.sample(), speed.SETUP_EXPONENT)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "norm_setup_s": norm_setup_s}))
        return 0
    if args.probe:
        probe.start()
    t0, c0 = time.monotonic(), time.process_time()
    error = None
    try:
        value = call()
    except Exception as exc:  # a failed simulation is a measured outcome
        value, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        timing = {"wall_s": time.monotonic() - t0, "cpu_s": time.process_time() - c0}
        if args.probe:
            probe.stop()
            timing = probe.summary()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layer = None
    if recorder is not None:
        recorder.restore()
        cache_bytes = sum(p.stat().st_size for p in _cache_entries(args.cache_dir))
        layer = layers.layer_metrics(recorder, cache_bytes)
        recorder.dump(args.trace)

    if error is None:
        golden = (workloads.load_golden(Path(args.golden))[args.workload]
                  if args.golden else None)
        attempted, failed, problems, digests = check_outputs(
            collect, value, golden, args.cache_dir)
    else:
        attempted, failed, problems, digests = failure(error, args.cache_dir)
    print(json.dumps({
        "setup_s": setup_s,
        "norm_setup_s": norm_setup_s,
        **timing,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "digests": digests,
        "layers": layer,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The repository benchmark: one command, every metric, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload study-ci --seed 7 --seconds 32 --trace 0

Each iteration runs in a fresh interpreter (``iteration.py``) with a
fresh run-cache directory under ``.perfbench/``, so no memo or warm
cache carries over between iterations.  Every ``REPRO_*`` knob that
changes execution is cleared or pinned (:data:`PINNED`).

``--trace 0`` runs ``--seconds // ITERATION_S[workload]`` untraced
iterations (at least one) with the host-speed probe (``speed.py``) and
reports the median of each end-to-end metric; the times are normalised
to a reference host speed, and the raw times go to the line before the
result.  Set-up is also sampled by set-up-only interpreters until there
are :data:`MIN_SETUPS` samples.  ``--trace 1`` runs one untraced and one
traced iteration and reports the per-layer metrics, with
``trace.overhead_ratio`` = traced / untraced wall time; the traced
results must be byte-identical to the untraced ones.

Outputs are checked on every iteration: invariants for any seed, and at
the default seed the SHA-256 digests recorded in ``golden.json``
(``--record-golden`` re-records them).  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it describes the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"

sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, ITERATION_S, WORKLOADS  # noqa: E402

#: end-to-end metric -> unit
END_TO_END = {
    "norm_wall_s": "s",
    "norm_cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "pass_frac": "ratio",
}

#: the REPRO_* knobs that change execution, pinned; every other
#: REPRO_* variable is removed from the children's environment
PINNED = {
    "REPRO_JOBS": "1",
    "REPRO_KERNEL_BACKEND": "reference",
    "REPRO_TRAFFIC_MODE": "discrete",
    "REPRO_SPECULATE": "0",
    "REPRO_WARM_START": "1",
    "REPRO_SERIES": "0",
    "REPRO_TRACE_SAMPLE": "0",
    "REPRO_TELEMETRY": "0",
    "REPRO_TELEMETRY_PROFILE": "0",
    "REPRO_FLIGHT_RECORDER": "0",
}

MIN_SETUPS = 5
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (no result is printed)."""


def child_env(cache_dir: Path) -> Dict[str, str]:
    """The pinned environment of an iteration interpreter."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PINNED)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["REPRO_TELEMETRY_DIR"] = str(WORK / "telemetry")
    env["REPRO_FLIGHT_DIR"] = str(WORK / "flight-recorder")
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONSTARTUP", None)
    return env


def spawn(workload: str, seed: int, *, golden: bool, trace: Optional[Path] = None,
          setup_only: bool = False, probe: bool = False) -> Dict:
    """Run one iteration interpreter and return its JSON result."""
    cache_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    argv = [sys.executable, str(HERE / "iteration.py"), "--workload", workload,
            "--seed", str(seed), "--cache-dir", str(cache_dir)]
    if golden:
        argv += ["--golden", str(GOLDEN)]
    if trace is not None:
        argv += ["--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    if probe:
        argv.append("--probe")
    try:
        spawned_at = time.monotonic()
        proc = subprocess.run(
            argv + ["--spawned-at", repr(spawned_at)],
            cwd=str(ROOT), env=child_env(cache_dir), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} iteration exceeded {CHILD_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} iteration exited with {proc.returncode}: {proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def golden_workloads() -> List[str]:
    """Workloads with recorded golden digests."""
    if not GOLDEN.exists():
        return []
    return sorted(json.loads(GOLDEN.read_text("utf-8")))


def environment() -> Dict:
    """What the numbers were measured on, and the pinned knobs."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "pinned_env": dict(PINNED, PYTHONHASHSEED="0"),
    }


def measure(workload: str, seed: int, seconds: float) -> Dict:
    """``seconds // ITERATION_S`` untraced iterations (at least one);
    end-to-end metrics as medians."""
    golden = seed == DEFAULT_SEED and workload in golden_workloads()
    count = max(1, int(seconds // ITERATION_S[workload]))
    iterations = [spawn(workload, seed, golden=golden, probe=True) for _ in range(count)]
    setups = iterations + [
        spawn(workload, seed, golden=False, setup_only=True)
        for _ in range(MIN_SETUPS - len(iterations))
    ]
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    values = {
        "norm_wall_s": statistics.median(it["norm_wall_s"] for it in iterations),
        "norm_cpu_s": statistics.median(it["norm_cpu_s"] for it in iterations),
        "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in iterations),
        "setup_s": statistics.median(it["norm_setup_s"] for it in setups),
        "pass_frac": (attempted - failed) / attempted,
    }
    info = {
        "iterations": len(iterations),
        "wall_s": [it["wall_s"] for it in iterations],
        "cpu_s": [it["cpu_s"] for it in iterations],
        "slice_mean_s": [it["slice_mean_s"] for it in iterations],
        "setup_s": [it["setup_s"] for it in setups],
        "problems": [p for it in iterations for p in it["problems"]][:20],
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()},
        "info": info,
    }


def measure_traced(workload: str, seed: int) -> Dict:
    """One untraced and one traced iteration; per-layer metrics."""
    golden = seed == DEFAULT_SEED and workload in golden_workloads()
    plain = spawn(workload, seed, golden=golden)
    spans_path = WORK / f"spans-{workload}.npz"
    traced = spawn(workload, seed, golden=golden, trace=spans_path)
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    identical = traced["digests"] == plain["digests"]
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + (traced["attempted"] if not identical else traced["failed"])
    problems = plain["problems"] + traced["problems"]
    if not identical:
        problems.append("traced results differ from untraced results")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()},
        "info": {"spans": str(spans_path.relative_to(ROOT)), "problems": problems[:20],
                 "wall_s": [plain["wall_s"], traced["wall_s"]]},
    }


def record_golden(workloads: List[str]) -> Dict:
    """Re-record the golden digests of ``workloads`` at the default seed."""
    golden = json.loads(GOLDEN.read_text("utf-8")) if GOLDEN.exists() else {}
    for workload in workloads:
        it = spawn(workload, DEFAULT_SEED, golden=False)
        if it["failed"]:
            raise BenchError(f"{workload}: outputs break invariants: {it['problems']}")
        golden[workload] = it["digests"]
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", "utf-8")
    return golden


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Repository benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", choices=WORKLOADS, required=False)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="re-record golden.json at the default seed and exit")
    args = parser.parse_args(argv)

    # a terminated benchmark still kills and reaps its iteration: the
    # exception unwinds through subprocess.run, which does both
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        if args.record_golden:
            record_golden([args.workload] if args.workload else list(WORKLOADS))
            print(f"recorded {GOLDEN.relative_to(ROOT)}")
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.trace:
            result = measure_traced(args.workload, args.seed)
        else:
            result = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    info = result.pop("info")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "environment": environment(), **info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

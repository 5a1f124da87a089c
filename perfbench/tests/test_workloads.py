"""Inputs per seed, output checks, and the traced run's transparency."""

import dataclasses
import inspect
import sys

import pytest

import layers
import workloads
from spans import WRAPPED_MARK


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed_and_differ_across_seeds(workload):
    assert workloads.make_inputs(workload, 3) == workloads.make_inputs(workload, 3)
    seen = {str(workloads.make_inputs(workload, seed)) for seed in range(1, 9)}
    assert len(seen) == 8


def test_sweep_runs_the_pinned_settings_on_a_seeded_platform():
    platforms = set()
    for seed in range(5):
        inputs = workloads.make_inputs("sweep-full", seed)
        assert inputs["settings"] == list(workloads.SWEEP_SETTINGS)
        platforms.add(inputs["platform_seed"])
    assert len(platforms) == 5


def test_untampered_result_passes(small_run):
    _, metrics = small_run
    attempted, failed, problems, digests = workloads.outcome([metrics], {}, None)
    assert (attempted, failed, problems) == (1, 0, [])
    golden = {"runs": digests["runs"]}
    assert workloads.outcome([metrics], {}, golden)[1] == 0


def test_tampered_result_is_counted_as_failed(small_run):
    _, metrics = small_run
    broken = dataclasses.replace(metrics, jobs_completed=metrics.jobs_submitted + 1)
    attempted, failed, problems, _ = workloads.outcome([metrics, broken], {}, None)
    assert (attempted, failed) == (2, 1)
    assert problems

    # an invariant-preserving change is caught by the golden digest
    golden = {"runs": workloads.outcome([metrics], {}, None)[3]["runs"]}
    nudged = dataclasses.replace(metrics, mean_response=metrics.mean_response + 1e-9)
    assert workloads.outcome([nudged], {}, None)[1] == 0
    assert workloads.outcome([nudged], {}, golden)[1] == 1

    # an attribution cell that no longer re-sums to G
    cells = dict(metrics.attribution)
    key = next(k for k in cells if k.startswith("g."))
    cells[key] += 1.0
    leaky = dataclasses.replace(metrics, attribution=cells)
    assert workloads.outcome([leaky], {}, None)[1] == 1


def _wrappers_left():
    left = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in vars(module).items():
            if getattr(value, WRAPPED_MARK, False):
                left.append(f"{name}.{attr}")
            if inspect.isclass(value):
                for member, inner in vars(value).items():
                    if getattr(inner, WRAPPED_MARK, False):
                        left.append(f"{name}.{attr}.{member}")
    return left


def test_traced_run_is_byte_identical_and_leaves_no_wrapper(small_run):
    from repro.experiments import runner
    from repro.experiments.parallel import metrics_json_bytes

    config, metrics = small_run
    rec = layers.install()
    try:
        assert _wrappers_left()
        traced = runner.run_simulation(config)
    finally:
        rec.restore()
    assert metrics_json_bytes(traced) == metrics_json_bytes(metrics)
    assert _wrappers_left() == []

    out = layers.layer_metrics(rec, cache_bytes=0)
    assert set(out) == set(layers.PER_LAYER) - {"trace.overhead_ratio"}
    assert out["runner.runs"] == 1
    assert out["network.messages"] == metrics.messages_sent
    assert out["sim.events"] > 0 and out["grid.status_records"] > 0
    assert out["topology.dijkstra_calls"] >= 1


def test_unreadable_output_counts_every_simulation_as_failed(tmp_path):
    import iteration

    inputs = workloads.make_inputs("study-ci", 1)
    _, collect = workloads.prepare("study-ci", inputs, str(tmp_path))
    for key in ("ab01", "cd02"):
        entry = tmp_path / key[:2] / f"{key}.json"
        entry.parent.mkdir()
        entry.write_text('{"version": 1}')  # a cache entry without "metrics"
    attempted, failed, problems, digests = iteration.check_outputs(
        collect, None, None, str(tmp_path))
    assert (attempted, failed, digests) == (2, 2, {})
    assert "KeyError" in problems[0]

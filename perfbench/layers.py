"""Per-layer instrumentation for the traced run.

:func:`install` wraps the public functions of each simulator layer with
a :class:`~spans.SpanRecorder`; :func:`layer_metrics` turns the recorded
spans and counts into the per-layer metrics.  Layers are named after
the modules: ``runner`` (``experiments.runner``), ``topology``,
``network``, ``sim``, ``grid``, ``fluid``, ``workload``, ``core`` and
``engine`` (``experiments.parallel``).

Metrics ending in ``_s`` are self times in seconds; all others are exact
counts, identical on every run of the same inputs.
"""

from __future__ import annotations

from typing import Dict

from spans import SpanRecorder

__all__ = ["PER_LAYER", "install", "layer_metrics"]

#: per-layer metric name -> unit, in report order
PER_LAYER: Dict[str, str] = {
    "runner.build_s": "s",
    "runner.summarize_s": "s",
    "runner.run_s": "s",
    "runner.runs": "count",
    "topology.generate_s": "s",
    "topology.map_grid_s": "s",
    "topology.dijkstra_calls": "count",
    "topology.dijkstra_s": "s",
    "network.send_s": "s",
    "network.messages": "count",
    "network.route_sources": "count",
    "sim.events": "count",
    "sim.dispatch_s": "s",
    "grid.scheduler_handle_s": "s",
    "grid.estimator_handle_s": "s",
    "grid.resource_handle_s": "s",
    "grid.status_records": "count",
    "fluid.arm_s": "s",
    "fluid.flush_s": "s",
    "fluid.status_batches": "count",
    "fluid.modeled_updates": "count",
    "fluid.flushes": "count",
    "workload.generate_s": "s",
    "core.tuner_evaluations": "count",
    "core.procedure_s": "s",
    "core.sims_per_evaluation": "ratio",
    "engine.batch_s": "s",
    "engine.runs_executed": "count",
    "engine.config_key_s": "s",
    "engine.cache_put_s": "s",
    "engine.cache_bytes": "count",
    "trace.overhead_ratio": "ratio",
}

#: span name -> per-layer self-time metric
_SELF_TIME = {
    "run_simulation": "runner.run_s",
    "build_system": "runner.build_s",
    "summarize": "runner.summarize_s",
    "generate_topology": "topology.generate_s",
    "map_grid": "topology.map_grid_s",
    "single_source": "topology.dijkstra_s",
    "Network.send": "network.send_s",
    "Simulator.run": "sim.dispatch_s",
    "SchedulerBase.handle": "grid.scheduler_handle_s",
    "Estimator.handle": "grid.estimator_handle_s",
    "Resource.handle": "grid.resource_handle_s",
    "FluidStatusPlane.arm": "fluid.arm_s",
    "FluidStatusPlane._flush": "fluid.flush_s",
    "WorkloadGenerator.generate": "workload.generate_s",
    "ScalabilityProcedure.run": "core.procedure_s",
    "ExperimentEngine.run_many": "engine.batch_s",
    "config_key": "engine.config_key_s",
    "RunCache.put": "engine.cache_put_s",
}


def install() -> SpanRecorder:
    """Wrap every layer boundary and return the recorder.

    The recorder's :meth:`~spans.SpanRecorder.restore` undoes
    everything.  ``run_simulation`` bumps the recorder's run id, and at
    its end reads the per-run counters off the system ``build_system``
    returned (kernel events, messages, routing tables, fluid plane).
    """
    from repro.core.procedure import ScalabilityProcedure
    from repro.experiments import runner
    from repro.experiments.parallel import cache, engine, hashing
    from repro.fluid.plane import FluidStatusPlane
    from repro.grid.estimator import Estimator
    from repro.grid.resource import Resource
    from repro.grid.scheduler import SchedulerBase
    from repro.grid.status import StatusTable
    from repro.network.transport import Network
    from repro.sim.kernel import Simulator
    from repro.topology import generator, grid_map, paths
    from repro.workload.generator import WorkloadGenerator

    rec = SpanRecorder()
    slot: Dict = {}

    def begin_run(args):
        rec.run_id += 1
        return None

    def keep_system(args, system, token):
        slot["system"] = system

    def end_run(args, metrics, token):
        system = slot.pop("system")
        rec.count("runner.runs")
        rec.count("sim.events", system.sim.events_executed)
        rec.count("network.messages", system.network.messages_sent)
        rec.count("network.route_sources", system.network.router.cached_sources)
        if system.fluid is not None:
            stats = system.fluid.stats()
            rec.count("fluid.modeled_updates", int(stats["modeled_updates"]))
            rec.count("fluid.flushes", int(stats["flushes"]))

    def engine_before(args):
        return args[0].runs_executed

    def engine_after(args, results, before):
        rec.count("engine.runs_executed", args[0].runs_executed - before)

    def procedure_after(args, result, token):
        rec.count("core.tuner_evaluations", args[0].tuner.evaluations)

    rec.wrap(runner, "run_simulation", "run_simulation", before=begin_run, after=end_run)
    rec.wrap(runner, "build_system", "build_system", after=keep_system)
    rec.wrap(runner, "summarize", "summarize")
    rec.wrap(generator, "generate_topology", "generate_topology")
    rec.wrap(grid_map, "map_grid", "map_grid")
    rec.wrap(paths, "single_source", "single_source")
    rec.wrap(Network, "send", "Network.send")
    rec.wrap(Simulator, "run", "Simulator.run")
    rec.wrap(SchedulerBase, "handle", "SchedulerBase.handle")
    rec.wrap(Estimator, "handle", "Estimator.handle")
    rec.wrap(Resource, "handle", "Resource.handle")
    rec.wrap(StatusTable, "record", "grid.status_records", span=False)
    rec.wrap(FluidStatusPlane, "arm", "FluidStatusPlane.arm")
    rec.wrap(FluidStatusPlane, "_flush", "FluidStatusPlane._flush")
    rec.wrap(SchedulerBase, "fluid_status", "fluid.status_batches", span=False)
    rec.wrap(WorkloadGenerator, "generate", "WorkloadGenerator.generate")
    rec.wrap(ScalabilityProcedure, "run", "ScalabilityProcedure.run", after=procedure_after)
    rec.wrap(engine.ExperimentEngine, "run_many", "ExperimentEngine.run_many",
             before=engine_before, after=engine_after)
    rec.wrap(hashing, "config_key", "config_key")
    rec.wrap(cache.RunCache, "put", "RunCache.put")
    return rec


def layer_metrics(rec: SpanRecorder, cache_bytes: int) -> Dict[str, float]:
    """The per-layer metrics of a finished traced iteration.

    ``trace.overhead_ratio`` needs the untraced wall time too, so it is
    left for the caller.
    """
    own = rec.self_times()
    out: Dict[str, float] = {}
    for name, unit in PER_LAYER.items():
        out[name] = 0.0 if unit == "s" or unit == "ratio" else 0
    for span_name, metric in _SELF_TIME.items():
        out[metric] = own.get(span_name, 0.0)
    for name, value in rec.counts.items():
        if name in out:
            out[name] = int(value)
    out["topology.dijkstra_calls"] = rec.spans("single_source")
    out["engine.cache_bytes"] = int(cache_bytes)
    evaluations = out["core.tuner_evaluations"]
    out["core.sims_per_evaluation"] = (
        out["engine.runs_executed"] / evaluations if evaluations else 0.0
    )
    del out["trace.overhead_ratio"]
    return out

"""The shared Case-1 study driver: manifest keys name every plan.

Two studies whose runs differ must checkpoint under different manifest
keys, or the second silently overwrites the first.  The key carries the
lens's plan digest plus a tag for each side plan that changed the runs
(fluid traffic, a fault plan beside a non-fault lens); inert side plans
add nothing, so keys written before the tags existed keep their bytes
(``test_study_pins.py`` pins them).
"""

import json

from helpers import TINY_PROFILE
from repro.experiments.faultstudy import run_fault_study
from repro.experiments.tracestudy import run_trace_study
from repro.faults import FaultPlan
from repro.fluid import FluidPlan
from repro.telemetry.tracing import TracePlan

CHURN = FaultPlan(resource_mttf=500.0, resource_mttr=60.0)


def manifest_keys(path):
    return sorted(json.loads(path.read_text())["completed"])


def test_trace_study_with_and_without_fault_plan_keeps_two_keys(tmp_path):
    manifest = tmp_path / "trace.json"
    plan = TracePlan(sample=1.0, charge_rate=0.01)
    for faults in (None, CHURN):
        run_trace_study(
            profile=TINY_PROFILE,
            rms=["LOWEST"],
            plan=plan,
            faults=faults,
            manifest_path=manifest,
        )
    plain, churned = manifest_keys(manifest)
    assert ":faults" not in plain and ":faults" in churned


def test_fault_study_discrete_and_fluid_keeps_two_keys(tmp_path):
    manifest = tmp_path / "faults.json"
    for fluid in (FluidPlan(), FluidPlan(mode="fluid")):
        run_fault_study(
            profile=TINY_PROFILE,
            rms=["LOWEST"],
            plan=CHURN,
            fluid=fluid,
            manifest_path=manifest,
        )
    keys = manifest_keys(manifest)
    assert len(keys) == 2
    assert sum(":fluidfluid-fan0:" in key for key in keys) == 1


def test_inert_side_plans_keep_the_key(tmp_path):
    keys = []
    for fluid, faults in ((None, None), (FluidPlan(), FaultPlan())):
        manifest = tmp_path / f"trace{len(keys)}.json"
        run_trace_study(
            profile=TINY_PROFILE,
            rms=["LOWEST"],
            plan=TracePlan(sample=1.0, charge_rate=0.01),
            fluid=fluid,
            faults=faults,
            manifest_path=manifest,
        )
        keys += manifest_keys(manifest)
    assert keys[0] == keys[1]

"""Byte-identity pins for the three Case-1 studies.

``repro faults``, ``repro series`` and ``repro trace`` share one
(design x k) grid and differ only in the plan each config carries and
the payload each point reports.  Each digest below is the SHA-256 of
one deliverable of a miniature study: the rendered report, the study
manifest file, and (for series and trace) the CSV, JSONL and
Prometheus exports.  A refactor of the study drivers must reproduce
all of them bit for bit.

A changed pin means changed output.  Re-pin only for a deliberate
change to what a study reports, never for a refactor.
"""

import hashlib
import io

import pytest

from helpers import TINY_PROFILE as TINY
from repro.experiments import faultstudy, seriesstudy, tracestudy
from repro.faults import FaultPlan
from repro.telemetry.timeseries import MonitorPlan
from repro.telemetry.tracing import TracePlan

RMS = ["LOWEST", "CENTRAL"]

PINS = {
    "faults.report": (
        "f523863f0fab17a1e5ce1f4cc18df703"
        "0f4c10de2a3dc7de78746c923481c1b1"
    ),
    "faults.manifest": (
        "887b2317df4d2be523aa8f5574a73434"
        "548dc5397de4cdb03074fddc7c2a28f1"
    ),
    "series.report": (
        "bc1788b128268f5bf7bb8340a35a5cb5"
        "6fffa575dba976c242113531af962563"
    ),
    "series.manifest": (
        "fc64b94353fe290b304f0fad2d1a23b2"
        "78327ab13ee4e4e68faa2309bc268acb"
    ),
    "series.csv": (
        "700a692b776fafb94213f8b403248085"
        "407ea24375ac033338a80c09b37fbbfb"
    ),
    "series.jsonl": (
        "f6be7a95a45dfdc42d1aa3719fff72e5"
        "f4fd81af02024d48f87cdd12143c6b31"
    ),
    "series.prom": (
        "94e4e66828ed04953b12d876e9ad7564"
        "994c840ecc2af04dc1ddfc832c28ebce"
    ),
    "trace.report": (
        "0b5deec9b23bf28935de75378db49835"
        "de63efb242972b90c6e024cf149180fe"
    ),
    "trace.manifest": (
        "812f54aca7ab2ac81ce99e118c5c6e83"
        "e9ecd95b74b19a66d4294f278a41a495"
    ),
    "trace.csv": (
        "c283569a36b8c74ec9636a71f7c677fd"
        "7c2d2cb191f22396f16b718a79f8e822"
    ),
    "trace.jsonl": (
        "8ccd674da82ed52a12c172b5e4fb69aa"
        "fae3462e9608a249c03052b4fa9f447f"
    ),
    "trace.prom": (
        "df16ab2cae549364180a6cea16b5bd25"
        "3dd35f7f30822ef34e1427ba8f508be5"
    ),
}


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _exports(module, result):
    out = {}
    for name, export in (
        ("csv", module.export_csv),
        ("jsonl", module.export_jsonl),
        ("prom", module.export_prometheus),
    ):
        fh = io.StringIO(newline="")
        export(result, fh)
        out[name] = _sha(fh.getvalue())
    return out


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    root = tmp_path_factory.mktemp("study-pins")
    out = {}

    faults = faultstudy.run_fault_study(
        profile=TINY,
        rms=RMS,
        plan=FaultPlan(resource_mttf=500.0, resource_mttr=60.0),
        manifest_path=root / "faults.json",
    )
    out["faults.report"] = _sha(faultstudy.fault_report(faults))
    out["faults.manifest"] = _sha((root / "faults.json").read_bytes())

    series = seriesstudy.run_series_study(
        profile=TINY,
        rms=RMS,
        plan=MonitorPlan(series=True, probe_interval=60.0, charge_rate=0.01),
        sweep_intervals=[120.0],
        manifest_path=root / "series.json",
    )
    out["series.report"] = _sha(
        seriesstudy.series_report(series) + "\n" + seriesstudy.sweep_report(series)
    )
    out["series.manifest"] = _sha((root / "series.json").read_bytes())
    for name, digest in _exports(seriesstudy, series).items():
        out[f"series.{name}"] = digest

    trace = tracestudy.run_trace_study(
        profile=TINY,
        rms=RMS,
        plan=TracePlan(sample=1.0, charge_rate=0.01),
        manifest_path=root / "trace.json",
    )
    out["trace.report"] = _sha(tracestudy.trace_report(trace))
    out["trace.manifest"] = _sha((root / "trace.json").read_bytes())
    for name, digest in _exports(tracestudy, trace).items():
        out[f"trace.{name}"] = digest
    return out


@pytest.mark.parametrize("name", sorted(PINS))
def test_study_output_is_pinned(digests, name):
    assert digests[name] == PINS[name]

"""StudySpec unit tests: validation, wire round-trip, science digest.

The spec is the single description of a study shared by the Python API,
the CLI, and the fabric wire protocol — so its invariants (frozen,
validated, exact JSON inverses, digest that ignores execution
mechanics) are what every other layer leans on.
"""

import dataclasses

import pytest

from repro.experiments.cliargs import spec_from_args, study_parent
from repro.experiments.spec import (
    EXECUTION_FIELDS,
    KINDS,
    SPEC_VERSION,
    StudySpec,
    spec_digest,
    spec_from_jsonable,
    spec_to_jsonable,
)
from repro.faults import FaultPlan


class TestValidation:
    def test_defaults_are_a_valid_figure_spec(self):
        spec = StudySpec()
        assert spec.kind == "figure"
        assert spec.figure_number == 2
        assert spec.rms_list is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown study kind"):
            StudySpec(kind="sweep")

    def test_figure_range_enforced(self):
        with pytest.raises(ValueError, match="2-7"):
            StudySpec(kind="figure", figure=9)
        for n in range(2, 8):
            assert StudySpec(kind="figure", figure=n).figure_number == n

    def test_figure_number_meaningless_elsewhere(self):
        with pytest.raises(ValueError, match="meaningless"):
            StudySpec(kind="compare", figure=3)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            StudySpec().kind = "compare"

    def test_rms_normalized_to_tuple(self):
        spec = StudySpec(kind="compare", rms=["LOWEST", "CENTRAL"])
        assert spec.rms == ("LOWEST", "CENTRAL")
        assert spec.rms_list == ["LOWEST", "CENTRAL"]

    def test_faults_must_be_a_plan(self):
        with pytest.raises(TypeError):
            StudySpec(kind="faults", faults={"resource_mttf": 100})

    def test_replace_revalidates(self):
        spec = StudySpec(kind="figure", figure=4)
        assert spec.replace(figure=5).figure == 5
        with pytest.raises(ValueError):
            spec.replace(figure=11)


class TestWireFormat:
    def roundtrip(self, spec):
        payload = spec_to_jsonable(spec)
        return spec_from_jsonable(payload)

    def test_roundtrip_identity_plain(self):
        spec = StudySpec(kind="series", probe_intervals=(30.0, 60.0), jobs=4)
        assert self.roundtrip(spec) == spec

    def test_roundtrip_identity_with_fault_plan(self):
        plan = FaultPlan(resource_mttf=900.0, resource_mttr=90.0)
        spec = StudySpec(kind="faults", faults=plan, mttf=900.0)
        assert self.roundtrip(spec) == spec

    def test_payload_is_plain_json_types(self):
        import json

        spec = StudySpec(kind="trace", rms=("LOWEST",), trace_sample=0.5)
        payload = spec_to_jsonable(spec)
        assert payload["version"] == SPEC_VERSION
        assert payload["rms"] == ["LOWEST"]
        json.dumps(payload)  # must not raise

    def test_unknown_keys_rejected(self):
        payload = spec_to_jsonable(StudySpec())
        payload["jobz"] = 4
        with pytest.raises(ValueError, match="jobz"):
            spec_from_jsonable(payload)

    def test_version_mismatch_rejected(self):
        payload = spec_to_jsonable(StudySpec())
        payload["version"] = SPEC_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            spec_from_jsonable(payload)

    def test_every_kind_roundtrips(self):
        for kind in KINDS:
            spec = StudySpec(kind=kind)
            assert self.roundtrip(spec) == spec


class TestDigest:
    def test_execution_fields_do_not_change_the_digest(self):
        base = StudySpec(kind="compare", seed=11)
        variants = [
            base.replace(jobs=8),
            base.replace(cache_dir="/tmp/elsewhere"),
            base.replace(no_cache=True),
            base.replace(resume=True),
            base.replace(precision=6),
        ]
        for variant in variants:
            assert spec_digest(variant) == spec_digest(base)

    def test_science_fields_change_the_digest(self):
        base = StudySpec(kind="compare", seed=11)
        assert spec_digest(base.replace(seed=12)) != spec_digest(base)
        assert spec_digest(base.replace(rms=("LOWEST",))) != spec_digest(base)

    def test_execution_fields_exist_on_the_dataclass(self):
        names = {f.name for f in dataclasses.fields(StudySpec)}
        assert EXECUTION_FIELDS <= names


class TestSpecFromArgs:
    def test_namespace_round_trip_minimal(self):
        # a namespace with only the study parent's attrs still specs out
        args = study_parent().parse_args(["--seed", "3", "--rms", "LOWEST, SI"])
        spec = spec_from_args("compare", args)
        assert spec.kind == "compare"
        assert spec.seed == 3
        assert spec.rms == ("LOWEST", "SI")

    def test_overrides_win(self):
        args = study_parent().parse_args([])
        plan = FaultPlan(resource_mttf=500.0, resource_mttr=50.0)
        spec = spec_from_args("faults", args, faults=plan)
        assert spec.faults is plan

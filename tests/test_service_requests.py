"""Unit tests for admission request/decision codecs and JSONL IO."""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.io import system_to_dict
from repro.service.engine import compute_decision
from repro.service.requests import (
    AdmissionRequest,
    decision_from_dict,
    decision_to_dict,
    load_decisions_jsonl,
    load_requests_jsonl,
    request_from_dict,
    request_metadata,
    request_to_dict,
    save_decisions_jsonl,
)


class TestRequestCodec:
    def test_round_trip(self, small_system):
        request = AdmissionRequest(
            system=small_system,
            protocols=("DS", "RG"),
            jitter_sensitive=True,
            wcets_trusted=False,
            sa_ds_max_iterations=50,
            request_id="r-9",
        )
        assert request_from_dict(request_to_dict(request)) == request

    def test_accepts_bare_system_document(self, small_system):
        request = request_from_dict(system_to_dict(small_system))
        assert request.system == small_system
        assert request.protocols == ("DS", "PM", "MPM", "RG")

    def test_rejects_unknown_format(self):
        with pytest.raises(ConfigurationError):
            request_from_dict({"format": "nope"})

    def test_protocols_normalized(self, small_system):
        request = AdmissionRequest(
            system=small_system, protocols=("rg", "ds", "RG")
        )
        assert request.protocols == ("DS", "RG")


class TestRequestMetadata:
    """``request_metadata`` reads what the decoder decodes."""

    def test_request_document(self, small_system):
        document = request_to_dict(
            AdmissionRequest(system=small_system, request_id="r", tenant="t")
        )
        document["request_id"] = 7  # coerced, as the decoder coerces it
        assert request_metadata(document) == ("7", "t")
        decoded = request_from_dict(document)
        assert (decoded.request_id, decoded.tenant) == ("7", "t")
        del document["request_id"], document["tenant"]
        assert request_metadata(document) == ("", "")

    def test_bare_system_document_carries_none(self, small_system):
        document = system_to_dict(small_system)
        document.update(request_id="abc", tenant="t1")
        decoded = request_from_dict(document)
        assert request_metadata(document) == ("", "")
        assert (decoded.request_id, decoded.tenant) == ("", "")


class TestDecisionCodec:
    def test_round_trip(self, small_system):
        decision = compute_decision(AdmissionRequest(system=small_system))
        assert decision_from_dict(decision_to_dict(decision)) == decision

    def test_round_trip_with_infinite_bounds(self, example2):
        # Example 2's SA/DS bound for T3 is finite, so force infinity via
        # a tiny iteration budget on a system that needs more.
        decision = compute_decision(
            AdmissionRequest(system=example2, sa_ds_max_iterations=1)
        )
        again = decision_from_dict(decision_to_dict(decision))
        assert again == decision
        assert json.dumps(decision_to_dict(decision))  # strict JSON safe

    def test_rejects_unknown_format(self):
        with pytest.raises(ConfigurationError):
            decision_from_dict({"format": "nope"})

    def test_describe_admit_and_reject(self, two_stage_pipeline, example2):
        yes = compute_decision(AdmissionRequest(system=two_stage_pipeline))
        no = compute_decision(AdmissionRequest(system=example2))
        assert "ADMIT under DS" in yes.describe()
        assert "REJECT" in no.describe()


class TestJsonl:
    def test_request_stream_round_trip(self, tmp_path, small_system):
        path = tmp_path / "requests.jsonl"
        documents = [
            json.dumps(request_to_dict(AdmissionRequest(
                system=small_system, request_id="full"
            ))),
            json.dumps(system_to_dict(small_system)),
            "",  # blank lines are skipped
        ]
        path.write_text("\n".join(documents) + "\n")
        requests = load_requests_jsonl(path)
        assert len(requests) == 2
        assert requests[0].request_id == "full"
        assert requests[1].system == small_system

    def test_bad_line_reports_line_number(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ConfigurationError, match=":1:"):
            load_requests_jsonl(path)

    def test_decisions_round_trip(self, tmp_path, small_system, example2):
        decisions = [
            compute_decision(AdmissionRequest(system=small_system)),
            compute_decision(AdmissionRequest(system=example2)),
        ]
        path = tmp_path / "decisions.jsonl"
        save_decisions_jsonl(decisions, path)
        assert load_decisions_jsonl(path) == decisions

    def test_empty_decisions_file(self, tmp_path):
        path = tmp_path / "decisions.jsonl"
        save_decisions_jsonl([], path)
        assert load_decisions_jsonl(path) == []


class TestClockFields:
    def test_round_trip_with_clock_fields(self, small_system):
        request = AdmissionRequest(
            system=small_system,
            synchronized_clocks=False,
            clock_rate_bound=1e-4,
            clock_jump_bound=2.5,
        )
        assert request_from_dict(request_to_dict(request)) == request

    def test_old_format_defaults_to_synchronized(self, small_system):
        # A pre-clock request document carries none of the three fields;
        # decoding must behave exactly as the old service did.
        document = request_to_dict(AdmissionRequest(system=small_system))
        for field in (
            "synchronized_clocks",
            "clock_rate_bound",
            "clock_jump_bound",
        ):
            document.pop(field, None)
        request = request_from_dict(document)
        assert request.synchronized_clocks is True
        assert request.clock_rate_bound == 0.0
        assert request.clock_jump_bound == 0.0

    def test_rate_bound_validated(self, small_system):
        for bad in (1.0, -0.1, math.inf, math.nan):
            with pytest.raises(ConfigurationError):
                AdmissionRequest(system=small_system, clock_rate_bound=bad)

    def test_jump_bound_validated(self, small_system):
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(ConfigurationError):
                AdmissionRequest(system=small_system, clock_jump_bound=bad)


class TestStrictFlags:
    FLAGS = (
        "jitter_sensitive",
        "wcets_trusted",
        "clock_sync_available",
        "strictly_periodic_arrivals",
        "synchronized_clocks",
        "shared_resources",
    )

    @pytest.mark.parametrize("flag", FLAGS)
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_non_boolean_flag_rejected(self, small_system, flag, value):
        document = request_to_dict(AdmissionRequest(system=small_system))
        document[flag] = value
        with pytest.raises(ValueError, match=flag):
            request_from_dict(document)

    @pytest.mark.parametrize("flag", FLAGS)
    def test_boolean_flag_decoded_as_given(self, small_system, flag):
        for value in (True, False):
            document = request_to_dict(AdmissionRequest(system=small_system))
            document[flag] = value
            assert getattr(request_from_dict(document), flag) is value

    def test_jsonl_loader_reports_the_line(self, tmp_path, small_system):
        document = request_to_dict(AdmissionRequest(system=small_system))
        document["synchronized_clocks"] = "false"
        path = tmp_path / "requests.jsonl"
        path.write_text(json.dumps(document) + "\n")
        with pytest.raises(ConfigurationError, match=":1: .*synchronized"):
            load_requests_jsonl(path)


class TestValidation:
    def test_sa_ds_iteration_budget_validated(self, small_system):
        with pytest.raises(ConfigurationError):
            AdmissionRequest(system=small_system, sa_ds_max_iterations=0)

    def test_ratio_survives_strict_json(self, example2):
        decision = compute_decision(AdmissionRequest(system=example2))
        encoded = json.dumps(decision_to_dict(decision), allow_nan=False)
        rebuilt = decision_from_dict(json.loads(encoded))
        assert rebuilt.worst_bound_ratio == decision.worst_bound_ratio
        assert math.isfinite(rebuilt.worst_bound_ratio) or math.isinf(
            rebuilt.worst_bound_ratio
        )

class TestMalformedDocuments:
    """Decoding fails with the codec's errors, never AttributeError."""

    BAD_LINES = [
        "5",
        "[1]",
        '"text"',
        "null",
        '{"format": "repro-admission-request-v1", "system": 5}',
        '{"format": "repro-admission-request-v1", "system": [1]}',
    ]

    @pytest.mark.parametrize("line", BAD_LINES)
    def test_non_object_rejected(self, line):
        with pytest.raises(ConfigurationError, match="JSON object"):
            request_from_dict(json.loads(line))

    @pytest.mark.parametrize("protocols", [[5], ["DS", None], [["DS"]]])
    def test_non_string_protocol_rejected(self, small_system, protocols):
        document = request_to_dict(AdmissionRequest(system=small_system))
        document["protocols"] = protocols
        with pytest.raises(ConfigurationError, match="must be strings"):
            request_from_dict(document)

    @pytest.mark.parametrize("line", BAD_LINES)
    def test_jsonl_loader_reports_the_line(self, tmp_path, small_system, line):
        good = json.dumps(
            request_to_dict(AdmissionRequest(system=small_system))
        )
        path = tmp_path / "requests.jsonl"
        path.write_text(f"{good}\n{line}\n")
        with pytest.raises(ConfigurationError, match=":2: bad admission"):
            load_requests_jsonl(path)

    def test_jsonl_loader_reports_invalid_models(self, tmp_path, small_system):
        document = request_to_dict(AdmissionRequest(system=small_system))
        document["system"]["tasks"][0]["period"] = -1.0
        path = tmp_path / "requests.jsonl"
        path.write_text(json.dumps(document) + "\n")
        with pytest.raises(ConfigurationError, match=":1: .*period"):
            load_requests_jsonl(path)

"""Unit tests for the admission engine and its cache integration."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.service.cache import DecisionCache
from repro.service.engine import AdmissionController, compute_decision
from repro.service.hashing import request_key
from repro.service.requests import AdmissionRequest


class TestComputeDecision:
    def test_example_two_rejected_everywhere(self, example2):
        # T2's EER bound (7) exceeds its deadline (6) even under SA/PM,
        # so no protocol can certify the paper's Example 2 outright.
        decision = compute_decision(AdmissionRequest(system=example2))
        assert not decision.admitted
        assert decision.protocol is None
        assert decision.schedulable == {
            "DS": False, "PM": False, "MPM": False, "RG": False
        }
        assert "no requested protocol" in decision.rationale

    def test_pipeline_admitted_under_ds(self, two_stage_pipeline):
        decision = compute_decision(
            AdmissionRequest(system=two_stage_pipeline)
        )
        assert decision.admitted
        assert decision.protocol == "DS"
        assert decision.schedulable == {
            "DS": True, "PM": True, "MPM": True, "RG": True
        }
        assert decision.task_bounds["SA/PM"] == (5.0,)
        assert decision.task_bounds["SA/DS"] == (5.0,)

    def test_jitter_sensitive_prefers_mpm(self, two_stage_pipeline):
        decision = compute_decision(
            AdmissionRequest(
                system=two_stage_pipeline, jitter_sensitive=True
            )
        )
        assert decision.protocol == "MPM"

    def test_fallback_when_advice_not_requested(self, two_stage_pipeline):
        # Advisor would say DS; with DS not on the menu, the strongest
        # certified requested protocol (RG) is deployed instead.
        decision = compute_decision(
            AdmissionRequest(
                system=two_stage_pipeline, protocols=("PM", "RG")
            )
        )
        assert decision.admitted
        assert decision.protocol == "RG"
        assert "falling back to RG" in decision.rationale

    def test_decision_echoes_request_metadata(self, two_stage_pipeline):
        request = AdmissionRequest(
            system=two_stage_pipeline, request_id="abc-1"
        )
        decision = compute_decision(request)
        assert decision.request_id == "abc-1"
        assert decision.system_name == "pipeline"
        assert decision.key == request_key(request)

    def test_determinism(self, small_system):
        request = AdmissionRequest(system=small_system)
        assert compute_decision(request) == compute_decision(request)

    def test_unsynchronized_clocks_exclude_pm(self, two_stage_pipeline):
        decision = compute_decision(
            AdmissionRequest(
                system=two_stage_pipeline, synchronized_clocks=False
            )
        )
        assert decision.admitted
        assert decision.schedulable["PM"] is False
        # The duration-measuring protocols are untouched by the veto.
        assert decision.schedulable["MPM"] is True
        assert decision.schedulable["RG"] is True
        assert decision.schedulable["DS"] is True

    def test_skew_envelope_certifies_via_skewed_bounds(
        self, two_stage_pipeline
    ):
        decision = compute_decision(
            AdmissionRequest(
                system=two_stage_pipeline,
                clock_rate_bound=1e-4,
                clock_jump_bound=0.1,
            )
        )
        # ε-synchronized is not synchronized enough for PM's absolute
        # phases; MPM/RG re-certify against the inflated bounds, and DS
        # (no timers) is unaffected.
        assert decision.schedulable["PM"] is False
        assert decision.schedulable["MPM"] is True
        assert decision.schedulable["RG"] is True
        assert decision.schedulable["DS"] is True
        assert "SA/PM-skew" in decision.task_bounds
        skewed = decision.task_bounds["SA/PM-skew"]
        plain = decision.task_bounds["SA/PM"]
        assert all(s >= p for s, p in zip(skewed, plain))

    def test_no_envelope_means_no_skewed_bounds(self, two_stage_pipeline):
        decision = compute_decision(
            AdmissionRequest(system=two_stage_pipeline)
        )
        assert "SA/PM-skew" not in decision.task_bounds
        assert decision.schedulable["PM"] is True

    def test_unknown_protocol_rejected(self, two_stage_pipeline):
        with pytest.raises(ConfigurationError):
            AdmissionRequest(system=two_stage_pipeline, protocols=("XX",))

    def test_empty_protocols_rejected(self, two_stage_pipeline):
        with pytest.raises(ConfigurationError):
            AdmissionRequest(system=two_stage_pipeline, protocols=())


class TestAdmissionController:
    def test_cached_equals_uncached(self, small_system):
        request = AdmissionRequest(system=small_system)
        controller = AdmissionController()
        uncached = AdmissionController(cache_backend=None)
        first = controller.admit(request)
        second = controller.admit(request)  # served from cache
        assert first == second == uncached.admit(request)
        assert controller.cache.stats().hits == 1
        assert uncached.cache is None

    def test_cache_hit_echoes_new_request_id(self, small_system):
        controller = AdmissionController()
        controller.admit(
            AdmissionRequest(system=small_system, request_id="first")
        )
        hit = controller.admit(
            AdmissionRequest(system=small_system, request_id="second")
        )
        assert hit.request_id == "second"

    def test_metrics_account_hits_and_misses(self, small_system):
        controller = AdmissionController()
        request = AdmissionRequest(system=small_system)
        controller.admit(request)
        controller.admit(request)
        snap = controller.metrics.snapshot()
        assert snap["requests"] == 2
        assert snap["cache_hits"] == 1
        assert snap["cache_misses"] == 1
        assert snap["latency_p50"] >= 0.0

    def test_admit_system_shorthand(self, two_stage_pipeline):
        controller = AdmissionController()
        decision = controller.admit_system(
            two_stage_pipeline, protocols=("RG",)
        )
        assert decision.admitted and decision.protocol == "RG"

    def test_shared_cache_across_controllers(self, small_system):
        cache = DecisionCache()
        a = AdmissionController(cache=cache)
        b = AdmissionController(cache=cache)
        a.admit(AdmissionRequest(system=small_system))
        b.admit(AdmissionRequest(system=small_system))
        assert cache.stats().hits == 1

    def test_describe_mentions_cache_state(self, small_system):
        controller = AdmissionController()
        controller.admit(AdmissionRequest(system=small_system))
        text = controller.describe()
        assert "admissions: 1 requests" in text
        assert "entries" in text
        assert "disabled" in AdmissionController(
            cache_backend=None
        ).describe()

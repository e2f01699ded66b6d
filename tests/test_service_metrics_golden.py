"""Golden ``ServiceMetrics`` output: every counter, in order, and the text.

The snapshot keys, their order and values, and the ``describe()`` text
are what ``--stats``, the loadgen report and dashboards read, so they
are pinned verbatim here.  The counters are set through ``count()``;
where it is absent, through the per-counter ``record_*`` methods it
replaced, so the same pins check both implementations.
"""

from __future__ import annotations

from repro.service.metrics import ServiceMetrics

#: (admitted, cache_hit, region_hit, latency) of the served admissions.
_SERVED = (
    (True, False, False, 0.0042),
    (False, True, False, 0.0015),
    (True, True, False, 0.0123),
    (True, False, True, 0.0007),
    (False, False, False, 0.0031),
)

#: A distinct non-zero increment for every other counter.
_INCREMENTS = {
    "timeouts": 1,
    "retries": 2,
    "degraded": 3,
    "shed": 4,
    "coalesced": 5,
    "pool_rebuilds": 6,
    "region_hits": 7,
    "region_misses": 8,
    "region_fallbacks": 9,
    "region_builds": 10,
    "region_probes": 11,
    "records_salvaged": 12,
    "records_dropped": 13,
    "integrity_failures": 14,
    "breaker_opens": 15,
    "breaker_half_opens": 16,
    "breaker_restores": 17,
    "rerouted": 18,
    "drain_flushed": 19,
    "drain_shed": 20,
}

#: Counter -> the ``record_<suffix>()`` that adds one to it alone.
_UNIT_RECORDERS = {
    "timeouts": "timeout",
    "retries": "retry",
    "degraded": "degraded",
    "shed": "shed",
    "coalesced": "coalesced",
    "pool_rebuilds": "pool_rebuild",
    "region_hits": "region_hit",
    "region_misses": "region_miss",
    "region_fallbacks": "region_fallback",
    "breaker_opens": "breaker_open",
    "breaker_half_opens": "breaker_half_open",
    "breaker_restores": "breaker_restore",
    "rerouted": "reroute",
}


def _loaded() -> ServiceMetrics:
    metrics = ServiceMetrics()
    for admitted, cache_hit, region_hit, latency in _SERVED:
        metrics.record(
            admitted=admitted,
            cache_hit=cache_hit,
            region_hit=region_hit,
            latency=latency,
        )
    if hasattr(metrics, "count"):
        metrics.count(**_INCREMENTS)
        return metrics
    for name, suffix in _UNIT_RECORDERS.items():
        for _ in range(_INCREMENTS[name]):
            getattr(metrics, f"record_{suffix}")()
    metrics.record_region_build(probes=_INCREMENTS["region_probes"])
    for _ in range(_INCREMENTS["region_builds"] - 1):
        metrics.record_region_build()
    metrics.record_recovery(
        salvaged=_INCREMENTS["records_salvaged"],
        dropped=_INCREMENTS["records_dropped"],
    )
    metrics.record_integrity_failure(_INCREMENTS["integrity_failures"])
    metrics.record_drain(
        flushed=_INCREMENTS["drain_flushed"], shed=_INCREMENTS["drain_shed"]
    )
    return metrics


def test_snapshot_items_in_order():
    assert list(_loaded().snapshot().items()) == [
        ("requests", 5),
        ("cache_hits", 2),
        ("cache_misses", 2),
        ("admitted", 3),
        ("rejected", 2),
        *_INCREMENTS.items(),
        ("hit_rate", 0.4),
        ("latency_p50", 0.0015),
        ("latency_p90", 0.0042),
        ("latency_p99", 0.0123),
        ("latency_p999", 0.0123),
        ("latency_max", 0.0123),
        ("latency_mean", 0.00436),
    ]


def test_describe_text():
    assert _loaded().describe() == (
        "admissions: 5 requests, 3 admitted, 2 rejected\n"
        "cache: 2 hits, 2 misses (rate 40.0%)\n"
        "latency: p50 1.500 ms, p90 4.200 ms, p99 12.300 ms, "
        "p999 12.300 ms, max 12.300 ms\n"
        "robustness: 1 timeout(s), 2 retry(ies), 3 degraded decision(s), "
        "6 pool rebuild(s)\n"
        "backpressure: 4 shed, 5 coalesced\n"
        "regions: 7 hits, 8 misses, 9 fallbacks, 10 builds (11 probes)\n"
        "durability: 12 record(s) salvaged, 13 dropped, "
        "14 integrity failure(s)\n"
        "supervision: 15 breaker open(s), 16 half-open probe window(s), "
        "17 restore(s), 18 rerouted\n"
        "drain: 19 flushed, 20 shed"
    )


def test_all_zero_has_no_optional_line():
    metrics = ServiceMetrics()
    assert list(metrics.snapshot().items()) == [
        ("requests", 0),
        ("cache_hits", 0),
        ("cache_misses", 0),
        ("admitted", 0),
        ("rejected", 0),
        *((name, 0) for name in _INCREMENTS),
        ("hit_rate", 0.0),
        ("latency_p50", 0.0),
        ("latency_p90", 0.0),
        ("latency_p99", 0.0),
        ("latency_p999", 0.0),
        ("latency_max", 0.0),
        ("latency_mean", 0.0),
    ]
    assert metrics.describe() == (
        "admissions: 0 requests, 0 admitted, 0 rejected\n"
        "cache: 0 hits, 0 misses (rate 0.0%)\n"
        "latency: p50 0.000 ms, p90 0.000 ms, p99 0.000 ms, "
        "p999 0.000 ms, max 0.000 ms"
    )

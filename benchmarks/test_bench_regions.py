"""Region-tier economics: hit-path speedup and build amortization.

The ISSUE-9 acceptance benchmark.  Shape-repeat traffic -- same task-set
topology, drifting execution times -- defeats the decision cache (every
request is a new content key) but is exactly what the region tier
serves: after one build, every in-box request is a hash, a store lookup
and a componentwise compare.  The floor here is a 10x speedup over
direct analysis on that traffic; the second test reports the break-even
point where the build's probe cost has amortized.
"""

from __future__ import annotations

import time

from repro.regions.shape import execution_vector, system_at
from repro.regions.tier import RegionTier
from repro.service import AdmissionController, AdmissionRequest
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_system

from conftest import save_and_print

CONFIG = WorkloadConfig(
    subtasks_per_task=3, utilization=0.5, tasks=6, processors=3
)
STREAM = 60


def _shape_repeat_stream(n: int = STREAM) -> list[AdmissionRequest]:
    """One shape, n distinct execution vectors (all below the seed's)."""
    base = generate_system(CONFIG, seed=11)
    e0 = execution_vector(base)
    requests = []
    for i in range(n):
        scale = 0.7 + 0.3 * i / n
        requests.append(
            AdmissionRequest(
                system=system_at(base, tuple(scale * e for e in e0)),
                request_id=f"s{i}",
            )
        )
    return requests


def test_region_hit_path_at_least_10x_faster():
    requests = _shape_repeat_stream()

    direct = AdmissionController()  # decision cache on, but every key new
    started = time.perf_counter()
    computed = [direct.admit(r) for r in requests]
    direct_seconds = time.perf_counter() - started
    assert direct.metrics.snapshot()["cache_hits"] == 0

    regional = AdmissionController(
        region_backend="memory", region_build_threshold=1
    )
    regional.admit(AdmissionRequest(system=generate_system(CONFIG, seed=11)))
    started = time.perf_counter()
    served = [regional.admit(r) for r in requests]
    region_seconds = time.perf_counter() - started
    snapshot = regional.metrics.snapshot()
    assert snapshot["region_hits"] == STREAM, "stream left the region"

    assert [d.admitted for d in served] == [d.admitted for d in computed]
    speedup = direct_seconds / region_seconds
    save_and_print(
        "region_hit_speedup",
        "\n".join(
            [
                f"region tier, {STREAM}-request shape-repeat stream "
                f"{CONFIG.label}:",
                (
                    f"  direct analysis: {direct_seconds:.4f} s "
                    f"({STREAM / direct_seconds:.0f} admissions/s)"
                ),
                (
                    f"  region hits:     {region_seconds:.4f} s "
                    f"({STREAM / region_seconds:.0f} admissions/s)"
                ),
                f"  speedup: {speedup:.0f}x",
            ]
        ),
    )
    assert speedup >= 10.0, (
        f"region hits only {speedup:.1f}x faster "
        f"(direct {direct_seconds:.4f}s, region {region_seconds:.4f}s)"
    )


def test_build_cost_amortizes():
    """Report the break-even admission count for one region build."""
    prime = AdmissionRequest(system=generate_system(CONFIG, seed=11))
    probe_request = _shape_repeat_stream(1)[0]

    started = time.perf_counter()
    tier = RegionTier(build_threshold=1)
    region = tier.build(prime)
    build_seconds = time.perf_counter() - started

    direct = AdmissionController(cache_backend=None)
    started = time.perf_counter()
    for _ in range(20):
        direct.admit(probe_request)
    miss_seconds = (time.perf_counter() - started) / 20

    regional = AdmissionController(region_tier=tier)
    started = time.perf_counter()
    for _ in range(200):
        hit = regional.admit(probe_request)
    hit_seconds = (time.perf_counter() - started) / 200
    assert hit.margins is not None

    saved_per_hit = miss_seconds - hit_seconds
    assert saved_per_hit > 0, "region hit is not cheaper than a miss"
    break_even = build_seconds / saved_per_hit
    save_and_print(
        "region_amortization",
        "\n".join(
            [
                f"region build amortization {CONFIG.label}:",
                (
                    f"  build: {build_seconds * 1e3:.2f} ms "
                    f"({region.probes} probes)"
                ),
                f"  direct decision: {miss_seconds * 1e6:.0f} us",
                f"  region hit:      {hit_seconds * 1e6:.0f} us",
                (
                    f"  break-even after {break_even:.1f} repeat-shape "
                    f"admissions"
                ),
            ]
        ),
    )
    # A build costs a bounded number of direct analyses, so it must pay
    # for itself within a few hundred repeats at worst.
    assert break_even < 10 * region.probes


def test_region_hit_latency(benchmark):
    """Steady-state hit path: shape hash + store lookup + compare."""
    tier = RegionTier(build_threshold=1)
    tier.build(AdmissionRequest(system=generate_system(CONFIG, seed=11)))
    controller = AdmissionController(region_tier=tier)
    request = _shape_repeat_stream(1)[0]
    decision = benchmark(lambda: controller.admit(request))
    assert decision.margins is not None

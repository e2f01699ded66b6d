"""Pieces shared by the workloads: host-speed probe, windows, results.

The host this benchmark was defined on (a 2-vCPU VM on a shared
machine) runs every process 1.5-2x slower for seconds to minutes at a
time, whenever a neighbour keeps the other hyperthread of its core
busy.  A wall-clock number from one run therefore mixes the program's
speed with the host's.  Every timed phase is cut into windows, and
between windows -- with no request in flight -- a fixed stdlib-only
probe measures the host's current speed.  Rates and latencies are
reported *at reference host speed*: each window's numbers are scaled by
its speed, ``REFERENCE_PROBE_S / probe`` averaged over the probes on
either side of it.  A change to the program moves them; a neighbour
moves them by ~10% at most, where raw numbers move by 30-45%.  The raw
numbers are printed alongside.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field

#: Set-up is repeated this many times per untraced run and ``setup_s``
#: reports the median (plus the one-off import time).
SETUP_REPS = 3

#: Timed phases are cut into this many windows.
WINDOWS = 20

#: Records the host-speed probe builds, sorts, encodes and hashes.
PROBE_RECORDS = 600

#: The probe's time on the defining host in its fast state (x86-64,
#: Python 3.11).  Only a scale: on another machine every scaled number
#: moves by the same factor, so comparisons between runs are unchanged.
REFERENCE_PROBE_S = 0.0017


def _probe_once() -> None:
    # Dicts, strings, sorting, JSON and hashing: a neighbour slows this
    # by the same factor as the service and the simulators (measured
    # 1.79x vs 1.80-1.85x; a plain integer loop slows only 1.46x).
    records = [
        {"name": f"t{i}", "period": i * 1.5, "items": [i, i + 1, i + 2]}
        for i in range(PROBE_RECORDS)
    ]
    records.sort(key=lambda record: record["name"])
    text = json.dumps(records)
    json.loads(text)
    hashlib.sha256(text.encode("utf-8")).hexdigest()


def probe() -> float:
    """Seconds the probe takes now (best of three runs)."""
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        _probe_once()
        best = min(best, time.perf_counter() - started)
    return best


def host_speed() -> float:
    """The host's current speed relative to the reference (1.0 = as
    fast as the defining host at its fastest; 0.6 = 1.7x slower)."""
    return REFERENCE_PROBE_S / probe()


def percentile(values, fraction: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 <= fraction <= 1)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    """The process's resident-set high-water mark so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Window:
    """One window of a timed phase."""

    #: Whether the layer wrappers were installed (traced runs only).
    traced: bool
    #: Operations completed, and seconds from window start to the last
    #: (the sweep: seconds of simulation, generation excluded).
    count: int = 0
    busy: float = 0.0
    #: Work the throughput counts: requests, or simulated events.
    work: int = 0
    #: Per-operation latencies, seconds, raw.
    latencies: list[float] = field(default_factory=list)
    #: Host speed over the window (mean of the probes around it).
    speed: float = 1.0

    @property
    def rate(self) -> float:
        """Work per second at reference host speed."""
        return self.work / self.busy / self.speed if self.busy else 0.0


def window_metrics(windows: list[Window], tail: float) -> dict[str, float]:
    """End-to-end numbers of a phase, at reference host speed.

    Throughput is the median of the untraced windows' rates, so a stall
    inside one window moves one sample.  Latencies are percentiles over
    every operation of those windows, each scaled by its window's host
    speed.  The ``raw_`` values skip the scaling.
    """
    plain = [window for window in windows if not window.traced and window.count]
    scaled = [
        latency * window.speed for window in plain for latency in window.latencies
    ]
    raw = [latency for window in plain for latency in window.latencies]
    return {
        "throughput_per_s": statistics.median(window.rate for window in plain),
        "latency_p50_ms": percentile(scaled, 0.5) * 1e3,
        "latency_tail_ms": percentile(scaled, tail) * 1e3,
        "raw_throughput_per_s": statistics.median(
            window.work / window.busy for window in plain
        ),
        "raw_latency_p50_ms": percentile(raw, 0.5) * 1e3,
        "raw_latency_tail_ms": percentile(raw, tail) * 1e3,
        "host_speed": statistics.median(window.speed for window in plain),
        "samples": len(scaled),
    }


def overhead_ratio(windows: list[Window]) -> float:
    """Untraced over traced median window rate, minus one."""
    traced = [window.rate for window in windows if window.traced and window.count]
    plain = [window.rate for window in windows if not window.traced and window.count]
    if not (traced and plain):
        return 0.0
    return statistics.median(plain) / statistics.median(traced) - 1.0


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    #: Inputs of the per-layer metrics in a traced run.
    trace_context: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def check(self, name: str, failures: int, detail: str = "") -> None:
        """Record a check; ``failures`` operations failed it (0 = pass)."""
        self.checks.append((name, failures == 0, detail))
        self.failed += failures

    @property
    def correct(self) -> bool:
        return all(ok for _name, ok, _detail in self.checks)

    def report_traced(self, windows: list[Window]) -> None:
        """Fill the trace context from a traced phase's windows."""
        traced = [window for window in windows if window.traced]
        self.trace_context.update(
            overhead_ratio=overhead_ratio(windows),
            traced_wall_s=sum(window.busy for window in traced),
            traced_ops=sum(window.count for window in traced),
            ops=sum(window.count for window in windows),
        )

    def report_phase(
        self, windows: list[Window], tail: float, setups: list[float]
    ) -> None:
        """Fill the end-to-end metrics from a phase's windows and the
        set-up repetitions (seconds at reference speed)."""
        numbers = window_metrics(windows, tail)
        self.metrics["setup_s"] = (statistics.median(setups), "s")
        for name, unit in (
            ("throughput_per_s", "1/s"),
            ("latency_p50_ms", "ms"),
            ("latency_tail_ms", "ms"),
        ):
            self.metrics[name] = (numbers[name], unit)
        self.notes.append(
            f"{numbers['samples']} operations in {len(windows)} windows; "
            f"latency_tail_ms is p{tail * 100:g}; host speed "
            f"{numbers['host_speed']:.3f} of reference; raw (unscaled): "
            f"throughput {numbers['raw_throughput_per_s']:.6g}/s, "
            f"p50 {numbers['raw_latency_p50_ms']:.6g} ms, "
            f"tail {numbers['raw_latency_tail_ms']:.6g} ms"
        )

"""Per-layer metrics from a traced run, and a span table to read them by.

Usage, on a file written by ``run.py --trace 1 --spans FILE``::

    python3 perfbench/summarize.py FILE

prints every per-layer metric as ``name value unit``, then one row per
span name -- calls, busy seconds, self seconds and microseconds per
call -- for the timed phase and for set-up.

The metrics cover the traced windows of the timed phase, except those
read from the frontend's counters (``cache.evictions_per_op``,
``regions.fallback_ratio``: the whole timed phase) and
``regions.build.*`` (set-up too, where the regions are built).  A
``.util`` metric is the layer's busy time (its spans' durations, nested
spans included) per second of traced wall time: 0.5 means the layer kept
one thread busy half the time.  A layer a workload does not exercise
reads 0.
"""

from __future__ import annotations

import json
import sys

from common import percentile

__all__ = ["PER_LAYER", "per_layer_metrics", "span_table"]

#: Every per-layer metric: (name, unit, better), in report order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("wire.decode.util", "ratio", "lower"),
    ("wire.encode.util", "ratio", "lower"),
    ("hashing.request_key.util", "ratio", "lower"),
    ("cache.get.util", "ratio", "lower"),
    ("cache.put.util", "ratio", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.evictions_per_op", "ratio", "lower"),
    ("regions.lookup.util", "ratio", "lower"),
    ("regions.hit_ratio", "ratio", "higher"),
    ("regions.fallback_ratio", "ratio", "lower"),
    ("regions.build.calls", "count", "lower"),
    ("regions.build.probes_per_build", "count", "lower"),
    ("regions.build.setup_util", "ratio", "lower"),
    ("frontend.wait_share", "ratio", "lower"),
    ("engine.compute.util", "ratio", "lower"),
    ("engine.compute.per_op", "ratio", "lower"),
    ("analysis.sa_pm.util", "ratio", "lower"),
    ("analysis.sa_ds.util", "ratio", "lower"),
    ("analysis.sa_ds.compute_share", "ratio", "lower"),
    ("analysis.sa_ds.ieert_passes_mean", "count", "lower"),
    ("analysis.sa_ds.failed_ratio", "ratio", "lower"),
    ("analysis.subtask.per_op", "count", "lower"),
    ("analysis.fixpoint.iterations_per_call", "count", "lower"),
    ("advisor.recommend.util", "ratio", "lower"),
    ("protocols.make_controller.util", "ratio", "lower"),
    ("sim.batch.util", "ratio", "lower"),
    ("sim.metrics.util", "ratio", "lower"),
    ("process.cpu_util", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

TIMED = "timed"
_ZERO = (0, 0, 0, 0, 0)


def _merge(aggregates: dict, phases) -> dict[str, list[int]]:
    """``{name: [calls, busy_ns, self_ns, units, units2]}`` over phases."""
    merged: dict[str, list[int]] = {}
    for phase in phases:
        for name, entry in aggregates.get(phase, {}).items():
            total = merged.setdefault(name, [0, 0, 0, 0, 0])
            for index, value in enumerate(entry):
                total[index] += value
    return merged


def _ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


def frontend_waits(spans: list) -> list[tuple[float, float]]:
    """(admit seconds, wait seconds) of every computed request.

    Wait is the ``frontend.admit`` span minus the ``engine.compute``
    span of the same request id: queueing plus the executor round trip.
    """
    admits: dict[str, float] = {}
    computes: dict[str, float] = {}
    for name, phase, start, end, _id, _parent, _thread, rid in spans:
        if phase != TIMED or rid is None:
            continue
        if name == "frontend.admit":
            admits[rid] = (end - start) / 1e9
        elif name == "engine.compute":
            computes[rid] = (end - start) / 1e9
    return [
        (admits[rid], admits[rid] - computes[rid])
        for rid in admits
        if rid in computes
    ]


def per_layer_metrics(trace: dict, context: dict) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from a tracer export + run context."""
    aggregates = trace["aggregates"]
    timed = _merge(aggregates, [TIMED])
    everywhere = _merge(aggregates, aggregates.keys())
    setup = _merge(aggregates, ("setup",))
    wall = context.get("traced_wall_s", 0.0)
    counters = context.get("counters", {})

    def get(name, table=timed):
        return table.get(name, _ZERO)

    def calls(name, table=timed):
        return get(name, table)[0]

    def busy(*names, table=timed):
        return sum(get(name, table)[1] for name in names) / 1e9

    def util(*names):
        return _ratio(busy(*names), wall)

    # An operation is one admission request, or one simulated system.
    ops = context.get("traced_ops", 0)
    waits = frontend_waits(trace["spans"])
    sa_ds = get("analysis.sa_ds")
    lookup = get("regions.lookup")
    builds = get("regions.build", everywhere)
    return {
        "wire.decode.util": util("wire.json_loads", "wire.request_from_dict"),
        "wire.encode.util": util("wire.decision_to_dict", "wire.json_dumps"),
        "hashing.request_key.util": util("hashing.request_key"),
        "cache.get.util": util("cache.get"),
        "cache.put.util": util("cache.put"),
        "cache.hit_ratio": _ratio(get("cache.get")[3], calls("cache.get")),
        "cache.evictions_per_op": _ratio(
            counters.get("cache.evictions", 0), context.get("ops", 0)
        ),
        "regions.lookup.util": util("regions.lookup"),
        "regions.hit_ratio": _ratio(lookup[3], lookup[0]),
        "regions.fallback_ratio": _ratio(
            counters.get("region_fallbacks", 0),
            sum(
                counters.get(name, 0)
                for name in ("region_hits", "region_misses", "region_fallbacks")
            ),
        ),
        "regions.build.calls": builds[0],
        "regions.build.probes_per_build": _ratio(builds[3], builds[0]),
        "regions.build.setup_util": _ratio(
            busy("regions.build", table=setup), context.get("setup_wall_s", 0.0)
        ),
        "frontend.wait_share": _ratio(
            sum(wait for _admit, wait in waits),
            sum(admit for admit, _wait in waits),
        ),
        "engine.compute.util": util("engine.compute"),
        "engine.compute.per_op": _ratio(calls("engine.compute"), ops),
        "analysis.sa_pm.util": util("analysis.sa_pm"),
        "analysis.sa_ds.util": util("analysis.sa_ds"),
        "analysis.sa_ds.compute_share": _ratio(
            busy("analysis.sa_ds"), busy("engine.compute")
        ),
        "analysis.sa_ds.ieert_passes_mean": _ratio(sa_ds[3], sa_ds[0]),
        "analysis.sa_ds.failed_ratio": _ratio(sa_ds[4], sa_ds[0]),
        "analysis.subtask.per_op": _ratio(calls("analysis.subtask"), ops),
        "analysis.fixpoint.iterations_per_call": _ratio(
            get("analysis.fixpoint")[3], calls("analysis.fixpoint")
        ),
        "advisor.recommend.util": util("advisor.recommend"),
        "protocols.make_controller.util": util("protocols.make_controller"),
        "sim.batch.util": util("sim.batch"),
        "sim.metrics.util": util("sim.batch.summary"),
        "process.cpu_util": _ratio(
            context.get("cpu_s", 0.0), context.get("timed_wall_s", 0.0)
        ),
        "trace.overhead_ratio": context.get("overhead_ratio", 0.0),
    }


def span_table(trace: dict, phases) -> list[str]:
    """One line per span name, by self time: calls, busy s, self s,
    us/call, and the span's units (hits, IEERT passes, probes, fixpoint
    iterations or simulated events) where it counts any."""
    merged = _merge(trace["aggregates"], phases)
    lines = [
        f"{'span':28} {'calls':>8} {'busy_s':>8} {'self_s':>8} "
        f"{'us/call':>9} {'units':>9}"
    ]
    for name, (count, busy_ns, self_ns, units, _units2) in sorted(
        merged.items(), key=lambda item: -item[1][2]
    ):
        lines.append(
            f"{name:28} {count:8d} {busy_ns / 1e9:8.3f} {self_ns / 1e9:8.3f} "
            f"{busy_ns / 1e3 / count:9.1f} {units:9d}"
        )
    return lines


def report(document: dict) -> list[str]:
    """The human-readable summary of one traced run."""
    trace, context = document["trace"], document["context"]
    lines = [f"# workload {document['workload']} seed {document['seed']}"]
    units = {name: unit for name, unit, _better in PER_LAYER}
    for name, value in per_layer_metrics(trace, context).items():
        lines.append(f"{name} {value:.6g} {units[name]}")
    timed = _merge(trace["aggregates"], [TIMED])
    spans = [span for span in trace["spans"] if span[1] == TIMED]
    computed = {span[7] for span in spans if span[0] == "engine.compute"}
    served = [
        (span[3] - span[2]) / 1e3
        for span in spans
        if span[0] == "frontend.admit" and span[7] not in computed
    ]
    waits = frontend_waits(spans)
    server = {
        name: timed.get(name, _ZERO)[1]
        for name in (
            "wire.json_loads",
            "wire.request_from_dict",
            "wire.decision_to_dict",
            "wire.json_dumps",
            "hashing.request_key",
            "cache.get",
            "cache.put",
            "regions.lookup",
            "regions.observe",
            "engine.compute",
        )
    }
    front = sum(v for k, v in server.items() if k.startswith(("wire.", "hashing.")))
    lines += [
        "# timed phase: "
        + ", ".join(
            f"{name} {timed.get(name, _ZERO)[0]} calls"
            for name in ("frontend.admit", "engine.compute", "regions.build")
        ),
        f"# wire + hashing share of server busy time: "
        f"{_ratio(front, sum(server.values())):.4f}",
    ]
    if served:
        lines.append(
            f"# frontend.admit us p50, requests served without computing: "
            f"{percentile(served, 0.5):.1f} ({len(served)} requests)"
        )
    if waits:
        lines.append(
            "# frontend wait ms (admit minus compute): p50 "
            f"{percentile([w for _a, w in waits], 0.5) * 1e3:.3f}, p95 "
            f"{percentile([w for _a, w in waits], 0.95) * 1e3:.3f} "
            f"({len(waits)} computed requests)"
        )
    for title, phase in (("timed phase", TIMED), ("set-up", "setup")):
        lines.append(f"# spans, {title}")
        lines.extend("  " + line for line in span_table(trace, [phase]))
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        document = json.load(handle)
    print("\n".join(report(document)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

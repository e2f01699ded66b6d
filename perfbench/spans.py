"""Spans recorded around the public functions of each layer.

A traced run replaces module attributes and class methods -- at the
name the caller resolves, e.g. ``repro.service.batch.compute_decision``
or ``DecisionCache.get`` -- with thin wrappers that time every call.
Nothing under ``src/`` changes: the program is measured from outside.

Each wrapped call becomes a span: its name, the harness phase it ran in
(``setup``, ``closed``, ``open``), start and end, the enclosing span of
the same thread or asyncio task as parent, and -- where the call carries
an admission request -- the request id, which links spans across the
event loop and the shard executor threads.  Spans of the finest-grained
layers (``analysis.subtask``, ``analysis.fixpoint``: thousands per
admission miss) are folded into per-name aggregates only; every other
span is also kept in an in-memory log that :meth:`Tracer.export`
writes out when the run ends.

Self time is computed online: a span's duration minus the durations of
its direct children, which run nested on the same thread or task.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
import types

__all__ = ["Tracer", "LAYER_TARGETS"]

_FRAME: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


class _Frame:
    """The open span a nested call attributes its duration to."""

    __slots__ = ("span_id", "child_ns")

    def __init__(self, span_id: int) -> None:
        self.span_id = span_id
        self.child_ns = 0


def _rid_request(args, kwargs):
    """Request id of a ``f(request, ...)`` call."""
    request = args[0] if args else kwargs.get("request")
    return getattr(request, "request_id", None)


def _rid_method_request(args, kwargs):
    """Request id of a ``obj.method(request, ...)`` call."""
    return _rid_request(args[1:], kwargs)


def _rid_job(args, kwargs):
    """Request id of a ``(key, request)`` shard job."""
    return getattr(args[0][1], "request_id", None)


def _units_hit(args, kwargs, result):
    """A lookup that found something."""
    return int(result is not None), 0


def _units_sa_ds(args, kwargs, result):
    """IEERT passes, and whether the result tripped the failure cutoff."""
    return result.iterations, int(result.failed)


def _units_build(args, kwargs, result):
    return result.probes, 0


def _units_batch_run(args, kwargs, result):
    return result.events_processed, 0


#: (module, attribute, span name, options).  ``Class.method`` attributes
#: patch the class, so every instance resolves the wrapper.  Options:
#: ``log=False`` keeps only the per-name aggregate, ``rid`` extracts the
#: request id, ``units`` extracts (count, count2) from the result.
LAYER_TARGETS: tuple[tuple[str, str, str, dict], ...] = (
    # service.requests over the wire (the frontend's own names)
    ("repro.service.frontend", "request_from_dict", "wire.request_from_dict", {}),
    ("repro.service.frontend", "decision_to_dict", "wire.decision_to_dict", {}),
    # service.frontend
    (
        "repro.service.frontend",
        "AdmissionFrontend.admit",
        "frontend.admit",
        {"rid": _rid_method_request},
    ),
    # service.hashing
    ("repro.service.frontend", "request_key", "hashing.request_key", {}),
    # service.cache / service.backends
    (
        "repro.service.cache",
        "DecisionCache.get",
        "cache.get",
        {"units": _units_hit},
    ),
    ("repro.service.cache", "DecisionCache.put", "cache.put", {}),
    (
        "repro.service.backends",
        "SqliteDecisionCache.get",
        "cache.get",
        {"units": _units_hit},
    ),
    ("repro.service.backends", "SqliteDecisionCache.put", "cache.put", {}),
    # regions
    (
        "repro.regions.tier",
        "RegionTier.lookup",
        "regions.lookup",
        {"units": _units_hit},
    ),
    ("repro.regions.tier", "RegionTier.observe", "regions.observe", {}),
    (
        "repro.regions.tier",
        "RegionTier.build",
        "regions.build",
        {"units": _units_build},
    ),
    # service.engine, as the shard executor and the batch module call it
    (
        "repro.service.frontend",
        "_shard_compute",
        "engine.compute",
        {"rid": _rid_job},
    ),
    (
        "repro.service.batch",
        "compute_decision",
        "engine.compute_decision",
        {"rid": _rid_request},
    ),
    # core.analysis and the advisor, as the engine calls them
    ("repro.service.engine", "analyze_sa_pm", "analysis.sa_pm", {}),
    (
        "repro.service.engine",
        "analyze_sa_ds",
        "analysis.sa_ds",
        {"units": _units_sa_ds},
    ),
    ("repro.service.engine", "recommend_protocol", "advisor.recommend", {}),
    ("repro.core.analysis.sa_ds", "ieert_pass", "analysis.ieert_pass", {}),
    (
        "repro.core.analysis.sa_ds",
        "analyze_subtask",
        "analysis.subtask",
        {"log": False},
    ),
    (
        "repro.core.analysis.sa_pm",
        "analyze_subtask",
        "analysis.subtask",
        {"log": False},
    ),
    # core.protocols: the SA/PM bounds PM needs, as the sweep calls them
    ("repro.api", "make_controller", "protocols.make_controller", {}),
    ("repro.core.protocols.factory", "analyze_sa_pm", "analysis.sa_pm", {}),
    # sim.batch, as the simulator calls it
    (
        "repro.sim.simulator",
        "run_batch",
        "sim.batch",
        {"units": _units_batch_run},
    ),
    ("repro.sim.simulator", "metrics_from_packed", "sim.batch.summary", {}),
)

#: The busy-period fixpoint solver, as ``analyze_subtask`` resolves it.
#: Wrapped specially: besides the call it counts iterations, i.e. calls
#: of the ``demand`` callable handed to the solver.
_FIXPOINT_TARGET = ("repro.core.analysis.busy_period", "solve_fixed_point")

#: The frontend's ``json`` global: the wire decode/encode of every line.
_WIRE_JSON_TARGET = "repro.service.frontend"


class Tracer:
    """Install layer wrappers, record spans, export them at exit.

    ``phase`` is read when a span starts; the harness sets it as it
    moves through set-up and the timed phases.  Aggregates are kept per
    thread (no lock on the hot path) and merged on export.
    """

    def __init__(self) -> None:
        self.phase = "setup"
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._all_aggregates: list[dict] = []
        self._register = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, str, object]] = []
        self._build_wrappers()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _aggregates(self) -> dict:
        aggregates = getattr(self._local, "aggregates", None)
        if aggregates is None:
            aggregates = self._local.aggregates = {}
            with self._register:
                self._all_aggregates.append(aggregates)
        return aggregates

    def _close(
        self, name, phase, frame, parent, start, end, rid, log, units
    ) -> None:
        duration = end - start
        if parent is not None:
            parent.child_ns += duration
        key = (phase, name)
        aggregates = self._aggregates()
        entry = aggregates.get(key)
        if entry is None:
            entry = aggregates[key] = [0, 0, 0, 0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame.child_ns
        if units is not None:
            entry[3] += units[0]
            entry[4] += units[1]
        if log:
            self.spans.append(
                (
                    name,
                    phase,
                    start,
                    end,
                    frame.span_id,
                    None if parent is None else parent.span_id,
                    threading.get_ident(),
                    rid,
                )
            )

    def _wrap(self, fn, name, *, log=True, rid=None, units=None):
        tracer = self
        clock = time.perf_counter_ns

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                phase = tracer.phase
                parent = _FRAME.get()
                frame = _Frame(next(tracer._ids))
                token = _FRAME.set(frame)
                start = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = clock()
                    _FRAME.reset(token)
                    tracer._close(
                        name,
                        phase,
                        frame,
                        parent,
                        start,
                        end,
                        rid(args, kwargs) if rid is not None else None,
                        log,
                        None,
                    )

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            phase = tracer.phase
            parent = _FRAME.get()
            frame = _Frame(next(tracer._ids))
            token = _FRAME.set(frame)
            start = clock()
            counts = None
            try:
                result = fn(*args, **kwargs)
                if units is not None:
                    counts = units(args, kwargs, result)
                return result
            finally:
                end = clock()
                _FRAME.reset(token)
                tracer._close(
                    name,
                    phase,
                    frame,
                    parent,
                    start,
                    end,
                    rid(args, kwargs) if rid is not None else None,
                    log,
                    counts,
                )

        return traced

    def _wrap_fixpoint(self, solve):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(solve)
        def traced(demand, *args, **kwargs):
            calls = [0]

            def counted(t):
                calls[0] += 1
                return demand(t)

            phase = tracer.phase
            parent = _FRAME.get()
            frame = _Frame(0)
            start = clock()
            try:
                return solve(counted, *args, **kwargs)
            finally:
                tracer._close(
                    "analysis.fixpoint",
                    phase,
                    frame,
                    parent,
                    start,
                    clock(),
                    None,
                    False,
                    (calls[0], 0),
                )

        return traced

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _build_wrappers(self) -> None:
        """Resolve every target once; install/uninstall just swaps."""
        for module_name, attribute, name, options in LAYER_TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            self._wrappers.append(
                (owner, leaf, self._wrap(original, name, **options))
            )
        module = importlib.import_module(_FIXPOINT_TARGET[0])
        self._wrappers.append(
            (
                module,
                _FIXPOINT_TARGET[1],
                self._wrap_fixpoint(getattr(module, _FIXPOINT_TARGET[1])),
            )
        )
        frontend = importlib.import_module(_WIRE_JSON_TARGET)
        self._wrappers.append(
            (
                frontend,
                "json",
                types.SimpleNamespace(
                    loads=self._wrap(json.loads, "wire.json_loads"),
                    dumps=self._wrap(json.dumps, "wire.json_dumps"),
                ),
            )
        )

    def install(self) -> None:
        """Swap every wrapper in (idempotent)."""
        if self._installed:
            return
        for owner, leaf, wrapper in self._wrappers:
            self._installed.append((owner, leaf, owner.__dict__[leaf]))
            setattr(owner, leaf, wrapper)

    def uninstall(self) -> None:
        """Restore every original (idempotent)."""
        while self._installed:
            owner, leaf, original = self._installed.pop()
            setattr(owner, leaf, original)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def aggregates(self) -> dict[str, dict[str, list[int]]]:
        """``{phase: {name: [calls, busy_ns, self_ns, units, units2]}}``."""
        merged: dict[str, dict[str, list[int]]] = {}
        with self._register:
            tables = list(self._all_aggregates)
        for table in tables:
            for (phase, name), entry in list(table.items()):
                total = merged.setdefault(phase, {}).setdefault(
                    name, [0, 0, 0, 0, 0]
                )
                for index, value in enumerate(entry):
                    total[index] += value
        return merged

    def export(self) -> dict:
        """Everything recorded, as a JSON-ready document."""
        return {
            "aggregates": self.aggregates(),
            "span_fields": [
                "name",
                "phase",
                "start_ns",
                "end_ns",
                "id",
                "parent",
                "thread",
                "rid",
            ],
            "spans": [list(span) for span in self.spans],
        }

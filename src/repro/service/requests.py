"""Admission requests and decisions, with JSON codecs.

An :class:`AdmissionRequest` is the service's unit of work: one
:class:`~repro.model.system.System` plus the analysis/advisor options
that influence the verdict.  An :class:`AdmissionDecision` is the
answer: whether the system is admissible at all, under which of the
requested protocols, and which protocol the advisor recommends.

Decisions are pure functions of the request *content* (everything the
cache key of :mod:`repro.service.hashing` covers); ``request_id`` is
caller metadata, echoed back for correlation but excluded from the key,
so cached and freshly computed decisions for the same content are
identical.

Codecs build on :mod:`repro.io` (systems round-trip via
``system_to_dict``; infinite bounds encode as ``"inf"``) and add JSONL
helpers for batch traffic.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.errors import ConfigurationError, ReproError
from repro.io import (
    decode_bound,
    encode_bound,
    system_from_dict,
    system_to_dict,
)
from repro.model.system import System

__all__ = [
    "ALL_PROTOCOLS",
    "OPTION_DEFAULTS",
    "AdmissionRequest",
    "AdmissionDecision",
    "request_to_dict",
    "request_from_dict",
    "request_flags",
    "request_metadata",
    "decision_to_dict",
    "decision_from_dict",
    "load_requests_jsonl",
    "save_decisions_jsonl",
    "load_decisions_jsonl",
]

#: Canonical protocol order, as introduced by the paper.
ALL_PROTOCOLS: tuple[str, ...] = ("DS", "PM", "MPM", "RG")

_REQUEST_FORMAT = "repro-admission-request-v1"
_DECISION_FORMAT = "repro-admission-decision-v1"
_SYSTEM_FORMAT = "repro-system-v1"


@dataclass(frozen=True)
class AdmissionRequest:
    """One "may this system run here, and under which protocol?" query.

    Attributes
    ----------
    system:
        The candidate system.
    protocols:
        The protocols the deployment could actually use (subset of
        DS/PM/MPM/RG); admission succeeds when at least one of them
        certifies every deadline.
    jitter_sensitive / wcets_trusted / clock_sync_available /
    strictly_periodic_arrivals:
        The advisor's deployment questions, passed straight to
        :func:`repro.advisor.recommend_protocol`.
    synchronized_clocks:
        Whether the platform's clocks are synchronized at all.  When
        False, PM is excluded from certification outright -- its phase
        table is an absolute local-time schedule and no analysis covers
        it under unsynchronized clocks (see the clock study).
    clock_rate_bound / clock_jump_bound:
        Declared clock-quality envelope: maximum drift rate ``rho``
        (|dL/dt - 1|) and maximum resynchronization step.  When either
        is nonzero, MPM/RG certification uses the skew-inflated SA/PM
        analysis (:func:`repro.core.analysis.skew.analyze_sa_pm_skewed`)
        and PM is excluded (epsilon-synchronized is not synchronized
        enough for an absolute phase table).
    shared_resources:
        Whether the deployment's tasks contend on shared resources
        (critical sections under DPCP/DPCP-p locking).  Implied True
        whenever the system itself declares critical sections;
        declaring it on a section-free system marks a platform whose
        workload *will* contend even though this description does not.
        Certification then uses the blocking-aware analyses and the
        advisor vetoes combinations they cannot cover.
    sa_ds_max_iterations:
        Iteration budget of the SA/DS fixed point (the paper's 300).
    request_id:
        Free-form caller tag.  Echoed on the decision, excluded from
        the cache key.
    tenant:
        The submitting tenant, for the frontend's per-tenant quotas
        (empty = the anonymous default tenant).  Like ``request_id`` it
        is caller metadata, not decision content: it is excluded from
        the cache key, so two tenants submitting identical systems
        share one cached decision.
    """

    system: System
    protocols: tuple[str, ...] = ALL_PROTOCOLS
    jitter_sensitive: bool = False
    wcets_trusted: bool = True
    clock_sync_available: bool = False
    strictly_periodic_arrivals: bool = False
    synchronized_clocks: bool = True
    clock_rate_bound: float = 0.0
    clock_jump_bound: float = 0.0
    shared_resources: bool = False
    sa_ds_max_iterations: int = 300
    request_id: str = ""
    tenant: str = ""

    def __post_init__(self) -> None:
        names = tuple(self.protocols)
        if not all(isinstance(p, str) for p in names):
            raise ConfigurationError(
                f"protocol names must be strings, got {list(names)!r}"
            )
        canonical = tuple(p.upper() for p in names)
        unknown = [p for p in canonical if p not in ALL_PROTOCOLS]
        if unknown:
            raise ConfigurationError(
                f"unknown protocol(s) {unknown!r}; expected a subset of "
                f"{'/'.join(ALL_PROTOCOLS)}"
            )
        if not canonical:
            raise ConfigurationError(
                "an admission request needs at least one candidate protocol"
            )
        # Deduplicate while keeping the paper's canonical order so that
        # ("RG", "DS") and ("DS", "RG") hash and decide identically.
        object.__setattr__(
            self,
            "protocols",
            tuple(p for p in ALL_PROTOCOLS if p in canonical),
        )
        if self.sa_ds_max_iterations < 1:
            raise ConfigurationError(
                f"sa_ds_max_iterations must be >= 1, "
                f"got {self.sa_ds_max_iterations}"
            )
        if not (0 <= self.clock_rate_bound < 1) or not math.isfinite(
            self.clock_rate_bound
        ):
            raise ConfigurationError(
                f"clock_rate_bound must be in [0, 1), "
                f"got {self.clock_rate_bound!r}"
            )
        if self.clock_jump_bound < 0 or not math.isfinite(
            self.clock_jump_bound
        ):
            raise ConfigurationError(
                f"clock_jump_bound must be finite and >= 0, "
                f"got {self.clock_jump_bound!r}"
            )
        # A system that declares critical sections is a shared-resource
        # deployment whether or not the caller said so; normalizing here
        # keeps the cache key and the decision logic in agreement.
        if self.system.has_critical_sections and not self.shared_resources:
            object.__setattr__(self, "shared_resources", True)

    def with_request_id(self, request_id: str) -> "AdmissionRequest":
        """Copy of this request with only the caller tag replaced."""
        return replace(self, request_id=request_id)


@dataclass(frozen=True)
class AdmissionDecision:
    """The service's answer to one :class:`AdmissionRequest`.

    Attributes
    ----------
    admitted:
        True when at least one requested protocol certifies every
        deadline.
    protocol:
        The protocol to deploy (``None`` when rejected): the advisor's
        recommendation when that protocol is requested and certified,
        otherwise the strongest certified requested protocol.
    rationale:
        Why, in the advisor's words (plus a fallback note when the
        recommendation had to be overridden).
    schedulable:
        Per requested protocol: does its analysis certify every task?
    task_bounds:
        End-to-end bounds per algorithm (``"SA/PM"``, ``"SA/DS"``),
        ``math.inf`` for diverged bounds.
    worst_bound_ratio:
        The advisor's worst SA-DS/SA-PM task-bound ratio (``inf`` on
        region-tier decisions, which run no analysis).
    key:
        The content hash the decision was computed (and cached) under.
    system_name / request_id:
        Echoes of the request, for correlation.
    margins:
        Sensitivity output, present only on region-tier decisions
        (:mod:`repro.regions.tier`): per analysis, per subtask, how
        much that execution time can grow -- all else fixed -- before
        the request leaves the verified feasibility region and
        admission falls back to direct analysis.  ``None`` on computed
        decisions, and omitted from the JSON codecs when ``None`` so
        every historical decision document (and the load generator's
        deployment-invariant digest) stays byte-identical.
    """

    admitted: bool
    protocol: str | None
    rationale: str
    schedulable: Mapping[str, bool]
    task_bounds: Mapping[str, tuple[float, ...]]
    worst_bound_ratio: float
    key: str
    system_name: str = "system"
    request_id: str = ""
    margins: Mapping[str, Mapping[str, float]] | None = None

    def describe(self) -> str:
        """One-paragraph human-readable summary for CLI output."""
        verdict = (
            f"ADMIT under {self.protocol}" if self.admitted else "REJECT"
        )
        per_protocol = ", ".join(
            f"{p}={'ok' if ok else 'FAIL'}"
            for p, ok in self.schedulable.items()
        )
        lines = [
            f"{self.system_name}: {verdict}",
            f"  per-protocol: {per_protocol}",
            f"  rationale: {self.rationale}",
        ]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Dict codecs
# ---------------------------------------------------------------------------


def request_to_dict(request: AdmissionRequest) -> dict[str, Any]:
    """A JSON-ready description of a request (lossless)."""
    return {
        "format": _REQUEST_FORMAT,
        "system": system_to_dict(request.system),
        "protocols": list(request.protocols),
        "jitter_sensitive": request.jitter_sensitive,
        "wcets_trusted": request.wcets_trusted,
        "clock_sync_available": request.clock_sync_available,
        "strictly_periodic_arrivals": request.strictly_periodic_arrivals,
        "synchronized_clocks": request.synchronized_clocks,
        "clock_rate_bound": request.clock_rate_bound,
        "clock_jump_bound": request.clock_jump_bound,
        "shared_resources": request.shared_resources,
        "sa_ds_max_iterations": request.sa_ds_max_iterations,
        "request_id": request.request_id,
        "tenant": request.tenant,
    }


#: The boolean request options, decoded and keyed only as JSON booleans.
_FLAGS: tuple[str, ...] = (
    "jitter_sensitive",
    "wcets_trusted",
    "clock_sync_available",
    "strictly_periodic_arrivals",
    "synchronized_clocks",
    "shared_resources",
)

#: Every request option with the value an omitted one decodes to: the
#: request's own defaults.
OPTION_DEFAULTS: dict[str, Any] = {
    f.name: f.default
    for f in fields(AdmissionRequest)
    if f.default is not MISSING
}


def _flag(data: Mapping[str, Any], name: str, default: bool) -> bool:
    """A boolean request option: a JSON boolean, never coerced.

    ``bool("false")`` is True, so coercing would let a client that
    declared, say, unsynchronized clocks as ``"false"`` be certified
    for PM.
    """
    value = data.get(name, default)
    if not isinstance(value, bool):
        raise ValueError(
            f"request field {name!r} must be a JSON boolean, got {value!r}"
        )
    return value


def request_flags(data: Mapping[str, Any]) -> dict[str, bool]:
    """The six boolean options of a request document, each checked by
    :func:`_flag` (absent ones at their defaults)."""
    return {name: _flag(data, name, OPTION_DEFAULTS[name]) for name in _FLAGS}


def request_metadata(data: Mapping[str, Any]) -> tuple[str, str]:
    """``(request_id, tenant)`` of a request document, as the decoder
    reads them.

    A bare ``repro-system-v1`` document carries no caller metadata: it
    decodes to the defaults (``""``, the anonymous tenant) whatever
    keys of those names it holds.
    """
    if data.get("format") == _SYSTEM_FORMAT:
        return "", ""
    return (
        str(data.get("request_id", OPTION_DEFAULTS["request_id"])),
        str(data.get("tenant", OPTION_DEFAULTS["tenant"])),
    )


def request_from_dict(data: Mapping[str, Any]) -> AdmissionRequest:
    """Rebuild a request from :func:`request_to_dict` output.

    A bare ``repro-system-v1`` document is accepted too (all options at
    their defaults), so a file of saved systems is already a valid
    request stream.  The boolean options must be JSON booleans; any
    other value raises :class:`ValueError`.  A document that is not a
    JSON object raises :class:`~repro.errors.ConfigurationError`.
    """
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"a request must be a JSON object, got {type(data).__name__}"
        )
    if data.get("format") == _SYSTEM_FORMAT:
        return AdmissionRequest(system=system_from_dict(dict(data)))
    if data.get("format") != _REQUEST_FORMAT:
        raise ConfigurationError(
            f"not a {_REQUEST_FORMAT} document "
            f"(format={data.get('format')!r})"
        )
    system = system_from_dict(data["system"])
    request_id, tenant = request_metadata(data)

    def option(name: str) -> Any:
        return data.get(name, OPTION_DEFAULTS[name])

    return AdmissionRequest(
        system=system,
        protocols=tuple(option("protocols")),
        clock_rate_bound=float(option("clock_rate_bound")),
        clock_jump_bound=float(option("clock_jump_bound")),
        sa_ds_max_iterations=int(option("sa_ds_max_iterations")),
        request_id=request_id,
        tenant=tenant,
        **request_flags(data),
    )


def decision_to_dict(decision: AdmissionDecision) -> dict[str, Any]:
    """A JSON-ready description of a decision (lossless)."""
    document = {
        "format": _DECISION_FORMAT,
        "admitted": decision.admitted,
        "protocol": decision.protocol,
        "rationale": decision.rationale,
        "schedulable": dict(decision.schedulable),
        "task_bounds": {
            algorithm: [encode_bound(b) for b in bounds]
            for algorithm, bounds in decision.task_bounds.items()
        },
        "worst_bound_ratio": encode_bound(decision.worst_bound_ratio),
        "key": decision.key,
        "system_name": decision.system_name,
        "request_id": decision.request_id,
    }
    if decision.margins is not None:
        document["margins"] = {
            analysis: dict(per_dim)
            for analysis, per_dim in decision.margins.items()
        }
    return document


def decision_from_dict(data: Mapping[str, Any]) -> AdmissionDecision:
    """Rebuild a decision from :func:`decision_to_dict` output."""
    if data.get("format") != _DECISION_FORMAT:
        raise ConfigurationError(
            f"not a {_DECISION_FORMAT} document "
            f"(format={data.get('format')!r})"
        )
    return AdmissionDecision(
        admitted=bool(data["admitted"]),
        protocol=data["protocol"],
        rationale=str(data["rationale"]),
        # Restore the paper's canonical protocol order (JSON round-trips
        # with sorted keys); unknown keys keep their file order at the end.
        schedulable={
            str(p): bool(data["schedulable"][p])
            for p in (
                [q for q in ALL_PROTOCOLS if q in data["schedulable"]]
                + [q for q in data["schedulable"] if q not in ALL_PROTOCOLS]
            )
        },
        task_bounds={
            str(algorithm): tuple(decode_bound(b) for b in bounds)
            for algorithm, bounds in data["task_bounds"].items()
        },
        worst_bound_ratio=decode_bound(data["worst_bound_ratio"]),
        key=str(data["key"]),
        system_name=str(data.get("system_name", "system")),
        request_id=str(data.get("request_id", "")),
        margins=(
            None
            if data.get("margins") is None
            else {
                str(analysis): {
                    str(name): float(value)
                    for name, value in per_dim.items()
                }
                for analysis, per_dim in data["margins"].items()
            }
        ),
    )


# ---------------------------------------------------------------------------
# JSONL batch traffic
# ---------------------------------------------------------------------------


def load_requests_jsonl(path: str | Path) -> list[AdmissionRequest]:
    """Read one request per line (request or bare system documents)."""
    requests = []
    for number, line in enumerate(
        Path(path).read_text().splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            requests.append(request_from_dict(json.loads(line)))
        except (ReproError, ValueError, KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"{path}:{number}: bad admission request line: {exc}"
            ) from exc
    return requests


def save_decisions_jsonl(
    decisions: Iterable[AdmissionDecision], path: str | Path
) -> None:
    """Write one decision per line, in the given order."""
    lines = [
        json.dumps(decision_to_dict(decision), sort_keys=True)
        for decision in decisions
    ]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def load_decisions_jsonl(path: str | Path) -> list[AdmissionDecision]:
    """Inverse of :func:`save_decisions_jsonl`."""
    return [
        decision_from_dict(json.loads(line))
        for line in Path(path).read_text().splitlines()
        if line.strip()
    ]

"""Canonical content hashing of admission requests.

The decision cache must key on request *content*: the same system and
options must map to the same key in every process, on every run, on
every machine.  Python's built-in ``hash()`` offers none of that (it is
salted per process for strings and identity-ish for many objects), so
keys here are SHA-256 digests of a canonical JSON encoding of the
request *document* (the :func:`~repro.service.requests.request_to_dict`
shape):

* a request renders through ``request_to_dict``, whose system part is
  :func:`repro.io.system_to_dict` -- lossless and positional (task
  order is significant in the model, so it is significant in the key);
  a document already decoded from JSON is hashed as it stands, so an
  exact repeat on the wire is keyed without building the model (see
  ``docs/service.md``, "Wire hit path");
* the option fields are emitted under fixed names, absent ones at the
  request's defaults, the boolean flags checked like the decoder
  checks them;
* ``json.dumps`` runs with sorted keys and fixed separators, and floats
  serialize via ``repr``, which is exact for IEEE doubles -- two equal
  systems built independently hash equally, two systems differing in
  any execution time, period, phase, priority, placement or name do
  not;
* exact-timebase values (``fractions.Fraction``) canonicalize through
  :func:`repro.timebase.canonical_number` -- gcd-reduced ``"num/den"``
  strings, integral rationals collapsing to ints -- so a system touched
  by exact arithmetic keys stably too.  Plain floats never reach that
  path (``default=`` fires only for non-JSON types), keeping every
  historical float key byte-identical.

``request_id`` and ``tenant`` are deliberately excluded: they are
caller metadata (correlation tag, quota principal), not decision
content -- two tenants submitting identical systems share one cached
decision, and the sharded frontend routes them to the same shard.

The admission pipeline keys a request by one pass over its system,
:func:`walk_request`: the pass yields the content document this key
hashes, the region tier's shape payload (whose rules --
:data:`SHAPE_FORMAT`, :data:`SHAPE_OPTIONS`, :func:`section_shapes` --
live here so the pass can apply them; see :mod:`repro.regions.shape`)
and the execution vector, so no tier walks the system again.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any, Mapping

from repro.io import _FORMAT as _SYSTEM_FORMAT
from repro.model.system import System
from repro.service.requests import (
    _REQUEST_FORMAT,
    OPTION_DEFAULTS,
    AdmissionRequest,
    request_flags,
    request_to_dict,
)
from repro.timebase import canonical_number

__all__ = [
    "KEY_FORMAT",
    "KEY_FORMAT_V3",
    "METADATA_FIELDS",
    "SHAPE_FORMAT",
    "SHAPE_OPTIONS",
    "RequestWalk",
    "canonical_json",
    "canonical_payload",
    "request_key",
    "section_shapes",
    "system_key",
    "walk_request",
]

#: Version tag baked into every key; bump when the payload shape changes
#: so stale persisted caches miss instead of serving wrong answers.
#: v2: clock-quality fields (synchronized_clocks, clock_rate_bound,
#: clock_jump_bound) joined the decision content.
KEY_FORMAT = "repro-admission-key-v2"

#: Shared-resource requests key under v3: the payload gains the
#: ``shared_resources`` flag (and the system document carries the
#: critical sections), so a v2 cache entry -- computed by the base,
#: blocking-unaware analyses -- can never be silently served for a
#: resourceful task set.  Resource-free requests keep their exact v2
#: payload, so every historical key stays byte-identical.
KEY_FORMAT_V3 = "repro-admission-key-v3"


#: Request options that are caller metadata, not decision content.
METADATA_FIELDS = ("request_id", "tenant")

#: The verdict-relevant request options a shape keeps.  Requests that
#: differ in any of them have different shapes.
SHAPE_OPTIONS = (
    "protocols",
    "synchronized_clocks",
    "clock_rate_bound",
    "clock_jump_bound",
    "shared_resources",
    "sa_ds_max_iterations",
)

#: Version tag baked into every shape key; bump when the payload shape
#: changes so stale persisted region stores miss instead of serving
#: regions computed under different semantics.
SHAPE_FORMAT = "repro-region-shape-v1"


def canonical_payload(
    request: AdmissionRequest | Mapping[str, Any],
) -> dict[str, Any]:
    """The exact dictionary that gets hashed (useful for debugging).

    ``request`` is an :class:`AdmissionRequest` or a decoded request
    document.  Flags that are not JSON booleans raise the decoder's
    :class:`ValueError`; a document without a ``system`` raises
    :class:`KeyError`.
    """
    document = (
        request_to_dict(request)
        if isinstance(request, AdmissionRequest)
        else request
    )
    payload = {
        name: document.get(name, default)
        for name, default in OPTION_DEFAULTS.items()
        if name not in METADATA_FIELDS
    }
    payload.update(request_flags(document))
    # A request normalizes ``shared_resources`` to True whenever its
    # system declares critical sections, so the checked flag alone
    # decides the format.
    if payload["shared_resources"]:
        payload["format"] = KEY_FORMAT_V3
    else:
        payload["format"] = KEY_FORMAT
        del payload["shared_resources"]
    payload["system"] = document["system"]
    return payload


def _canonical_default(value: Any) -> Any:
    """Serialize non-JSON scalars (exact-timebase rationals) stably."""
    canonical = canonical_number(value)
    if canonical is value:  # not a rational -- genuinely unserializable
        raise TypeError(
            f"cannot canonicalize {type(value).__name__!r} for hashing"
        )
    return canonical


def request_key(request: AdmissionRequest | Mapping[str, Any]) -> str:
    """The SHA-256 hex digest identifying a request's content.

    Takes an :class:`AdmissionRequest` or a decoded request document;
    a request and its ``request_to_dict`` document, round-tripped
    through JSON or not, share one key.
    """
    encoded = json.dumps(
        canonical_payload(request),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
        default=_canonical_default,
    )
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def system_key(system: System, **options) -> str:
    """Shorthand: the key of ``AdmissionRequest(system, **options)``."""
    return request_key(AdmissionRequest(system=system, **options))


# ---------------------------------------------------------------------------
# The one walk: content document, shape payload and execution vector
# ---------------------------------------------------------------------------


def _fraction_token(numerator, denominator) -> Any:
    """A JSON-stable token for the exact ratio numerator/denominator."""
    return canonical_number(Fraction(numerator) / Fraction(denominator))


def section_shapes(stage) -> list[dict[str, Any]]:
    """A subtask's critical sections as a shape keeps them: each start
    and duration as an exact fraction of the execution time."""
    return [
        {
            "resource": section.resource,
            "start": _fraction_token(section.start, stage.execution_time),
            "duration": _fraction_token(
                section.duration, stage.execution_time
            ),
        }
        for section in stage.critical_sections
    ]


def canonical_json(document) -> str:
    """The shape key's encoding: sorted keys, no spaces, no NaN."""
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


class RequestWalk:
    """What one pass over a request's system yields.

    ``document`` is the request's content document:
    :func:`~repro.service.requests.request_to_dict` without the caller
    metadata, in the same key order, so ``request_key(walk.document)``
    is the request's content key.  ``shape`` is
    :func:`repro.regions.shape.shape_payload` of the request and
    ``vector`` its execution times in canonical subtask order
    (:func:`repro.regions.shape.execution_vector`).  :attr:`shape_key`
    hashes ``shape`` on first use.
    """

    __slots__ = ("document", "shape", "vector", "_shape_key")

    def __init__(self, document: dict, shape: dict, vector: tuple) -> None:
        self.document = document
        self.shape = shape
        self.vector = vector
        self._shape_key: str | None = None

    @property
    def shape_key(self) -> str:
        """The SHA-256 hex digest identifying the request's shape."""
        if self._shape_key is None:
            encoded = canonical_json(self.shape).encode("utf-8")
            self._shape_key = hashlib.sha256(encoded).hexdigest()
        return self._shape_key


def walk_request(request: AdmissionRequest) -> RequestWalk:
    """Walk ``request``'s system once (see :class:`RequestWalk`)."""
    system = request.system
    tasks = []
    task_shapes = []
    vector: list = []
    append = vector.append
    for task in system.tasks:
        stages = []
        stage_shapes = []
        for stage in task.subtasks:
            execution_time = stage.execution_time
            processor = stage.processor
            priority = stage.priority
            append(execution_time)
            entry = {
                "name": stage.name,
                "execution_time": execution_time,
                "processor": processor,
                "priority": priority,
            }
            shaped = {"processor": processor, "priority": priority}
            if stage.critical_sections:
                entry["critical_sections"] = [
                    {
                        "resource": section.resource,
                        "start": section.start,
                        "duration": section.duration,
                    }
                    for section in stage.critical_sections
                ]
                shaped["critical_sections"] = section_shapes(stage)
            stages.append(entry)
            stage_shapes.append(shaped)
        period, phase, deadline = task.period, task.phase, task.deadline
        tasks.append(
            {
                "name": task.name,
                "period": period,
                "phase": phase,
                "deadline": deadline,
                "subtasks": stages,
            }
        )
        task_shapes.append(
            {
                "period": period,
                "phase": phase,
                "deadline": deadline,
                "subtasks": stage_shapes,
            }
        )
    document = {
        "format": _REQUEST_FORMAT,
        "system": {
            "format": _SYSTEM_FORMAT,
            "name": system.name,
            "tasks": tasks,
        },
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
    }
    shape = {
        "format": SHAPE_FORMAT,
        "tasks": task_shapes,
        **{name: getattr(request, name) for name in SHAPE_OPTIONS},
    }
    return RequestWalk(document, shape, tuple(vector))

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
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

from repro.model.system import System
from repro.service.requests import (
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
    "canonical_payload",
    "request_key",
    "system_key",
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

"""Pluggable arithmetic timebases for the simulator and the analyses.

Every timestamp, duration and bound in this repository flows through a
:class:`Timebase`.  Two interchangeable backends exist:

``float`` (default)
    Times are IEEE doubles, exactly as the code base always computed
    them.  Because float addition is not associative (PM schedules a
    timer at ``(phase + R) + m*p`` while the completion it synchronizes
    to lands at ``(phase + m*p) + R``), equality of instants can only be
    asserted up to tolerance.  This backend owns the *single* pair of
    tolerances the whole repository is allowed to use -- the absolute
    noise floor :data:`ABS_EPS` and the relative guard :data:`REL_EPS` --
    and exposes them through its comparison methods.  Keeping the float
    backend default preserves byte-identical benchmarks and cached
    admission decisions.

``exact``
    Times are scaled integers -- an ``int`` whenever the value is
    integral -- with a :class:`fractions.Fraction` fallback for
    non-representable inputs (every finite IEEE double *is* exactly
    representable: ``float.as_integer_ratio`` gives the scaled-integer
    numerator over a power-of-two denominator).  Rational arithmetic is
    associative and exact, so every tolerance collapses to ``==`` /
    ``<=``: the paper's identities (PM and MPM produce identical
    schedules; RG releases are separated by at least ``p_i``, Theorem 1)
    become exactly checkable, and an entire class of float-epsilon bugs
    cannot exist.

The historical epsilons (an absolute ``1e-12`` past-check, relative
``1e-9`` guards, and assorted per-module copies) live *only* here; a CI
lint rejects new bare ``1e-9``/``1e-12`` literals outside this package.

Infinities and NaNs pass through both backends untouched: they are
sentinels of the analyses ("bound diverged"), not times.
"""

from __future__ import annotations

import abc
import math
from fractions import Fraction
from typing import Union

__all__ = [
    "ABS_EPS",
    "REL_EPS",
    "TimeValue",
    "Timebase",
    "FloatTimebase",
    "ExactTimebase",
    "FLOAT",
    "EXACT",
    "TIMEBASES",
    "get_timebase",
    "fmt",
    "canonical_number",
]

#: Absolute noise floor: differences below this are float bookkeeping
#: residue (historically the ``1e-12`` guards of the kernel/scheduler).
ABS_EPS = 1e-12

#: Relative comparison guard: instants within ``REL_EPS * max(1, |t|)``
#: of each other count as equal under the float backend (historically
#: the scattered ``1e-9`` tolerances).
REL_EPS = 1e-9

#: Anything a timebase accepts or produces as a time/duration value.
TimeValue = Union[int, float, Fraction]


def fmt(value: TimeValue) -> str:
    """Render any time value compactly for messages (``%g``-style)."""
    try:
        return format(float(value), "g")
    except OverflowError:  # a Fraction beyond float range
        return str(value)


def canonical_number(value: TimeValue) -> Union[int, float, str]:
    """A JSON-stable token for a timebase value.

    Ints and floats serialize exactly through ``json`` already; exact
    rationals canonicalize as ``"numerator/denominator"`` (Fractions are
    always stored gcd-reduced, so equal values produce equal tokens in
    every process, on every run).
    """
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    return value


class Timebase(abc.ABC):
    """Arithmetic and comparison backend for simulated time.

    Values produced by :meth:`convert` support ``+ - *`` and ``max``
    natively (they are ints, floats or Fractions); what differs between
    backends is *conversion* and *comparison semantics*.  ``lt``/``leq``
    and friends answer "is ``a`` before ``b``" in the backend's own
    sense: beyond tolerance for floats, exactly for rationals.
    """

    #: Registry name ("float" / "exact").
    name: str = "base"
    #: True when comparisons are exact (no tolerance windows).
    exact: bool = False

    @abc.abstractmethod
    def convert(self, value: TimeValue) -> TimeValue:
        """Normalize an input number into this backend's representation."""

    @property
    def zero(self) -> TimeValue:
        """The backend's representation of time 0."""
        return self.convert(0)

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def lt(self, a: TimeValue, b: TimeValue) -> bool:
        """True when ``a`` is strictly before ``b``."""

    @abc.abstractmethod
    def leq(self, a: TimeValue, b: TimeValue) -> bool:
        """True when ``a`` is at or before ``b``."""

    def gt(self, a: TimeValue, b: TimeValue) -> bool:
        """True when ``a`` is strictly after ``b``."""
        return self.lt(b, a)

    def geq(self, a: TimeValue, b: TimeValue) -> bool:
        """True when ``a`` is at or after ``b``."""
        return self.leq(b, a)

    def eq(self, a: TimeValue, b: TimeValue) -> bool:
        """True when ``a`` and ``b`` denote the same instant."""
        return self.leq(a, b) and self.leq(b, a)

    @abc.abstractmethod
    def is_positive(self, value: TimeValue) -> bool:
        """True when ``value`` is a genuine positive duration (above the
        backend's noise floor)."""

    @abc.abstractmethod
    def is_negative(self, value: TimeValue) -> bool:
        """True when ``value`` is genuinely negative (beyond noise)."""

    # ------------------------------------------------------------------
    # Derived arithmetic
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def ceil(self, value: TimeValue) -> int:
        """Integer ceiling in the backend's comparison semantics (the
        float backend forgives upward noise; the exact backend is
        ``math.ceil``)."""

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    @staticmethod
    def to_float(value: TimeValue) -> float:
        """Project a time value onto a float (for reporting/plots)."""
        return float(value)

    def canonical(self, value: TimeValue) -> Union[int, float, str]:
        """JSON-stable token of a value (see :func:`canonical_number`)."""
        return canonical_number(self.convert(value))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Timebase {self.name}>"


class FloatTimebase(Timebase):
    """IEEE-double times with the repository's historical tolerances."""

    name = "float"
    exact = False

    #: ``float`` itself, so the analyses' per-value conversions are C
    #: calls rather than Python frames.
    convert = staticmethod(float)

    def lt(self, a: TimeValue, b: TimeValue) -> bool:
        return a < b - REL_EPS * max(1.0, abs(b))

    def leq(self, a: TimeValue, b: TimeValue) -> bool:
        return a <= b + REL_EPS * max(1.0, abs(b))

    def is_positive(self, value: TimeValue) -> bool:
        return value > ABS_EPS

    def is_negative(self, value: TimeValue) -> bool:
        return value < -REL_EPS

    def ceil(self, value: TimeValue) -> int:
        return math.ceil(value - REL_EPS)


class ExactTimebase(Timebase):
    """Scaled-integer times with a rational fallback; no tolerances."""

    name = "exact"
    exact = True

    def convert(self, value: TimeValue) -> TimeValue:
        if isinstance(value, int):
            return value
        if isinstance(value, Fraction):
            return int(value) if value.denominator == 1 else value
        value = float(value)
        if math.isinf(value) or math.isnan(value):
            return value  # analysis sentinel, not a time
        numerator, denominator = value.as_integer_ratio()
        if denominator == 1:
            return numerator
        return Fraction(numerator, denominator)

    def lt(self, a: TimeValue, b: TimeValue) -> bool:
        return a < b

    def leq(self, a: TimeValue, b: TimeValue) -> bool:
        return a <= b

    def eq(self, a: TimeValue, b: TimeValue) -> bool:
        return a == b

    def is_positive(self, value: TimeValue) -> bool:
        return value > 0

    def is_negative(self, value: TimeValue) -> bool:
        return value < 0

    def ceil(self, value: TimeValue) -> int:
        return math.ceil(value)


#: Shared singletons -- the backends are stateless.
FLOAT = FloatTimebase()
EXACT = ExactTimebase()

TIMEBASES: dict[str, Timebase] = {FLOAT.name: FLOAT, EXACT.name: EXACT}


def get_timebase(spec: "str | Timebase | None") -> Timebase:
    """Resolve a backend by name (or pass an instance through).

    ``None`` resolves to the default float backend.
    """
    if spec is None:
        return FLOAT
    if isinstance(spec, Timebase):
        return spec
    try:
        return TIMEBASES[spec]
    except KeyError:
        raise ValueError(
            f"unknown timebase {spec!r}; known: {', '.join(TIMEBASES)}"
        ) from None

"""Region construction: monotone boundary search per dimension.

This generalizes :func:`repro.core.analysis.sensitivity.breakdown_scaling`
from one global scaling factor to a per-subtask box.  The search has
two stages, both built on the same primitive -- *probe a concrete
execution vector with the real analysis* (the exact analysis the
admission service runs, blocking-aware when the request declares shared
resources, skew-inflated when it declares a clock envelope) -- and on
the one monotone bisection,
:func:`~repro.core.analysis.sensitivity.bisect_boundary`:

1. **Uniform bisection.**  Find the largest verified factor
   ``lambda*`` such that ``lambda* * e0`` (the request's execution
   vector scaled uniformly, critical sections included) is schedulable.
   This is the breakdown search itself
   (:func:`~repro.core.analysis.sensitivity.largest_uniform_factor`),
   and seeds a verified corner.

2. **Coordinate ascent.**  Grow one dimension at a time by bisection,
   keeping every other dimension at its current corner value, and
   accept a growth only when the *full* grown corner re-verifies
   jointly.  Growing dimensions independently and combining the
   per-face maxima would be unsound -- schedulability is monotone but
   not separable (two subtasks on one processor can each grow alone but
   not together); sequential joint verification keeps the invariant
   that the current corner is always a directly verified point.

Every probe is counted; the total lands in
:attr:`~repro.regions.region.FeasibilityRegion.probes` so callers can
report the build cost the region must amortize.

A probe reads only a verdict.  SA/DS and SA/PM probes take breakdown
scaling's dispatch,
:func:`~repro.core.analysis.sensitivity.probe_schedulable`: the
utilization screen, then the blocking-aware analysis on a sectioned
shape, else the verdict-only base run.  On a section-free shape a
build compiles the shape once
(:class:`~repro.core.analysis.busy_period.CompiledShape`) and probes
each execution vector without materializing a system.  Sectioned and
skew-inflated probes materialize the point with
:func:`~repro.regions.shape.system_at` and run the full analysis.

Under the exact timebase the search bisects with ``Fraction``
midpoints, so every boundary is an exact rational -- no float drift --
and the default tolerance/cap are powers of two to keep denominators
small.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from repro.core.analysis.busy_period import CompiledShape
from repro.core.analysis.sensitivity import (
    base_verdict,
    bisect_boundary,
    largest_uniform_factor,
    overloaded,
    probe_schedulable,
)
from repro.core.analysis.skew import analyze_sa_pm_skewed
from repro.errors import ConfigurationError
from repro.model.system import System
from repro.regions.region import FeasibilityRegion
from repro.regions.shape import (
    dimension_names,
    execution_vector,
    shape_key,
    system_at,
)
from repro.service.engine import certifying_analysis
from repro.service.requests import AdmissionRequest
from repro.timebase import Timebase, get_timebase

__all__ = [
    "DEFAULT_TOLERANCE",
    "DEFAULT_MAX_FACTOR",
    "required_analyses",
    "probe_point",
    "compute_region",
]

#: Default relative resolution of the boundary search.  A power of two:
#: exact in floats, and exact-timebase midpoints keep power-of-two
#: denominators instead of growing arbitrary rationals.
DEFAULT_TOLERANCE = 1 / 64

#: Default cap on per-dimension growth, as a multiple of the request's
#: own execution times (the breakdown search's historical ceiling).
DEFAULT_MAX_FACTOR = 16.0


def required_analyses(request: AdmissionRequest) -> tuple[str, ...]:
    """The analyses the shape's protocol verdicts actually depend on.

    Each requested protocol's
    :func:`~repro.service.engine.certifying_analysis`, de-duplicated in
    request order.  A protocol the shape alone excludes (PM under
    unsynchronized or skewed clocks; MPM/RG under a skew envelope on a
    sectioned system -- always False) needs none, so a shape requesting
    only such protocols yields an *empty* requirement and a region that
    decides with zero probes.
    """
    analyses = (certifying_analysis(request, p) for p in request.protocols)
    return tuple(dict.fromkeys(a for a in analyses if a is not None))


def probe_point(
    request: AdmissionRequest,
    analysis: str,
    system: System,
    timebase: Timebase,
) -> bool:
    """Run one direct analysis at a concrete point; True = schedulable.

    This is the region's ground truth: the same analysis dispatch the
    admission service uses, on the same timebase.  SA/DS and SA/PM go
    through :func:`~repro.core.analysis.sensitivity.probe_schedulable`
    (utilization screen, then blocking-aware on a sectioned system,
    else verdict-only) -- the probe breakdown scaling runs.
    """
    if analysis in ("SA/DS", "SA/PM"):
        return probe_schedulable(
            system,
            analysis,
            sa_ds_max_iterations=request.sa_ds_max_iterations,
            timebase=timebase,
        )
    if analysis != "SA/PM-skew":
        raise ConfigurationError(f"unknown region analysis {analysis!r}")
    if overloaded(system.max_utilization, timebase):
        return False
    return analyze_sa_pm_skewed(
        system,
        rate=request.clock_rate_bound,
        jump=request.clock_jump_bound,
        timebase=timebase,
    ).schedulable


class _Prober:
    """Counted probes of one request's parameter space.

    SA/DS and SA/PM probes of a section-free shape run from the shape,
    compiled once here, and the probed vector: :func:`system_at` keeps
    a subtask whose target equals its own execution time, so the probe
    does too, and the utilization screen sums in
    ``System.processor_utilization``'s order -- every value is the one
    the materialized point would give -- and the screen and the verdict
    are :func:`~repro.core.analysis.sensitivity.probe_schedulable`'s
    own.  Other probes materialize the point and go through
    :func:`probe_point`.
    """

    def __init__(
        self, request: AdmissionRequest, timebase: Timebase
    ) -> None:
        self.request = request
        self.timebase = timebase
        self.count = 0
        system = request.system
        self.shape = CompiledShape(system, timebase)
        self.given = execution_vector(system)
        self.periods = [system.period_of(sid) for sid in self.shape.sids]
        index = {sid: k for k, sid in enumerate(self.shape.sids)}
        self.processors = [
            [index[sid] for sid in system.subtasks_on(processor)]
            for processor in system.processors
        ]

    def __call__(self, analysis: str, vector) -> bool:
        self.count += 1
        system = self.request.system
        if analysis == "SA/PM-skew" or system.has_critical_sections:
            return probe_point(
                self.request, analysis, system_at(system, vector), self.timebase
            )
        times = [
            given if target == given else target
            for target, given in zip(vector, self.given)
        ]
        periods = self.periods
        utilization = max(
            sum(times[k] / periods[k] for k in group)
            for group in self.processors
        )
        if overloaded(utilization, self.timebase):
            return False
        return base_verdict(
            self.shape.at(times), analysis, self.request.sa_ds_max_iterations
        )


def _search_scalars(tolerance, max_factor, ascent_rounds, exact: bool):
    """The validated ``(tolerance, cap, one)`` of a search.  Under the
    exact timebase each is a small exact rational, and one that rounds
    to 0 is refused: ``Fraction`` midpoints never meet, so a zero
    tolerance would bisect forever."""
    scalars = []
    for name, value in (("tolerance", tolerance), ("max_factor", max_factor)):
        scalar = Fraction(value).limit_denominator(1 << 20) if exact else value
        if scalar <= 0:
            raise ConfigurationError(
                f"{name} must be > 0 (> 2**-21 on the exact timebase), "
                f"got {value!r}"
            )
        scalars.append(scalar)
    if ascent_rounds < 0:
        raise ConfigurationError(
            f"ascent_rounds must be >= 0, got {ascent_rounds!r}"
        )
    return (*scalars, Fraction(1) if exact else 1.0)


def _ascend(ok, corner, e0, max_factor, tolerance, rounds: int, *, dimensions=None):
    """Grow the verified corner one dimension at a time.

    Precondition: ``corner`` was directly verified.  Every accepted
    growth re-verifies the whole corner jointly, so the precondition is
    an invariant and the returned corner is a certified point.
    ``dimensions`` restricts the sweep (the incremental layer passes
    only the touched dimensions); default is all of them.
    """
    corner = list(corner)
    sweep = range(len(corner)) if dimensions is None else tuple(dimensions)
    for _ in range(rounds):
        for k in sweep:
            cap = e0[k] * max_factor
            if not corner[k] < cap:
                continue

            def at(value):
                probe = list(corner)
                probe[k] = value
                return tuple(probe)

            if ok(at(cap)):
                corner[k] = cap
                continue
            corner[k] = bisect_boundary(
                lambda value: ok(at(value)), corner[k], cap, e0[k] * tolerance
            )
    return tuple(corner)


def compute_region(
    request: AdmissionRequest,
    *,
    timebase=None,
    tolerance: float = DEFAULT_TOLERANCE,
    max_factor: float = DEFAULT_MAX_FACTOR,
    ascent_rounds: int = 1,
) -> FeasibilityRegion:
    """Build the feasibility region of one request's shape.

    The returned region holds, for every analysis the shape's verdicts
    depend on (see :func:`required_analyses`), a corner vector that was
    *directly verified schedulable* -- or ``None`` when even the
    smallest resolvable uniform scaling fails.  ``tolerance`` is the
    relative resolution of every boundary; ``max_factor`` caps growth
    at a multiple of the request's own execution times;
    ``ascent_rounds`` is how many sweeps over the dimensions the
    coordinate ascent makes after the uniform seed (0 = uniform box
    only).
    """
    tb = get_timebase(timebase)
    tol, cap, one = _search_scalars(
        tolerance, max_factor, ascent_rounds, tb.exact
    )
    system = request.system
    e0 = tuple(tb.convert(e) for e in execution_vector(system))
    prober = _Prober(request, tb)
    corners: dict[str, tuple | None] = {}
    for analysis in required_analyses(request):
        ok = partial(prober, analysis)
        factor = largest_uniform_factor(
            lambda f: ok(tuple(e * f for e in e0)), cap, tol, one=one
        )
        if factor <= 0:
            corners[analysis] = None
            continue
        corner = tuple(e * factor for e in e0)
        if ascent_rounds and factor < cap:
            corner = _ascend(ok, corner, e0, cap, tol, ascent_rounds)
        corners[analysis] = corner
    return FeasibilityRegion(
        shape_key=shape_key(request),
        timebase=tb.name,
        dimensions=dimension_names(system),
        corners=corners,
        probes=prober.count,
    )

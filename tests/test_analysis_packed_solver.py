"""The busy-period kernel's packed solver equals the reference solver.

``busy_period._solve_packed`` iterates the demand
``W(t) = base + sum ceil((t + J)/p) e`` over packed ``(e, p, J)``
triples in its own loop.  :func:`~repro.core.analysis.fixpoint.
solve_fixed_point`, run on the same demand written as a closure, is the
reference: on both timebases and in both fold orders (accumulated onto
``base``, or summed from zero with ``base`` added last) the two must
return the same value (by type and ``repr``) after the same number of
demand evaluations, the same ``None`` past the cap, and the same
:class:`~repro.errors.AnalysisError` on a non-positive start, a
decreasing iterate and an exhausted iteration budget.  The packed
solver's ``settled`` flag must hold only on an exact fixed point, and on
every exact-timebase stop.  Terms are drawn
as in ``test_warm_start_equals_cold_passes_near_demand_edges``: quarter
steps moved by a few ``REL_EPS * p``, so demand sums land on the float
ceiling's tolerance band.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis.busy_period import _denominator_lcm, _solve_packed
from repro.core.analysis.fixpoint import solve_fixed_point
from repro.errors import AnalysisError
from repro.timebase import REL_EPS, get_timebase

_PERIODS = st.sampled_from([4.0, 5.0, 6.0, 8.0, 10.0, 12.0])


def _near(draw, low: int, high: int, period: float) -> float:
    """A quarter step in ``[low/4, high/4]``, moved by up to four float
    tolerances of ``period`` in eighths: below 1 the solver's tolerance
    is ``REL_EPS`` itself, a fraction of ``REL_EPS * p``."""
    quarters = draw(st.integers(low, high))
    return quarters / 4 + draw(st.integers(-32, 32)) * REL_EPS * period / 8


def _reference_demand(packed, base, onto_base, exact):
    """The demand as a closure, written from its definition: exact
    ceilings through ``math.ceil`` of a rational, float ceilings with
    the backward tolerance."""
    if exact:

        def count(t, p, j):
            return math.ceil(Fraction(t + j) / p)

    else:

        def count(t, p, j):
            return math.ceil((t + j) / p - REL_EPS)

    def demand(t):
        total = base if onto_base else (0 if exact else 0.0)
        for e, p, j in packed:
            total += count(t, p, j) * e
        return total if onto_base else base + total

    return demand


def _outcomes(packed, base, onto_base, start, cap, timebase):
    """``(packed solver, reference)``: each ``("value", repr, type,
    evaluations)`` or ``("error", message)``."""
    demand = _reference_demand(packed, base, onto_base, timebase.exact)
    try:
        value, evaluations, settled = _solve_packed(
            packed, base, onto_base, start, cap, timebase.exact
        )
        packed_outcome = ("value", repr(value), type(value), evaluations)
        # ``settled``: the stop was on an exact fixed point, as every
        # exact stop is.
        if value is None:
            assert not settled
        elif settled:
            assert demand(value) == value
        else:
            assert not timebase.exact
    except AnalysisError as error:
        packed_outcome = ("error", str(error))
    calls = [0]

    def counted(t):
        calls[0] += 1
        return demand(t)

    try:
        value = solve_fixed_point(counted, start, cap, timebase=timebase)
        reference_outcome = ("value", repr(value), type(value), calls[0])
    except AnalysisError as error:
        reference_outcome = ("error", str(error))
    return packed_outcome, reference_outcome


def _in_timebase(timebase, scaled, values):
    """``values`` converted to ``timebase``; under the exact timebase
    and with ``scaled``, rescaled to integers as the kernel does."""
    values = [timebase.convert(v) for v in values]
    if timebase.exact and scaled:
        scale = _denominator_lcm(values)
        values = [
            v.numerator * (scale // v.denominator)
            if isinstance(v, Fraction)
            else v * scale
            for v in values
        ]
    return values


@st.composite
def problems(draw):
    """One solver input: terms, base, start and cap, in a timebase."""
    timebase = get_timebase(draw(st.sampled_from(["float", "exact"])))
    onto_base = draw(st.booleans())
    scaled = draw(st.booleans())
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        period = draw(_PERIODS)
        # Negative execution times make decreasing demands.
        e, j = _near(draw, -2, 8, period), _near(draw, 0, 24, period)
        terms += [e, period, j]
    base = max(0.0, _near(draw, 0, 12, 8.0))
    cold = base + sum(terms[0::3]) if onto_base else base
    start = draw(
        st.one_of(
            st.just(cold),
            st.integers(-4, 200).map(lambda q: q / 4),
        )
    )
    cap = draw(st.integers(1, 1600)) / 4
    values = _in_timebase(timebase, scaled, terms + [base, start, cap])
    packed = [tuple(values[i : i + 3]) for i in range(0, len(terms), 3)]
    base, start, cap = values[-3:]
    return packed, base, onto_base, start, cap, timebase


@settings(max_examples=400, deadline=None)
@given(problem=problems())
def test_packed_solver_equals_reference(problem):
    packed_outcome, reference_outcome = _outcomes(*problem)
    assert packed_outcome == reference_outcome


@st.composite
def creeping_problems(draw):
    """A level loaded to exactly 1 with a positive base: every step
    grows by a period, so a far cap exhausts the iteration budget."""
    timebase = get_timebase(draw(st.sampled_from(["float", "exact"])))
    period = draw(_PERIODS)
    values = _in_timebase(
        timebase,
        draw(st.booleans()),
        [period, period, 0.0, draw(st.integers(1, 8)) / 4, period, 1e12],
    )
    e, p, j, base, start, cap = values
    return [(e, p, j)], base, draw(st.booleans()), start, cap, timebase


@settings(max_examples=6, deadline=None)
@given(problem=creeping_problems())
def test_budget_exhaustion_equals_reference(problem):
    packed_outcome, reference_outcome = _outcomes(*problem)
    assert packed_outcome[0] == "error"
    assert "did not settle" in packed_outcome[1]
    assert packed_outcome == reference_outcome


def test_fixed_cases_equal_reference():
    """Each outcome the property compares, on a fixed input."""
    float_tb, exact_tb = get_timebase("float"), get_timebase("exact")
    one = [(1.0, 4.0, 0.0)]
    cases = [
        ((one, 1.0, True, 2.0, 100.0, float_tb), ("value", "2.0", float, 1)),
        # Below 1 the tolerance is REL_EPS: a growth of 0.8 REL_EPS stops.
        (
            ([(0.5 + 0.8 * REL_EPS, 4.0, 0.0)], 0.0, True, 0.5, 9.0, float_tb),
            ("value", repr(0.5 + 0.8 * REL_EPS), float, 1),
        ),
        (
            ([(4.0, 4.0, 0.0)], 1.0, False, 1.0, 10.0, float_tb),
            ("value", "None", type(None), 3),
        ),
        (
            (one, 1.0, True, 0.0, 100.0, float_tb),
            ("error", "fixed-point start must be > 0, got 0.0"),
        ),
        (
            ([(1, 4, 0)], 1, True, 50, 100, exact_tb),
            ("error", "demand function is not monotone: W(50) = 14 < 50"),
        ),
    ]
    for problem, expected in cases:
        assert _outcomes(*problem) == (expected, expected)

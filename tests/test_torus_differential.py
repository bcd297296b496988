"""Differential tests of the Bernstein torus sup-norm against interval arithmetic.

`interval_torus.torus_sup_norm` is the former interval-arithmetic
branch-and-bound, kept as an oracle.  Both return certified brackets around
the same sup, so they must intersect; the new one must also be at most 2^-k
wide and lie above |f| at every rational circle point t = j/16 of both charts.
What the module caches per degree (layouts, chart factors, conversion
weights) is checked to be tuples that a run leaves as they were, and runs
that alternate degree tuples to match runs from cleared caches.  A constant
returns the chart route's bracket without building a chart.
"""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

import interval_torus
from contlogic import torus
from contlogic.dyadic import sqrt_interval
from contlogic.gaussian import GaussianRational

PARTS = [Fraction(c) for c in (-1, 0, 0, 1, 2)] + [
    Fraction(1, 2), Fraction(-1, 3), Fraction(3, 4), Fraction(-2, 5),
]
GRID = [
    interval_torus._circle_point(Fraction(j, 16), sign)
    for sign in (1, -1) for j in range(-16, 17)
]


def _elements(dims):
    coeff = st.builds(GaussianRational, st.sampled_from(PARTS), st.sampled_from(PARTS))
    vec = st.tuples(*[st.integers(-3, 3)] * dims)
    return st.dictionaries(vec, coeff, min_size=1, max_size=4)


def _check(support, k):
    lo, hi = torus.torus_sup_norm(support, k)
    o_lo, o_hi = interval_torus.torus_sup_norm(support, k)
    assert 0 <= lo <= hi and hi - lo <= Fraction(1, 2 ** k)
    assert lo <= o_hi and o_lo <= hi
    dims = len(next(iter(support)))
    for points in product(GRID, repeat=dims):
        assert hi * hi >= interval_torus._abs_sq_exact(support, list(points))
    return lo, hi


@settings(max_examples=25, deadline=None)
@given(_elements(1), st.integers(1, 6))
def test_z_brackets_agree_with_interval_oracle(support, k):
    _check(support, k)


@settings(max_examples=3, deadline=None, derandomize=True)
@given(_elements(2))
def test_z2_brackets_agree_with_interval_oracle(support):
    _check(support, 1)


def test_constant_element_is_exact():
    for k in (1, 6):
        assert _check({(0,): GaussianRational(Fraction(3, 4), Fraction(0))}, k) == (
            Fraction(3, 4), Fraction(3, 4))


def test_bracket_covers_a_corner_found_after_the_top_box():
    # best_lb passed every upper bound left in the heap; the bracket must
    # still reach up to it
    support = {
        (-2,): GaussianRational(Fraction(1, 4), Fraction(-1, 4)),
        (0,): GaussianRational(Fraction(1, 2), Fraction(-1, 2)),
        (3,): GaussianRational(Fraction(-1, 4), Fraction(1, 4)),
    }
    _check(support, 4)


def test_degree_zero_axis_is_never_split(monkeypatch):
    lengths = []
    split = torus._split

    def record(coeffs, fibers):
        lengths.append(len(fibers[0]))  # the degree of the split axis, plus one
        return split(coeffs, fibers)

    monkeypatch.setattr(torus, "_split", record)
    only_u = {
        (2, 0): GaussianRational(Fraction(1, 2), Fraction(0)),
        (-1, 0): GaussianRational(Fraction(0), Fraction(1, 3)),
    }
    _check(only_u, 1)
    bracket = torus.torus_sup_norm(only_u, 10)
    assert lengths and set(lengths) == {9}  # u has degree 4*2, v degree 0
    assert torus.torus_sup_norm({(2,): only_u[(2, 0)], (-1,): only_u[(-1, 0)]}, 10) == bracket


# one support per degree tuple: (1,), (3,), (1, 2) and (2, 0)
ALTERNATING = [
    ({(1,): GaussianRational(Fraction(1), Fraction(0)),
      (-1,): GaussianRational(Fraction(0), Fraction(1, 2))}, 6),
    ({(3,): GaussianRational(Fraction(-1, 3), Fraction(0)),
      (0,): GaussianRational(Fraction(1, 2), Fraction(1, 2))}, 4),
    ({(1, -2): GaussianRational(Fraction(1), Fraction(1)),
      (0, 1): GaussianRational(Fraction(-1, 2), Fraction(0))}, 2),
    ({(2, 0): GaussianRational(Fraction(3, 4), Fraction(0)),
      (-1, 0): GaussianRational(Fraction(0), Fraction(-1))}, 5),
]
CACHES = (torus._layout, torus._chart_factor, torus._bernstein_weights)


def _tuples_of_ints(value) -> bool:
    if isinstance(value, tuple):
        return all(_tuples_of_ints(v) for v in value)
    return type(value) is int


def test_alternating_degrees_match_runs_from_cleared_caches():
    fresh = []
    for support, k in ALTERNATING:
        for cache in CACHES:
            cache.cache_clear()
        fresh.append(torus.torus_sup_norm(support, k))
    for _ in range(2):
        for (support, k), bracket in zip(ALTERNATING + ALTERNATING[::-1],
                                         fresh + fresh[::-1]):
            assert torus.torus_sup_norm(support, k) == bracket
    assert all(cache.cache_info().maxsize is not None for cache in CACHES)


def test_cached_layouts_and_factors_are_tuples_left_unchanged():
    support, k = ALTERNATING[2]
    torus.torus_sup_norm(support, k)
    layout = torus._layout((1, 2))
    factors = [torus._chart_factor(m, e) for m in (1, 2) for e in range(-m, m + 1)]
    before = repr((layout, factors))
    assert _tuples_of_ints(layout) and all(map(_tuples_of_ints, factors))
    for support, k in ALTERNATING:
        torus.torus_sup_norm(support, k)
    assert torus._layout((1, 2)) is layout
    assert [torus._chart_factor(m, e) for m in (1, 2) for e in range(-m, m + 1)] == factors
    assert repr((layout, factors)) == before


def test_layout_chart_factors_are_tuples_by_exponent():
    # `_chart_numerator` reads axis j's factor of z^e at e + M_j of the layout's
    # last entry; a run of other degree tuples leaves it as it was
    for degrees in ((1,), (3,), (1, 2), (2, 0)):
        factors = torus._layout(degrees)[-1]
        before = repr(factors)
        assert type(factors) is tuple and len(factors) == len(degrees)
        for m, axis in zip(degrees, factors):
            assert type(axis) is tuple and _tuples_of_ints(axis)
            assert axis == tuple(torus._chart_factor(m, e) for e in range(-m, m + 1))
        for support, k in ALTERNATING:
            torus.torus_sup_norm(support, k)
        assert repr(torus._layout(degrees)[-1]) == before


# constants, each with a zero coefficient of degree 3 that drops out, and the
# brackets the chart route returned for them
CONSTANTS = [
    (GaussianRational(Fraction(1, 2), Fraction(1, 3)), 1,
     {1: (Fraction(1, 2), Fraction(5, 8)), 4: (Fraction(19, 32), Fraction(39, 64)),
      9: (Fraction(615, 1024), Fraction(1231, 2048))}),
    (GaussianRational(Fraction(-2, 3), Fraction(0)), 2,
     {1: (Fraction(5, 8), Fraction(3, 4)), 4: (Fraction(21, 32), Fraction(43, 64)),
      9: (Fraction(1365, 2048), Fraction(683, 1024))}),
    (GaussianRational(Fraction(0), Fraction(5, 7)), 1,
     {1: (Fraction(5, 8), Fraction(3, 4)), 4: (Fraction(45, 64), Fraction(23, 32)),
      9: (Fraction(731, 1024), Fraction(1463, 2048))}),
]


def test_a_constant_skips_the_charts(monkeypatch):
    zero = GaussianRational(Fraction(0), Fraction(0))

    def no_chart(*a):
        raise AssertionError("a constant needs no chart")

    monkeypatch.setattr(torus, "_chart_numerator", no_chart)
    for c, dims, brackets in CONSTANTS:
        support = {(0,) * dims: c, (3,) + (0,) * (dims - 1): zero}
        for k, bracket in brackets.items():
            assert _check(support, k) == bracket
            assert bracket == sqrt_interval(c.abs_sq(), k + 2)
    # a constant that cancels to zero, alone or beside zero terms of positive degree
    for support in ({(0,): zero}, {(0, 0): zero, (1, -1): zero}):
        assert torus.torus_sup_norm(support, 5) == (Fraction(0), Fraction(0))

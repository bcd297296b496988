"""Differential tests of the Bernstein torus sup-norm against interval arithmetic.

`interval_torus.torus_sup_norm` is the former interval-arithmetic
branch-and-bound, kept as an oracle.  Both return certified brackets around
the same sup, so they must intersect; the new one must also be at most 2^-k
wide and lie above |f| at every rational circle point t = j/16 of both charts.
"""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

import interval_torus
from contlogic import torus
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

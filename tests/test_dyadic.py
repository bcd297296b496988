import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import grid_roots

from contlogic import groups as G
from contlogic import matrices as M
from contlogic.dyadic import (
    int_nth_root,
    is_dyadic,
    nth_root_lower_grid,
    nth_root_upper_grid,
    sqrt_interval,
)
from contlogic.gaussian import gr
from contlogic.torus import torus_sup_norm


def test_is_dyadic():
    assert is_dyadic(Fraction(3, 8))
    assert is_dyadic(Fraction(5))
    assert not is_dyadic(Fraction(1, 3))


@given(st.integers(0, 10**12), st.integers(1, 9))
def test_int_nth_root_exact(x, n):
    r = int_nth_root(x, n)
    assert r**n <= x < (r + 1) ** n


def test_sqrt_interval_exact_square():
    lo, hi = sqrt_interval(Fraction(9, 16), 10)
    assert lo == hi == Fraction(3, 4)


def test_sqrt_interval_encloses():
    rng = random.Random(7)
    for _ in range(100):
        x = Fraction(rng.randint(0, 10**6), rng.randint(1, 10**6))
        k = rng.randint(0, 20)
        lo, hi = sqrt_interval(x, k)
        assert lo * lo <= x <= hi * hi
        assert hi - lo <= Fraction(1, 2**k)
        assert is_dyadic(lo) and is_dyadic(hi)


def test_nth_root_upper_grid_is_ceiling():
    # 2^(1/2) between 1.414 and 1.415; grid 2^-10
    up = nth_root_upper_grid(Fraction(2), 2, 10)
    assert up**2 >= 2
    assert (up - Fraction(1, 1024)) ** 2 < 2
    # exact when the root lies on the grid
    assert nth_root_upper_grid(Fraction(1), 512, 16) == 1
    assert nth_root_upper_grid(Fraction(9, 4), 2, 4) == Fraction(3, 2)


@st.composite
def kernel_radicands(draw):
    """(t / D^(2^(m+1)), 2^(m+1)) as `matrices` takes its roots: t an
    integer trace up to 64 D^(2^(m+1)), roots up to 512."""
    root = 2 ** (draw(st.integers(0, 8)) + 1)
    d = draw(st.integers(1, 60))
    return Fraction(draw(st.integers(0, 64 * d**root)), d**root), root


GENERIC_RADICANDS = st.tuples(st.builds(Fraction, st.integers(0, 10**40), st.integers(1, 10**40)),
                              st.integers(1, 512))


@given(st.one_of(GENERIC_RADICANDS, kernel_radicands()), st.integers(0, 20))
def test_nth_root_upper_grid_is_least_grid_point_above_the_root(radicand, k):
    # checked by raising grid points to the n-th power, with no root taken
    x, n = radicand
    c = nth_root_upper_grid(x, n, k) * 2**k
    assert c.denominator == 1
    assert (c / 2**k) ** n >= x
    if c > 0:
        assert ((c - 1) / 2**k) ** n < x


def test_nth_root_upper_grid_monotone_in_radicand():
    rng = random.Random(11)
    values = sorted(
        Fraction(rng.randint(1, 10**8), rng.randint(1, 10**4)) for _ in range(40)
    )
    bounds = [nth_root_upper_grid(v, 6, 12) for v in values]
    assert bounds == sorted(bounds)


def test_nth_root_lower_grid_sandwich():
    rng = random.Random(13)
    for _ in range(50):
        x = Fraction(rng.randint(0, 10**9), rng.randint(1, 100))
        n = rng.choice([2, 4, 10, 80])
        k = rng.randint(1, 16)
        lo = nth_root_lower_grid(x, n, k)
        assert lo**n <= x
        assert (lo + Fraction(1, 2**k)) ** n >= x
        assert is_dyadic(lo)


def test_nth_root_lower_grid_is_grid_floor():
    # value exactly on the grid comes back unchanged
    assert nth_root_lower_grid(Fraction(9, 16), 2, 8) == Fraction(3, 4)


@st.composite
def grid_root_cases(draw):
    """(x, n, k) where one kernel could slip: exact powers (c/2^s)^n, one
    unit of the scaled numerator above and below a grid power (c/2^k)^n,
    over 1 or an odd denominator, zero and tiny x, and generic x."""
    n = draw(st.one_of(st.integers(1, 8), st.integers(1, 512), st.sampled_from([256, 512])))
    k = draw(st.integers(0, 20))
    c = draw(st.integers(0, 2**12))
    d = draw(st.sampled_from([1, 3, 7, 255]))
    x = draw(st.one_of(
        st.builds(lambda s: Fraction(c, 2**s) ** n, st.integers(0, 20)),
        st.builds(lambda u: Fraction(max(c**n * d + u, 0), d << k * n), st.integers(-1, 1)),
        st.sampled_from([Fraction(0), Fraction(1, 10**60), Fraction(1, 2 ** (k * n + 1)),
                         Fraction(2 ** (k * n) - 1, 2 ** (k * n))]),
        st.builds(Fraction, st.integers(0, 10**40), st.integers(1, 10**40)),
    ))
    return x, n, k


@settings(max_examples=300, deadline=None)
@given(grid_root_cases())
def test_grid_roots_match_the_former_three_kernels(case):
    x, n, k = case
    lower = nth_root_lower_grid(x, n, k)
    upper = nth_root_upper_grid(x, n, k)
    assert lower == grid_roots.nth_root_lower_grid(x, n, k, grid_roots.cap_above(x))
    assert upper == grid_roots.nth_root_upper_grid(x, n, k)
    assert sqrt_interval(x, k) == grid_roots.sqrt_interval(x, k)
    assert upper - lower in (0, Fraction(1, 2**k))
    assert (upper == lower) == (lower**n == x)


_U = G.element(G.free_group("u", "v"), [(1, (("u", 1),))])


@pytest.mark.parametrize("call", [
    lambda k: sqrt_interval(Fraction(2), k),
    lambda k: nth_root_upper_grid(Fraction(2), 3, k),
    lambda k: nth_root_lower_grid(Fraction(2), 3, k),
    lambda k: torus_sup_norm({(1,): gr(1), (0,): gr(1)}, k),
    lambda k: torus_sup_norm({}, k),
    lambda k: G.moment_root_lower(_U, Fraction(1), 1, k),
    lambda k: G.lambda_norm_lower(_U, 2, k),
    lambda k: G.lambda_norm_lower_sweep(_U, 3, k),
    lambda k: G.two_norm(_U, k),
    lambda k: M.two_norm(M.enumerate_matrices(3), k),
], ids=["sqrt", "upper-root", "lower-root", "torus", "torus-zero", "moment-root", "lambda",
        "lambda-sweep", "group-two-norm", "matrix-two-norm"])
def test_negative_precision_is_refused(call):
    for k in (-1, -2):
        with pytest.raises(ValueError, match=f"^precision must be >= 0, got {k}$"):
            call(k)
    call(0)

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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
        lo = nth_root_lower_grid(x, n, k, hi_pow2=40)
        assert lo**n <= x
        assert (lo + Fraction(1, 2**k)) ** n >= x
        assert is_dyadic(lo)


def test_nth_root_lower_grid_is_grid_floor():
    # value exactly on the grid comes back unchanged
    assert nth_root_lower_grid(Fraction(9, 16), 2, 8, hi_pow2=2) == Fraction(3, 4)


_U = G.element(G.free_group("u", "v"), [(1, (("u", 1),))])


@pytest.mark.parametrize("call", [
    lambda k: sqrt_interval(Fraction(2), k),
    lambda k: torus_sup_norm({(1,): gr(1), (0,): gr(1)}, k),
    lambda k: torus_sup_norm({}, k),
    lambda k: G.moment_root_lower(_U, Fraction(1), 1, k),
    lambda k: G.lambda_norm_lower(_U, 2, k),
    lambda k: G.lambda_norm_lower_sweep(_U, 3, k),
    lambda k: G.two_norm(_U, k),
    lambda k: M.two_norm(M.enumerate_matrices(3), k),
], ids=["sqrt", "torus", "torus-zero", "moment-root", "lambda", "lambda-sweep",
        "group-two-norm", "matrix-two-norm"])
def test_negative_precision_is_refused(call):
    for k in (-1, -2):
        with pytest.raises(ValueError, match=f"^precision must be >= 0, got {k}$"):
            call(k)
    call(0)

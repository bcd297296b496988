"""Differential tests of the integer trace-power kernels against Fraction ones.

`fraction_kernels` holds the Fraction kernels the integer ones replaced:
the `Matrix.__mul__` trace-power chain, the Gaussian Rayleigh quotient, the
Fraction excursion DP and the bisection for grid n-th roots, and the Fraction
group-algebra product; also the all-Newton integer n-th root.  The
moment routes are also checked against power products formed with that
product.  Every value compared is exact.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_kernels
from contlogic import groups as G
from contlogic import matrices as M
from contlogic.dyadic import int_nth_root, nth_root_lower_grid
from contlogic.gaussian import GaussianRational

UNITS = st.integers(-1, 1).map(Fraction)
INTEGERS = st.integers(-6, 6).map(Fraction)
RATIONALS = st.one_of(INTEGERS, st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)))


def _gaussians(parts):
    return st.builds(GaussianRational, parts, parts)


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 4))
    entries = _gaussians(draw(st.sampled_from([INTEGERS, RATIONALS])))
    shape = draw(st.sampled_from(["general", "zero", "hermitian", "rank1"]))
    if shape == "zero":
        return M.Matrix.zero(n)
    if shape == "rank1":
        u = [draw(entries) for _ in range(n)]
        v = [draw(entries) for _ in range(n)]
        return M.Matrix([[x * y.conjugate() for y in v] for x in u])
    a = M.Matrix([[draw(entries) for _ in range(n)] for _ in range(n)])
    if shape == "hermitian":
        return a + a.conj_transpose()
    return a


@settings(max_examples=60, deadline=None)
@given(matrices(), st.integers(0, 6))
def test_opnorm_upper_matches_fraction_chain(a, m):
    assert M.opnorm_upper(a, m) == fraction_kernels.opnorm_upper(a, m)


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_opnorm_upper_sweep_matches_single_calls(a):
    assert M.opnorm_upper_sweep(a, 9) == [M.opnorm_upper(a, m) for m in range(9)]


def _rayleigh(fn, a, v, k):
    try:
        return fn(a, v, k)
    except M.MatrixError as exc:
        return type(exc).__name__


@st.composite
def rayleigh_cases(draw):
    a = draw(matrices())
    parts = draw(st.sampled_from([UNITS, INTEGERS, RATIONALS]))
    # mostly the matrix's own size; another length must raise SizeMismatch
    n = draw(st.one_of(st.just(a.n), st.integers(0, 5)))
    v = tuple(draw(_gaussians(parts)) for _ in range(n))
    return a, v, draw(st.integers(0, 24))


@settings(max_examples=200, deadline=None)
@given(rayleigh_cases())
def test_opnorm_lower_matches_gaussian_rayleigh(case):
    assert (_rayleigh(M.opnorm_lower, *case)
            == _rayleigh(fraction_kernels.opnorm_lower, *case))


def test_opnorm_upper_sweep_edges():
    assert M.opnorm_upper_sweep(M.Matrix.zero(3), 4) == [0, 0, 0, 0]
    assert M.opnorm_upper_sweep(M.Matrix.identity(2), 0) == []
    one = M.Matrix([[GaussianRational(Fraction(0), Fraction(-3, 4))]])
    assert M.opnorm_upper_sweep(one, 5) == [Fraction(3, 4)] * 5


# -- trace moments ---------------------------------------------------------


def _power_products(a, n):
    """[tau((a* a)^j) for j = 1..n] from Fraction algebra products alone."""
    h = fraction_kernels.algebra_mul(a.adjoint(), a)
    power, out = h, []
    for _ in range(n):
        out.append(power.trace().re)
        power = fraction_kernels.algebra_mul(power, h)
    return out


def _s3():
    perms = list(itertools.permutations(range(3)))
    names = ["e", "r", "r2", "s", "sr", "sr2"]
    by_perm = dict(zip([(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)],
                       names))
    assert set(by_perm) == set(perms)
    table = [[by_perm[tuple(p[q[i]] for i in range(3))] for q in by_perm] for p in by_perm]
    return G.table_group(tuple(names), "e", table)


F2 = G.free_group("u", "v")
LETTERS = [(("u", 1),), (("u", -1),), (("v", 1),), (("v", -1),), ()]
Z4 = G.rewriting_group(("a",), [("aaaa", ""), ("A", "aaa")])
# (spec, support pool, largest n): power products on F2 words grow
# exponentially, tenfold per step past n = 3
CONV_GROUPS = [
    (G.free_abelian("u"), [(("u", 1),), (("u", -1),), (("u", 3),), ()], 6),
    (F2, [(("u", 1), ("v", 1)), (("u", -1),), (("v", -1), ("u", 1)), ()], 3),
    (_s3(), [(("r", 1),), (("s", 1),), (("sr", 1),), ()], 6),
    (Z4, [(("a", 1),), (("a", 2),), ()], 6),
]


@st.composite
def elements(draw, spec, pool, parts=RATIONALS):
    words = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True))
    return G.element(spec, [(draw(_gaussians(parts)), w) for w in words])


# (spec, generator, support pool): groups where many products land on one
# word, so that with UNITS coefficients partial sums often cancel
PRODUCT_GROUPS = [
    (F2, "u", LETTERS + [(("u", 1), ("v", 1)), (("v", -1), ("u", 1))]),
    (G.free_abelian("u", "v"), "u",
     [(("u", 1),), (("u", -1),), (("v", 1),), (("u", 1), ("v", -1)), ()]),
    (_s3(), "r", [(("r", 1),), (("r2", 1),), (("s", 1),), (("sr", 1),), ()]),
    (Z4, "a", [(("a", 1),), (("a", 2),), (("a", 3),), ()]),
]


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(PRODUCT_GROUPS), st.sampled_from([UNITS, INTEGERS, RATIONALS]))
def test_product_matches_fraction_product(data, group, parts):
    spec, _, pool = group
    a, b = data.draw(elements(spec, pool, parts)), data.draw(elements(spec, pool, parts))
    assert a * b == fraction_kernels.algebra_mul(a, b)


def test_product_drops_cancelled_terms():
    for spec, g, _ in PRODUCT_GROUPS:
        up, down = ((g, 1),), ((g, -1),)
        a = G.element(spec, [(1, up), (1, down)])
        b = G.element(spec, [(1, up), (-1, down)])
        # (g + g^-1)(g - g^-1) = g^2 - 1 + 1 - g^-2
        product = a * b
        assert product == fraction_kernels.algebra_mul(a, b)
        assert product == G.element(spec, [(1, up + up), (-1, down + down)])
        assert G.IDENTITY not in product.coeffs


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 9))
def test_dp_route_matches_fraction_dp(data, n):
    a = data.draw(elements(F2, LETTERS))
    assert G.moments_up_to(a, n) == fraction_kernels.moments_up_to(a, n)


@settings(max_examples=30, deadline=None)
@given(st.data(), st.integers(1, 3))
def test_dp_route_matches_power_products(data, n):
    a = data.draw(elements(F2, LETTERS))
    assert G._letter_weights(a) is not None
    assert G.moments_up_to(a, n) == _power_products(a, n)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(CONV_GROUPS))
def test_convolution_route_matches_power_products(data, group):
    spec, pool, max_n = group
    a = data.draw(elements(spec, pool))
    n = data.draw(st.integers(1, max_n))
    assert G.moments_up_to(a, n) == _power_products(a, n)


# -- grid roots ------------------------------------------------------------


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@st.composite
def root_cases(draw):
    n = draw(st.integers(1, 8))
    k = draw(st.integers(-4, 12))
    hi_pow2 = draw(st.integers(-4, 6))
    hi = Fraction(2) ** hi_pow2
    x = draw(st.one_of(
        st.builds(Fraction, st.integers(-2, 10**6), st.integers(1, 10**4)),
        st.just(hi**n),  # the top edge, where bisection stops at hi - 2^-k
        st.builds(lambda c, s: Fraction(c, 2**s) ** n, st.integers(0, 80), st.integers(0, 8)),
    ))
    return x, n, k, hi_pow2


@settings(max_examples=300, deadline=None)
@given(root_cases())
def test_nth_root_lower_grid_matches_bisection(case):
    assert (_outcome(nth_root_lower_grid, *case)
            == _outcome(fraction_kernels.nth_root_lower_grid, *case))


def test_nth_root_lower_grid_edges():
    # x == hi^n returns hi - 2^-k, as the bisection does
    assert nth_root_lower_grid(Fraction(8), 3, 4, 1) == Fraction(31, 16)
    assert nth_root_lower_grid(Fraction(1, 64), 3, 5, -2) == Fraction(7, 32)
    # grid points come back exactly; no grid point under the cap gives 0
    assert nth_root_lower_grid(Fraction(9, 16), 2, 2, 1) == Fraction(3, 4)
    assert nth_root_lower_grid(Fraction(1, 2), 2, -1, 1) == 0
    for case in [(Fraction(-1), 2, 4, 1), (Fraction(5), 2, 4, 1)]:
        assert _outcome(nth_root_lower_grid, *case) == _outcome(
            fraction_kernels.nth_root_lower_grid, *case)


# -- integer roots ---------------------------------------------------------


@st.composite
def int_root_cases(draw):
    n = draw(st.integers(1, 600))
    kind = draw(st.sampled_from(["any", "power", "below", "above"]))
    if kind == "any":
        return draw(st.integers(0, 2 ** draw(st.integers(0, 4000)))), n
    r = draw(st.integers(0 if kind == "power" else 1, 40))
    return r**n + {"power": 0, "below": -1, "above": 1}[kind], n


@settings(max_examples=300, deadline=None)
@given(int_root_cases())
def test_int_nth_root_matches_newton(case):
    x, n = case
    assert int_nth_root(x, n) == fraction_kernels.int_nth_root(x, n)


def test_int_nth_root_edges():
    for x, n in [(0, 1), (0, 512), (1, 512), (2**512, 512), (2**512 - 1, 512),
                 (3**40, 40), (3**40 - 1, 40), (10**100, 600), (7, 1)]:
        assert int_nth_root(x, n) == fraction_kernels.int_nth_root(x, n)
    for x, n in [(-1, 2), (4, 0)]:
        with pytest.raises(ValueError):
            int_nth_root(x, n)

"""Differential tests of the integer kernels and objects against Fraction ones.

`fraction_kernels` holds the Fraction kernels the integer ones replaced:
the `Matrix.__mul__` trace-power chain, the Gaussian Rayleigh quotient, the
Fraction excursion DP and the bisection for grid n-th roots, and the Fraction
group-algebra product; also the all-Newton integer n-th root.  The
moment routes are also checked against power products formed with that
product.  The integer excursion DP is also run on raw weight maps (one or
two generators, with and without an identity weight, every letter weight
zero at one parity) against the per-child Fraction DP.  Every value
compared is exact.

The presentation objects (matrices, group-algebra elements, functions on
Cantor space) are held as Gaussian integers over one denominator; each of
their operations is checked through its GaussianRational view (`.rows`,
`.coeffs`, `.values()`) against the Fraction operations on plain rows,
dicts and trees in `fraction_kernels`, and every result is checked to be in
canonical form: denominator positive and prime to every part.  The three
kinds share that form (`gaussian.GaussianInts`), so objects of two kinds
with equal fields are checked to be unequal, and a cancelling combination
to be each kind's zero.  Over Cstar(Z) the moment lower bound, the torus
upper end and l1 + 2^-k are checked to come in that order.

The trace chain a matrix keeps and the moments an element keeps are
checked against fresh objects and by counting kernel calls, and the trusted
products of normal-form words against `normal_form`.  The chain's traces,
squared powers and then remainders x^(2^m) mod chi_H, are checked against
the squaring chain alone (`squaring_chain`) at every m up to 12.  The fast paths of the
norm kernels each have their own oracle: `_gram` a four-product schoolbook
R S*, the one-triangle `_trace_product` the full sum, and the packed product
over Z the Fraction product.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_kernels
import squaring_chain
from contlogic import formulas as F
from contlogic import groups as G
from contlogic import matrices as M
from contlogic import presentations as P
from contlogic.dyadic import int_nth_root, nth_root_lower_grid
from contlogic.gaussian import GaussianRational, from_gaussian_int, gr

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
        return M.Matrix.identity(n).scale(0)
    if shape == "rank1":
        u = [draw(entries) for _ in range(n)]
        v = [draw(entries) for _ in range(n)]
        return M.Matrix([[x * y.conjugate() for y in v] for x in u])
    a = M.Matrix([[draw(entries) for _ in range(n)] for _ in range(n)])
    if shape == "hermitian":
        return a + a.adjoint()
    return a


@settings(max_examples=60, deadline=None)
@given(matrices(), st.integers(0, 6))
def test_opnorm_upper_matches_fraction_chain(a, m):
    assert M.opnorm_upper(a, m) == fraction_kernels.opnorm_upper(a, m)


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
    zero = M.Matrix.identity(3).scale(0)
    assert [M.opnorm_upper(zero, m) for m in range(4)] == [0, 0, 0, 0]
    one = M.Matrix([[GaussianRational(Fraction(0), Fraction(-3, 4))]])
    assert [M.opnorm_upper(one, m) for m in range(5)] == [Fraction(3, 4)] * 5
    with pytest.raises(ValueError, match="m must be a natural"):
        M.opnorm_upper(M.Matrix.identity(2), -1)


@settings(max_examples=30, deadline=None)
@given(matrices(), st.permutations(range(7)))
def test_opnorm_upper_in_any_order_matches_fresh_chains(a, order):
    bounds = {m: M.opnorm_upper(a, m) for m in order}
    for m in range(7):
        assert bounds[m] == M.opnorm_upper(M.Matrix(a.rows), m)
        assert bounds[m] == fraction_kernels.opnorm_upper(a, m)
    assert [M.opnorm_upper(a, m) for m in range(7)] == [bounds[m] for m in range(7)]


def _counting(monkeypatch, owner, names):
    """Count the calls of owner.<name> for each name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(owner, name, counted)
    return calls


def test_matrix_keeps_its_squaring_chain(monkeypatch):
    # a 2x2 chain squares once (P_0 = H) and switches to remainders at m = 2;
    # an 8x8 one squares P_0..P_4, and its switch fills in H^3 with one more
    # `_gram` and reads p_3, p_5, p_6, p_7 with four more `_trace_product`;
    # `_frobenius_sq` reads only tr H, each squared power's trace is
    # `_trace_product(P, P)`
    a = M.Matrix([[gr(1), gr(Fraction(1, 2), 1)], [gr(0, -2), gr(Fraction(3, 4))]])
    kernels = ["_gram", "_frobenius_sq", "_trace_product", "_charpoly", "_square_mod"]
    calls = _counting(monkeypatch, M, kernels)
    first = M.opnorm_upper(a, 5)
    assert calls == {"_gram": 1, "_frobenius_sq": 1, "_trace_product": 1, "_charpoly": 1,
                     "_square_mod": 4}
    assert M.opnorm_upper(a, 5) == first
    sweep = [M.opnorm_upper(a, m) for m in range(6)]
    assert sweep[5] == first
    M.two_norm(a, 12)
    assert calls == {"_gram": 1, "_frobenius_sq": 1, "_trace_product": 1, "_charpoly": 1,
                     "_square_mod": 4}
    M.opnorm_upper(a, 7)
    assert calls == {"_gram": 1, "_frobenius_sq": 1, "_trace_product": 1, "_charpoly": 1,
                     "_square_mod": 6}
    # value-equal matrices compare equal whatever their chains hold
    fresh = M.Matrix(a.rows)
    assert fresh == a and hash(fresh) == hash(a)
    big = M.Matrix([[gr(i - j, (i * j) % 3) for j in range(8)] for i in range(8)])
    for counter in calls:
        calls[counter] = 0
    bounds = [M.opnorm_upper(big, m) for m in range(6)]
    assert calls == {"_gram": 5, "_frobenius_sq": 1, "_trace_product": 5, "_charpoly": 0,
                     "_square_mod": 0}
    eighth = M.opnorm_upper(big, 8)
    # from x^8 = sum c_i x^i: squared twice to x^32, then once per trace to x^256
    switched = {"_gram": 6, "_frobenius_sq": 1, "_trace_product": 9, "_charpoly": 1,
                "_square_mod": 5}
    assert calls == switched
    nine = [M.opnorm_upper(big, m) for m in range(9)]
    assert nine[:6] == bounds and nine[8] == eighth
    assert calls == switched
    # bounds read from a chain in order are those of fresh chains
    assert sweep == [M.opnorm_upper(M.Matrix(a.rows), m) for m in range(6)]
    assert bounds == [M.opnorm_upper(M.Matrix(big.rows), m) for m in range(6)]


def _chain_cases(n, rng):
    """(name, matrix) of size n: zero, rank 1, c*I, block-repeated
    eigenvalues, a Jordan block (non-normal) and a general matrix."""
    def entry(span=4, den=3):
        return GaussianRational(Fraction(rng.randint(-span, span), rng.randint(1, den)),
                                Fraction(rng.randint(-span, span), rng.randint(1, den)))

    u, v = [entry() for _ in range(n)], [entry() for _ in range(n)]
    block = [[entry() for _ in range(n // 2 or 1)] for _ in range(n // 2 or 1)]
    size = len(block)
    blocks = [[block[i % size][j % size] if i // size == j // size else gr(0)
               for j in range(n)] for i in range(n)]
    c = entry()
    return [
        ("zero", M.Matrix.identity(n).scale(0)),
        ("rank1", M.Matrix([[x * y.conjugate() for y in v] for x in u])),
        ("scalar", M.Matrix.identity(n).scale(c)),
        ("blocks", M.Matrix(blocks)),
        ("jordan", M.Matrix([[c if i == j else gr(int(j == i + 1)) for j in range(n)]
                             for i in range(n)])),
        ("general", M.Matrix([[entry() for _ in range(n)] for _ in range(n)])),
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16])
def test_trace_chain_matches_squaring_chain(n):
    """Every trace of the switching chain, at every m in 0..12, is the one
    the squaring chain gives; bounds read in any order agree with it, and
    for small sizes with the Fraction chain."""
    rng = random.Random(n)
    for name, a in _chain_cases(n, rng):
        expected = squaring_chain.squaring_traces(a, 13)
        bounds = [M._root_bound(t, a.d, m) for m, t in enumerate(expected)]
        fresh = M.Matrix(a.rows)
        order = list(range(13))
        rng.shuffle(order)
        assert {m: M.opnorm_upper(fresh, m) for m in order} == dict(enumerate(bounds)), name
        assert M._trace_chain(a, 13) == expected, name
        assert [M.opnorm_upper(a, m) for m in range(13)] == bounds, name
        if n <= 4:
            assert bounds[:7] == [fraction_kernels.opnorm_upper(a, m) for m in range(7)], name


def test_charpoly_by_newton_identities():
    # H = diag(1, 2): p = (2, 3, 5), chi = x^2 - 3x + 2, so x^2 = 3x - 2
    assert M._charpoly([2, 3, 5]) == [-2, 3]
    assert M._charpoly([1, 7]) == [7]
    # x^4 = 15x - 14 mod chi: it takes the values 1^4 and 2^4 at the roots 1, 2
    assert M._square_mod([-2, 3], [-2, 3]) == [-14, 15]


def test_inexact_newton_step_is_a_typed_error(monkeypatch):
    # e_2 = (p_1^2 - p_2) / 2: p_2 off by one makes it a half-integer
    with pytest.raises(M.InexactNewtonStep, match=r"e_2 = 1/2"):
        M._charpoly([2, 1, 0])
    a = M.Matrix([[gr(1), gr(2)], [gr(0, 1), gr(Fraction(-1, 3))]])
    expected = [M.opnorm_upper(M.Matrix(a.rows), m) for m in range(4)]
    trace_product = M._trace_product
    with monkeypatch.context() as patch:
        # tr(H^2) one too large, read by Newton's identities at the switch (m = 2)
        patch.setattr(M, "_trace_product", lambda x, y: trace_product(x, y) + 1)
        with pytest.raises(M.InexactNewtonStep):
            M.opnorm_upper(a, 3)
    assert isinstance(M.InexactNewtonStep("x"), M.MatrixError)
    assert [M.opnorm_upper(M.Matrix(a.rows), m) for m in range(4)] == expected


def _schoolbook_gram(re, im, other=None):
    """R S* (S = other, or R) entry by entry, four products per term:
    (a + ib)(c - id)."""
    n = len(re)
    s_re, s_im = other or (re, im)
    g_re = [[sum(a * c + b * d for a, b, c, d in zip(re[i], im[i], s_re[j], s_im[j]))
             for j in range(n)] for i in range(n)]
    g_im = [[sum(b * c - a * d for a, b, c, d in zip(re[i], im[i], s_re[j], s_im[j]))
             for j in range(n)] for i in range(n)]
    return g_re, g_im


def _full_frobenius_sq(re, im):
    return sum(x * x for rows in (re, im) for row in rows for x in row)


BIG_PARTS = st.one_of(st.integers(-3, 3), st.integers(-2**120, 2**120))


@st.composite
def int_rows(draw):
    """Gaussian-integer rows of a square matrix, not Hermitian in general,
    with some rows zero."""
    n = draw(st.integers(1, 6))
    zero = draw(st.sets(st.integers(0, n - 1)))
    rows = [[tuple(0 if i in zero else draw(BIG_PARTS) for _ in range(n)) for i in range(n)]
            for _ in range(2)]
    return tuple(rows[0]), tuple(rows[1])


@settings(max_examples=150, deadline=None)
@given(int_rows())
def test_gram_matches_four_product_schoolbook(rows):
    re, im = rows
    g_re, g_im = M._gram(re, im)
    assert (list(map(list, g_re)), list(map(list, g_im))) == _schoolbook_gram(re, im)
    # the Gram matrix is Hermitian, so its Frobenius sum tr(G G) may read one
    # triangle
    assert M._trace_product((g_re, g_im), (g_re, g_im)) == _full_frobenius_sq(g_re, g_im)
    # the rows of a matrix, Hermitian or not, are summed in full
    assert M._frobenius_sq(re, im) == _full_frobenius_sq(re, im)
    assert M._frobenius_sq(g_re, g_im) == _full_frobenius_sq(g_re, g_im)
    # a Gram matrix of a Gram matrix is its square
    h_re, h_im = M._gram(g_re, g_im)
    assert M._trace_product((h_re, h_im), (h_re, h_im)) == _full_frobenius_sq(
        *_schoolbook_gram(g_re, g_im))
    # G and H = G^2 commute, so G H* = G^3 is Hermitian, and tr(G H) reads
    # one triangle of each
    cube = M._gram(g_re, g_im, (h_re, h_im))
    assert (list(map(list, cube[0])), list(map(list, cube[1]))) == _schoolbook_gram(
        g_re, g_im, (h_re, h_im))
    assert M._trace_product((g_re, g_im), (h_re, h_im)) == sum(
        a * c + b * d for rows in zip(g_re, g_im, h_re, h_im) for a, b, c, d in zip(*rows))


def test_gram_edges():
    assert M._gram(((0,),), ((0,),)) == ([[0]], [[0]])
    assert M._gram(((3,),), ((-4,),)) == ([[25]], [[0]])
    assert M._frobenius_sq(*M._gram(((3,),), ((-4,),))) == 625
    assert M._trace_product(*[M._gram(((3,),), ((-4,),))] * 2) == 625
    # rows (1, 2) and (0, 0) are not Hermitian: |R|_F^2 = 5, where one
    # triangle counted twice would give 1 + 2 * 4 = 9
    assert M._frobenius_sq(((1, 2), (0, 0)), ((0, 0), (0, 0))) == 5
    assert M._gram(((1, 2), (0, 0)), ((0, 0), (0, 0))) == ([[5, 0], [0, 0]], [[0, 0], [0, 0]])
    # rows (1, i) and (i, 0): G_01 = 1 * conj(i) + i * 0 = -i
    assert M._gram(((1, 0), (0, 0)), ((0, 1), (1, 0))) == ([[2, 0], [0, 1]], [[0, -1], [1, 0]])


def test_negative_trace_on_extending_the_chain(monkeypatch):
    a = M.Matrix([[gr(1), gr(2)], [gr(0, 1), gr(Fraction(-1, 3))]])
    b = M.Matrix(a.rows)
    expected = [M.opnorm_upper(M.Matrix(a.rows), m) for m in range(6)]
    assert M.opnorm_upper(a, 2) == expected[2]
    assert M.opnorm_upper(b, 1) == expected[1]
    square_mod = M._square_mod
    with monkeypatch.context() as patch:
        patch.setattr(M, "_square_mod", lambda r, c: [-x for x in square_mod(r, c)])
        # a has switched at m = 2; b switches on this call and fails there
        with pytest.raises(M.NegativeTrace, match=r"tr\(\(A\*A\)\^8\) came out negative"):
            M.opnorm_upper(a, 4)
        with pytest.raises(M.NegativeTrace, match=r"tr\(\(A\*A\)\^4\) came out negative"):
            M.opnorm_upper(b, 4)
        assert M.opnorm_upper(a, 1) == expected[1]
    with monkeypatch.context() as patch:
        patch.setattr(M, "_frobenius_sq", lambda re, im: -1)
        with pytest.raises(M.NegativeTrace, match=r"tr\(\(A\*A\)\^1\) came out negative"):
            M.opnorm_upper(M.Matrix(a.rows), 0)
    # the failed extensions left the chains as they were
    assert [M.opnorm_upper(a, m) for m in range(6)] == expected
    assert [M.opnorm_upper(b, m) for m in range(6)] == expected


# -- trace moments ---------------------------------------------------------


def _power_products(a, n):
    """[tau((a* a)^j) for j = 1..n] from Fraction algebra products alone."""
    h = fraction_kernels.algebra_mul(a.adjoint(), a)
    power, out = h, []
    for _ in range(n):
        out.append(from_gaussian_int(*power.trace_int()).re)
        power = fraction_kernels.algebra_mul(power, h)
    return out


def _s3():
    perms = list(itertools.permutations(range(3)))
    names = ["e", "r", "r2", "s", "sr", "sr2"]
    by_perm = dict(zip([(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)],
                       names))
    assert set(by_perm) == set(perms)
    table = [[by_perm[tuple(p[q[i]] for i in range(3))] for q in by_perm] for p in by_perm]
    return G.TableGroup(tuple(names), "e", table)


F2 = G.free_group("u", "v")
LETTERS = [(("u", 1),), (("u", -1),), (("v", 1),), (("v", -1),), ()]
Z4 = G.RewritingGroup(("a",), [("aaaa", ""), ("A", "aaa")])
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


GAUSS_INTS = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def walk_weights(draw):
    """Raw weight maps (w0, w1) over the letters of one or two generators,
    closed under inverses as `moments_up_to` passes them: a letter's weight
    may be absent or (0, 0), the identity weight may be absent, and every
    letter weight may be zero at one parity."""
    letters = [(g, s) for g in ("u", "v")[:draw(st.integers(1, 2))] for s in (1, -1)]
    maps = []
    for _ in (0, 1):
        w = {t: c for t in letters
             if (c := draw(st.one_of(st.none(), st.just((0, 0)), GAUSS_INTS))) is not None}
        if draw(st.booleans()):
            w[None] = draw(GAUSS_INTS)
        maps.append(w)
    silent = draw(st.sampled_from([None, 0, 1]))
    if silent is not None:
        maps[silent] = {t: (0, 0) for t in letters} | {None: maps[silent].get(None, (1, 0))}
    maps[0] |= {t: (0, 0) for t in letters if t not in maps[0] and t not in maps[1]}
    return maps


def _fraction_walk_traces(w0, w1, steps):
    """The per-child Fraction DP, its GaussianRational entries read back as
    integer pairs (every weight is an integer, so D = 1)."""
    as_gr = [{t: gr(*c) for t, c in w.items()} for w in (w0, w1)]
    out = fraction_kernels._free_walk_traces(*as_gr, steps)
    assert all(z.re.denominator == z.im.denominator == 1 for z in out)
    return [(int(z.re), int(z.im)) for z in out]


@settings(max_examples=40, deadline=None)
@given(walk_weights(), st.integers(0, 32))
def test_free_walk_traces_match_per_child_fraction_dp(weights, steps):
    w0, w1 = weights
    assert G._free_walk_traces(w0, w1, steps) == _fraction_walk_traces(w0, w1, steps)


def test_free_walk_traces_match_per_child_fraction_dp_at_128_steps():
    w0 = {("u", 1): (1, 0), ("u", -1): (0, -1), None: (1, 1)}
    w1 = {("u", 1): (0, 1), ("u", -1): (1, 0), None: (1, -1)}
    traces = G._free_walk_traces(w0, w1, 128)
    assert len(traces) == 129 and traces == _fraction_walk_traces(w0, w1, 128)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(CONV_GROUPS))
def test_convolution_route_matches_power_products(data, group):
    spec, pool, max_n = group
    a = data.draw(elements(spec, pool))
    n = data.draw(st.integers(1, max_n))
    assert G.moments_up_to(a, n) == _power_products(a, n)


def test_element_keeps_its_moments(monkeypatch):
    letters = G.element(F2, [(1, (("u", 1),)), (Fraction(1, 2), (("v", -1),)), (gr(0, 1), ())])
    z = G.element(G.free_abelian("u"), [(1, (("u", 1),)), (Fraction(-1, 3), (("u", -2),))])
    calls = _counting(monkeypatch, G, ["_free_walk_traces", "_convolve", "_pair_trace"])
    for a, route in ((letters, {"_free_walk_traces": 1, "_convolve": 0, "_pair_trace": 0}),
                     (z, {"_free_walk_traces": 1, "_convolve": 3, "_pair_trace": 6})):
        moments = G.moments_up_to(a, 6)
        assert moments == _power_products(a, 3) + moments[3:]
        assert calls == route
        assert G.moments_up_to(a, 6) == moments and G.moments_up_to(a, 2) == moments[:2]
        assert G.lambda_norm_lower_sweep(a, 6, 10) == [
            G.moment_root_lower(a, m, j, 10) for j, m in enumerate(moments, start=1)]
        assert G.lambda_norm_lower(a, 4, 10) == G.moment_root_lower(a, moments[3], 4, 10)
        assert calls == route
        # value-equal elements compare equal whatever moments they hold
        fresh = G.AlgebraElement(a.spec, a.coeffs)
        assert fresh == a and hash(fresh) == hash(a)


def test_returned_moments_are_new_lists():
    a = G.element(G.free_abelian("u"), [(1, (("u", 1),)), (gr(0, 1), ())])
    moments = G.moments_up_to(a, 5)
    expected = list(moments)
    moments[0] = Fraction(99)
    moments.append(Fraction(7))
    assert G.moments_up_to(a, 5) == expected
    assert G.moments_up_to(a, 3) == expected[:3]
    longer = G.moments_up_to(a, 8)
    assert longer[:5] == expected and longer == _power_products(a, 8)
    assert G.moments_up_to(a, 8) is not G.moments_up_to(a, 8)


# -- the packed product over Z ------------------------------------------------


Z = G.free_abelian("u")
Z_PARTS = st.one_of(st.integers(-3, 3), st.integers(-2**200, 2**200),
                    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)))


@st.composite
def z_elements(draw, exponents=st.integers(-40, 40)):
    """Elements of Q(i)Z: zero, or a few terms with exponents in +-40 and
    parts from -3..3 up to 2^200 in size, mixed in sign, some with small
    denominators."""
    terms = draw(st.dictionaries(exponents, _gaussians(Z_PARTS), max_size=12))
    return G.element(Z, [(c, (("u", e),) if e else ()) for e, c in terms.items()])


def _dense(a) -> bool:
    return G._convolve_packed("u", a.ints, a.ints) is not None


@settings(max_examples=200, deadline=None)
@given(z_elements(), z_elements())
def test_packed_product_matches_fraction_product(a, b):
    product = a * b
    assert product == fraction_kernels.algebra_mul(a, b)
    assert (0, 0) not in product.ints.values()
    assert product.is_zero() == (a.is_zero() or b.is_zero())


@settings(max_examples=100, deadline=None)
@given(z_elements(st.integers(-6, 6)), z_elements(st.integers(-6, 6)))
def test_packed_product_drops_what_cancels(a, b):
    # (a + b)(a - b) = a^2 - b^2: the cross terms cancel coefficient by coefficient
    assert (a + b) * (a - b) == fraction_kernels.algebra_mul(a + b, a - b)
    assert (a + b) * (a - b) == a * a - b * b
    # a* a is the packed convolution of two dense operands
    h = a.adjoint() * a
    assert h == fraction_kernels.algebra_mul(a.adjoint(), a)
    assert a.is_zero() or _dense(a)


@pytest.mark.parametrize("bits", [3, 199])
def test_packed_limbs_hold_the_largest_coefficients(bits):
    # 16 terms whose parts all have the largest size of their bit length: the
    # middle coefficients of these products are 32 (2^bits - 1)^2, which needs
    # every bit of the limb width (2 * bits + 2 is a multiple of 8 for both)
    top = 2**bits - 1
    for lam, mu in [(gr(top, top), gr(top, top)), (gr(top, top), gr(top, -top)),
                    (gr(-top, top), gr(top, top))]:
        a = G.element(Z, [(lam, (("u", e),) if e else ()) for e in range(-8, 8)])
        b = G.element(Z, [(mu, (("u", e),) if e else ()) for e in range(-7, 9)])
        assert _dense(a) and _dense(b)
        product = a * b
        assert product == fraction_kernels.algebra_mul(a, b)
        assert max(abs(x) for z in product.ints.values() for x in z) == 32 * top * top


def test_packed_route_edges(monkeypatch):
    u = lambda e: (("u", e),) if e else ()
    one = G.element(Z, [(1, ())])
    zero = G.element(Z, [])
    up = G.element(Z, [(1, u(1)), (1, u(-1))])
    down = G.element(Z, [(1, u(1)), (-1, u(-1))])
    big = G.element(Z, [(2**200 + 1, u(40)), (gr(-(2**199), 3), u(-40)), (1, ())])
    calls = _counting(monkeypatch, G, ["_convolve_packed"])
    assert up * zero == zero == zero * up and (zero * zero).is_zero()
    # (u + u^-1)(u - u^-1) = u^2 - u^-2, the constant cancels
    assert up * down == G.element(Z, [(1, u(2)), (-1, u(-2))])
    assert G.IDENTITY not in (up * down).ints
    assert one * big == big and big * big == fraction_kernels.algebra_mul(big, big)
    assert calls["_convolve_packed"] == 7
    # sparse operands (81 exponents held by 3 terms, 18 by 2) go pair by pair
    assert G._convolve_packed("u", big.ints, big.ints) is None
    assert not _dense(G.element(Z, [(1, u(0)), (1, u(17))]))
    # the rank-2 group and every other kind never take the packed route
    calls["_convolve_packed"] = 0
    for spec, g, _ in PRODUCT_GROUPS:
        a = G.element(spec, [(1, ((g, 1),)), (-1, ())])
        assert a * a == fraction_kernels.algebra_mul(a, a)
    assert calls["_convolve_packed"] == 0


# -- products of normal forms ------------------------------------------------


GENERATOR_SETS = [("u",), ("u", "v"), ("a", "b", "c")]


@st.composite
def normal_forms(draw, spec):
    runs = draw(st.lists(st.tuples(st.sampled_from(spec.generators),
                                   st.integers(-3, 3).filter(bool)), max_size=6))
    return spec.normal_form(tuple(runs))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(GENERATOR_SETS), st.sampled_from([G.free_group, G.free_abelian]))
def test_normal_form_products_match_normal_form(data, generators, kind):
    spec = kind(*generators)
    a, b = data.draw(normal_forms(spec)), data.draw(normal_forms(spec))
    product = spec._mul_normal(a, b)
    assert product == spec.normal_form(a + b) == spec.mul(a, b)
    assert spec._inv_normal(a) == spec.inv(a)
    assert spec._mul_normal(a, spec._inv_normal(a)) == G.IDENTITY
    # cancel a drawn tail of a, in part or whole, at the join
    tail = a[data.draw(st.integers(0, len(a))):]
    assert spec._mul_normal(a, spec._inv_normal(tail)) == spec.normal_form(a + spec.inv(tail))


def test_other_kinds_multiply_normal_forms_by_normal_form():
    for spec, _, pool in PRODUCT_GROUPS[2:]:
        for a, b in itertools.product(pool, repeat=2):
            assert spec._mul_normal(a, b) == spec.normal_form(a + b)
            assert spec._inv_normal(a) == spec.inv(a)


# -- grid roots ------------------------------------------------------------


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@st.composite
def root_cases(draw):
    n = draw(st.integers(1, 8))
    k = draw(st.integers(0, 12))
    x = draw(st.one_of(
        st.builds(Fraction, st.integers(-2, 10**6), st.integers(1, 10**4)),
        st.builds(lambda c, s: Fraction(c, 2**s) ** n, st.integers(0, 80), st.integers(0, 8)),
    ))
    return x, n, k


def _cap_above(x: Fraction, n: int) -> int:
    """The least hi_pow2 >= -4 with (2^hi_pow2)^n > x: a bisection cap above
    the root, under which bisection returns the grid floor."""
    hi_pow2 = -4
    while Fraction(2) ** (hi_pow2 * n) <= x:
        hi_pow2 += 1
    return hi_pow2


@settings(max_examples=300, deadline=None)
@given(root_cases())
def test_nth_root_lower_grid_matches_bisection(case):
    x, n, k = case
    assert (_outcome(nth_root_lower_grid, *case)
            == _outcome(fraction_kernels.nth_root_lower_grid, *case, _cap_above(x, n)))


def test_nth_root_lower_grid_edges():
    # a root on the grid comes back exactly, one just under it a step lower
    assert nth_root_lower_grid(Fraction(8), 3, 4) == 2
    assert nth_root_lower_grid(Fraction(8) - Fraction(1, 10**9), 3, 4) == Fraction(31, 16)
    assert nth_root_lower_grid(Fraction(1, 64), 3, 5) == Fraction(1, 4)
    assert nth_root_lower_grid(Fraction(9, 16), 2, 2) == Fraction(3, 4)
    # a root under the grid's first step gives 0
    assert nth_root_lower_grid(Fraction(1, 2), 2, 0) == 0
    x = Fraction(-1)
    assert _outcome(nth_root_lower_grid, x, 2, 4) == _outcome(
        fraction_kernels.nth_root_lower_grid, x, 2, 4, _cap_above(x, 2))


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


# -- presentation objects --------------------------------------------------


def _parts(obj) -> list[int]:
    if isinstance(obj, M.Matrix):
        return [x for rows in (obj.re, obj.im) for row in rows for x in row]
    if isinstance(obj, G.AlgebraElement):
        assert (0, 0) not in obj.ints.values()
        return [x for z in obj.ints.values() for x in z]
    return [x for part in obj.parts for x in part]


def _cylinder_values(tree) -> list[GaussianRational]:
    """The values of a Fraction tree (`fraction_kernels.cantor_*`) on the
    cylinders of the least depth at which it is constant on each: the
    height of its canonical tree."""
    tree = fraction_kernels.cantor_canon(tree)

    def height(t) -> int:
        return 0 if isinstance(t, GaussianRational) else 1 + max(height(t[0]), height(t[1]))

    def values(t, depth: int) -> list[GaussianRational]:
        if isinstance(t, GaussianRational):
            return [t] * 2**depth
        return values(t[0], depth - 1) + values(t[1], depth - 1)

    return values(tree, height(tree))


def _balanced_tree(values: list):
    """Cylinder values, left to right, as a balanced tree."""
    while len(values) > 1:
        values = [(values[i], values[i + 1]) for i in range(0, len(values), 2)]
    return values[0]


def _canonical(obj):
    """obj, after checking that its fields are in lowest terms (and, for a
    Cantor function, at the least depth)."""
    assert obj.d > 0 and math.gcd(obj.d, *_parts(obj)) == 1
    if isinstance(obj, P.CantorFn):
        size = len(obj.parts)
        assert size & (size - 1) == 0 and (size == 1 or obj.parts[::2] != obj.parts[1::2])
    return obj


def _inverse(z: GaussianRational) -> GaussianRational:
    """1/z = conj(z) / |z|^2."""
    return GaussianRational(z.re / z.abs_sq(), -z.im / z.abs_sq())


def _same(x, y) -> bool:
    """Equal values held in equal fields, with equal hashes."""
    fields = ("n", "re", "im") if isinstance(x, M.Matrix) else ("ints",)
    if isinstance(x, P.CantorFn):
        fields = ("parts",)
    return (x == y and hash(x) == hash(y) and x.d == y.d
            and all(getattr(x, f) == getattr(y, f) for f in fields))


SIZES = st.sampled_from([1, 2, 4, 8])
COEFFICIENTS = st.one_of(_gaussians(RATIONALS),
                         st.sampled_from([gr(0), gr(1), gr(-1), gr(Fraction(1, 2))]))


@st.composite
def matrix_rows(draw, n=None):
    n = draw(SIZES) if n is None else n
    parts = draw(st.sampled_from([UNITS, RATIONALS]))
    shape = draw(st.sampled_from(["general", "zero", "diagonal"]))
    z = gr(0)
    if shape == "zero":
        return tuple((z,) * n for _ in range(n))
    if shape == "diagonal":
        diag = [draw(_gaussians(parts)) for _ in range(n)]
        return tuple(tuple(diag[i] if i == j else z for j in range(n)) for i in range(n))
    return tuple(tuple(draw(_gaussians(parts)) for _ in range(n)) for _ in range(n))


@settings(max_examples=60, deadline=None)
@given(st.data(), SIZES, COEFFICIENTS, COEFFICIENTS, st.integers(0, 20))
def test_matrix_operations_match_fraction_operations(data, n, lam, mu, k):
    a, b = data.draw(matrix_rows(n)), data.draw(matrix_rows(n))
    ma, mb = M.Matrix(a), M.Matrix(b)
    assert _canonical(ma).rows == a
    fk = fraction_kernels
    assert _canonical(ma + mb).rows == fk.matrix_add(a, b)
    assert _canonical(ma * mb).rows == fk.matrix_mul(a, b)
    assert _canonical(ma.scale(lam)).rows == fk.matrix_scale(a, lam)
    assert _canonical(ma.comb(lam, mu, mb)).rows == fk.matrix_add(
        fk.matrix_scale(a, lam), fk.matrix_scale(b, mu))
    assert _canonical(ma.adjoint()).rows == fk.matrix_conj_transpose(a)
    trace = fk.matrix_trace(a)
    assert from_gaussian_int(*ma.trace_int()) == GaussianRational(trace.re / n, trace.im / n)
    assert ma.is_zero() == all(e.is_zero() for row in a for e in row)
    assert M.two_norm(ma, k) == fk.matrix_two_norm(a, k)


@settings(max_examples=40, deadline=None)
@given(st.data(), COEFFICIENTS, COEFFICIENTS)
def test_tower_operations_on_mixed_sizes(data, lam, mu):
    a, b = data.draw(matrix_rows()), data.draw(matrix_rows())
    ma, mb = M.Matrix(a), M.Matrix(b)
    fk = fraction_kernels
    assert _canonical(ma * mb).rows == fk.tower_mul(a, b)
    assert _canonical(ma.comb(lam, mu, mb)).rows == fk.tower_comb(lam, mu, a, b)
    for n in (len(a), 2 * len(a), 8):
        if n >= len(a):
            assert _canonical(M.embed_to_size(ma, n)).rows == fk.matrix_embed_to_size(a, n)
    assert M.embed_to_size(ma, 2 * len(a)).rows == fk.matrix_embed_dyadic(a)


def test_embedding_rejects_what_doubling_rejects():
    for size, n in [(3, 6), (2, 6), (4, 2), (2, 12), (1, 3)]:
        rows = tuple((gr(1),) * size for _ in range(size))
        with pytest.raises(M.NotDyadicSize):
            M.embed_to_size(M.Matrix(rows), n)
        with pytest.raises(M.NotDyadicSize):
            fraction_kernels.matrix_embed_to_size(rows, n)
    three = M.Matrix([[gr(1)] * 3] * 3)
    assert M.embed_to_size(three, 3) is three


@settings(max_examples=40, deadline=None)
@given(matrix_rows(), COEFFICIENTS)
def test_matrix_combination_cancels_to_canonical_zero(a, lam):
    ma = M.Matrix(a)
    zero = ma.comb(lam, -lam, ma)
    assert _same(zero, M.Matrix.identity(len(a)).scale(0))
    assert zero.d == 1 and zero.is_zero()
    assert zero.rows == fraction_kernels.matrix_add(
        fraction_kernels.matrix_scale(a, lam), fraction_kernels.matrix_scale(a, -lam))


ALGEBRA_GROUPS = [(spec, pool) for spec, _, pool in PRODUCT_GROUPS]


@st.composite
def algebra_elements(draw, spec, pool):
    if draw(st.integers(0, 5)) == 0:
        return G.element(spec, [])
    return draw(elements(spec, pool, draw(st.sampled_from([UNITS, INTEGERS, RATIONALS]))))


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(ALGEBRA_GROUPS), COEFFICIENTS, COEFFICIENTS,
       st.integers(0, 20))
def test_algebra_operations_match_fraction_operations(data, group, lam, mu, k):
    spec, pool = group
    a = data.draw(algebra_elements(spec, pool))
    b = data.draw(algebra_elements(spec, pool))
    x, y = a.coeffs, b.coeffs
    fk = fraction_kernels
    assert _canonical(a + b).coeffs == fk.algebra_add(x, y)
    assert _canonical(a - b).coeffs == fk.algebra_comb(gr(1), gr(-1), x, y)
    assert _canonical(-a).coeffs == fk.algebra_scale(x, gr(-1))
    assert _canonical(a.scale(lam)).coeffs == fk.algebra_scale(x, lam)
    assert _canonical(a.comb(lam, mu, b)).coeffs == fk.algebra_comb(lam, mu, x, y)
    assert _canonical(a.adjoint()).coeffs == fk.algebra_adjoint(spec, x)
    assert _canonical(a * b).coeffs == fraction_kernels.algebra_mul(a, b).coeffs
    assert from_gaussian_int(*a.trace_int()) == x.get(G.IDENTITY, gr(0))
    assert G.l1_norm(a) == fk.l1_norm(x)
    assert G.two_norm(a, k) == fk.algebra_two_norm(x, k)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from(ALGEBRA_GROUPS), COEFFICIENTS)
def test_algebra_combination_cancels_to_canonical_zero(data, group, lam):
    spec, pool = group
    a = data.draw(algebra_elements(spec, pool))
    zero = a.comb(lam, -lam, a)
    assert _same(zero, G.element(spec, [])) and zero.d == 1 and zero.is_zero()
    assert _same(a - a, zero)
    assert fraction_kernels.algebra_comb(lam, -lam, a.coeffs, a.coeffs) == {}


def _trees(parts=RATIONALS):
    leaf = st.one_of(_gaussians(parts), st.just(gr(0)))
    return st.recursive(leaf, lambda sub: st.tuples(sub, sub), max_leaves=10)


@settings(max_examples=80, deadline=None)
@given(_trees(), _trees(st.one_of(UNITS, RATIONALS)), COEFFICIENTS, COEFFICIENTS)
def test_cantor_operations_match_fraction_operations(t, u, lam, mu):
    f, g = P.CantorFn.from_tree(t), P.CantorFn.from_tree(u)
    fk = fraction_kernels
    assert _canonical(f).values() == _cylinder_values(t)
    assert _canonical(f * g).values() == _cylinder_values(fk.cantor_mul(t, u))
    assert _canonical(f.comb(lam, mu, g)).values() == _cylinder_values(
        fk.cantor_comb(lam, mu, t, u))
    assert _canonical(f.adjoint()).values() == _cylinder_values(fk.cantor_adjoint(t))
    assert f.sup_abs_sq() == fk.cantor_sup_abs_sq(t)


@settings(max_examples=40, deadline=None)
@given(_trees(), COEFFICIENTS)
def test_cantor_combination_cancels_to_canonical_zero(t, lam):
    f = P.CantorFn.from_tree(t)
    zero = f.comb(lam, -lam, f)
    assert _same(zero, P.CantorFn.from_tree(gr(0))) and zero.parts == ((0, 0),) and zero.d == 1
    assert fraction_kernels.cantor_comb(lam, -lam, t, t) == gr(0)


# -- the d atom and the rounded-combination bound ---------------------------

F2_POOL = LETTERS + [(("u", 1), ("v", 1)), (("v", -1), ("u", 1))]


@st.composite
def d_atom_cases(draw):
    kind = draw(st.sampled_from(["R", "L", "C2w", "CstarZ", "CstarF2"]))
    k = draw(st.integers(0, 12))
    if kind == "R":
        a, b = draw(matrix_rows()), draw(matrix_rows())
        return kind, None, a, b, M.Matrix(a), M.Matrix(b), k, 8
    if kind == "C2w":
        t, u = draw(_trees()), draw(_trees())
        return kind, None, t, u, P.CantorFn.from_tree(t), P.CantorFn.from_tree(u), k, 8
    spec = G.free_abelian("u") if kind == "CstarZ" else F2
    pool = ([(("u", 1),), (("u", -1),), (("u", 2),), ()] if kind == "CstarZ"
            else draw(st.sampled_from([LETTERS, F2_POOL])))
    a, b = draw(algebra_elements(spec, pool)), draw(algebra_elements(spec, pool))
    budget = draw(st.integers(1, 6 if pool is LETTERS else 2))
    return kind, spec, a.coeffs, b.coeffs, a, b, min(k, 8), budget


@settings(max_examples=80, deadline=None)
@given(d_atom_cases())
def test_d_atom_matches_fraction_atom(case):
    kind, spec, a, b, obj_a, obj_b, k, budget = case
    if kind == "R":
        pres = P.presentation_R()
    elif kind == "C2w":
        pres = P.presentation_C2w()
    elif kind == "L":
        pres = P.presentation_L(spec)
    else:
        pres = P.presentation_CstarLambda(spec)
    assert (pres.atom_interval("d", [obj_a, obj_b], k, budget=budget)
            == fraction_kernels.d_atom(kind, a, b, k, spec, budget))


SMALL_RATIONALS = st.builds(Fraction, st.integers(-13, 13), st.integers(1, 13))
# pairs on the circle |lam| + |mu| = 1 and near it, where the exact test matters
BOUNDARY = [(gr(Fraction(3, 5), Fraction(4, 5)), gr(0)), (gr(Fraction(1, 2)), gr(Fraction(1, 2))),
            (gr(Fraction(3, 10), Fraction(2, 5)), gr(Fraction(1, 2))),
            (gr(Fraction(3, 10), Fraction(2, 5)), gr(0, Fraction(-1, 2))),
            (gr(Fraction(3, 10), Fraction(2, 5)), gr(Fraction(51, 100))),
            (gr(Fraction(5, 13), Fraction(12, 13)), gr(Fraction(1, 10**9))),
            (gr(-1), gr(0)), (gr(0), gr(0, 1)), (gr(1), gr(0, Fraction(1, 7)))]


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.tuples(st.builds(GaussianRational, SMALL_RATIONALS, SMALL_RATIONALS),
              st.builds(GaussianRational, SMALL_RATIONALS, SMALL_RATIONALS)),
    st.sampled_from(BOUNDARY)))
def test_rounded_bound_matches_fraction_test(pair):
    lam, mu = pair
    assert F.rounded_bound_ok(lam, mu) == fraction_kernels.rounded_bound_ok(lam, mu)
    assert F.rounded_bound_ok(mu, lam) == F.rounded_bound_ok(lam, mu)


def test_rounded_bound_boundary_cases():
    for lam, mu in BOUNDARY:
        assert F.rounded_bound_ok(lam, mu) == fraction_kernels.rounded_bound_ok(lam, mu)
    assert [F.rounded_bound_ok(lam, mu) for lam, mu in BOUNDARY] == [
        True, True, True, True, False, False, True, True, False]


# -- canonical form ----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.data(), SIZES, COEFFICIENTS, COEFFICIENTS)
def test_matrix_canonical_form(data, n, lam, mu):
    a, b, c = (M.Matrix(data.draw(matrix_rows(n))) for _ in range(3))
    for x in (a, a * b, a.comb(lam, mu, b), a.adjoint()):
        assert _same(M.Matrix(x.rows), x)
    assert _same((a + b) + c, a + (b + c))
    assert _same(a.comb(lam, mu, b), a.scale(lam) + b.scale(mu))
    assert _same((a * b) * c, a * (b * c))
    assert _same(M.embed_to_size(M.embed_to_size(a, 2 * n), 4 * n), M.embed_to_size(a, 4 * n))
    if not lam.is_zero():
        assert _same(a.scale(lam).scale(_inverse(lam)), a)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from(ALGEBRA_GROUPS), COEFFICIENTS, COEFFICIENTS)
def test_algebra_canonical_form(data, group, lam, mu):
    spec, pool = group
    a, b, c = (data.draw(algebra_elements(spec, pool)) for _ in range(3))
    for x in (a, a * b, a.comb(lam, mu, b), a.adjoint()):
        assert _same(G.AlgebraElement(spec, x.coeffs), x)
    assert _same((a + b) + c, a + (b + c))
    assert _same(a.comb(lam, mu, b), a.scale(lam) + b.scale(mu))
    assert _same((a * b) * c, a * (b * c))
    assert _same(a.adjoint().adjoint(), a)
    if not lam.is_zero():
        assert _same(a.scale(lam).scale(_inverse(lam)), a)


@settings(max_examples=40, deadline=None)
@given(_trees(), _trees(), _trees(), COEFFICIENTS, COEFFICIENTS)
def test_cantor_canonical_form(t, u, v, lam, mu):
    f, g, h = (P.CantorFn.from_tree(x) for x in (t, u, v))
    for x in (f, f * g, f.comb(lam, mu, g), f.adjoint()):
        assert _same(P.CantorFn.from_tree(_balanced_tree(x.values())), x)
    one = P.CantorFn.from_tree(gr(1))
    assert _same(f.comb(lam, mu, g), f.comb(lam, 0, one).comb(1, mu, g))
    assert _same((f * g) * h, f * (g * h))
    assert _same(f.adjoint().adjoint(), f)


# -- the shared integers-over-D kernel (gaussian.GaussianInts) -------------

NONZERO = _gaussians(RATIONALS).filter(lambda z: not z.is_zero())


@settings(max_examples=40, deadline=None)
@given(NONZERO)
def test_kinds_with_equal_fields_are_unequal(z):
    matrix = M.Matrix([[z]])
    function = P.CantorFn.from_tree(z)
    constant = G.element(F2, [(z, G.IDENTITY)])
    kinds = (matrix, function, constant)
    for x in kinds:
        assert x.d == matrix.d and x.parts == matrix.parts and x.values() == [z]
    for x, y in itertools.combinations(kinds, 2):
        assert x != y and y != x and not x == y
    assert len(set(kinds)) == 3


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from(ALGEBRA_GROUPS))
def test_algebra_element_ignores_insertion_order(data, group):
    spec, pool = group
    terms = list(data.draw(algebra_elements(spec, pool)).coeffs.items())
    order = data.draw(st.permutations(terms))
    a, b = G.AlgebraElement(spec, dict(terms)), G.AlgebraElement(spec, dict(order))
    assert a == b and hash(a) == hash(b) and a.words == b.words and a.parts == b.parts
    assert list(a.words) == sorted(a.words)
    c = G.element(spec, [(coeff, w) for w, coeff in reversed(order)])
    assert c == a and hash(c) == hash(a)


def test_equal_objects_built_by_different_routes_hash_their_fields():
    u, v = (("u", 1),), (("v", -1),)
    a = G.element(F2, [(Fraction(1, 2), u), (gr(0, 1), v)])
    rows = ((gr(1), gr(Fraction(1, 3))), (gr(0, -1), gr(2)))
    f = P.CantorFn.from_tree((gr(1), (gr(0, 1), gr(Fraction(-1, 2)))))
    pairs = [
        (a, G.AlgebraElement(F2, {v: gr(0, 1), u: gr(Fraction(1, 2))})),
        (a, (a + a).scale(Fraction(1, 2))),
        (a, G.element(F2, [(1, ())]) * a),
        (M.Matrix(rows), M.Matrix(rows).scale(3) - M.Matrix(rows).scale(2)),
        (M.Matrix(rows), M.Matrix.identity(2) * M.Matrix(rows)),
        (f, f.comb(2, -1, f)),
        (f, P.CantorFn.from_tree((gr(1), (gr(0, 1), gr(Fraction(-1, 2))))) + f.scale(0)),
    ]
    for x, y in pairs:
        assert x is not y and x == y
        # the first hash is computed and kept, the second read back
        assert hash(x) == hash(y) == hash((x.d, x.parts, x.layout)) == hash(x)


@settings(max_examples=40, deadline=None)
@given(st.data(), COEFFICIENTS)
def test_cancelling_combination_is_the_canonical_zero_of_each_kind(data, lam):
    rows = data.draw(matrix_rows())
    pairs = [(M.Matrix(rows), M.Matrix.identity(len(rows)).scale(0)),
             (P.CantorFn.from_tree(data.draw(_trees())), P.CantorFn.from_tree(gr(0))),
             (data.draw(algebra_elements(F2, LETTERS)), G.element(F2, []))]
    for x, zero in pairs:
        for cancelled in (x.comb(lam, -lam, x), x - x, x + (-x), x.scale(0)):
            assert _same(cancelled, zero) and cancelled.d == 1 and cancelled.is_zero()
    assert pairs[0][1].parts == ((0, 0),) * len(rows) ** 2
    assert pairs[1][1].parts == ((0, 0),) and pairs[2][1].parts == ()


Z = G.free_abelian("u")


@st.composite
def cstar_z_elements(draw):
    """Elements of Cstar(Z) of at most 4 terms with exponents in [-3, 3]."""
    exponents = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True))
    return G.element(Z, [(draw(_gaussians(RATIONALS)), (("u", e),) if e else G.IDENTITY)
                         for e in exponents])


@settings(max_examples=150, deadline=None)
@given(cstar_z_elements(), st.integers(1, 8), st.integers(0, 8))
def test_moment_bound_torus_norm_and_l1_are_ordered(a, n, k):
    """Over Cstar(Z) the moment lower bound (LowerOnly) is at most the
    torus upper end (TwoSided), which is at most l1 + 2^-k."""
    _, upper = P.presentation_CstarLambda(Z).norm_interval(a, k)
    assert G.lambda_norm_lower(a, n, k) <= upper <= G.l1_norm(a) + Fraction(1, 2**k)

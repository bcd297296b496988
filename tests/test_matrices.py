import random
from fractions import Fraction

import pytest

import grid_roots

from contlogic import dyadic
from contlogic import matrices as M
from contlogic.dyadic import nth_root_upper_grid
from contlogic.gaussian import GaussianRational, from_gaussian_int, gr


def random_matrix(rng: random.Random, n: int, denom: int = 4) -> M.Matrix:
    def entry():
        return GaussianRational(
            Fraction(rng.randint(-8, 8), rng.randint(1, denom)),
            Fraction(rng.randint(-8, 8), rng.randint(1, denom)),
        )

    return M.Matrix([[entry() for _ in range(n)] for _ in range(n)])


def random_vector(rng: random.Random, n: int):
    return tuple(
        GaussianRational(Fraction(rng.randint(-8, 8)), Fraction(rng.randint(-8, 8)))
        for _ in range(n)
    )


def test_normalized_trace_identity():
    for n in (1, 2, 5):
        assert from_gaussian_int(*M.Matrix.identity(n).trace_int()) == gr(1)


def test_adjoint_involution():
    rng = random.Random(2)
    for _ in range(20):
        a = random_matrix(rng, 3)
        assert a.adjoint().adjoint() == a


def test_trace_cyclic():
    rng = random.Random(3)
    for _ in range(20):
        a, b = random_matrix(rng, 3), random_matrix(rng, 3)
        assert from_gaussian_int(*(a * b).trace_int()) == from_gaussian_int(*(b * a).trace_int())


def test_size_mismatch():  # sizes 2 and 4 meet in the tower, 3 and 4 do not
    i2, i4 = M.Matrix.identity(2), M.Matrix.identity(4)
    assert i2 * i4 == i4 and i4 * i2 == i4
    assert i2.comb(1, -1, i4).is_zero()
    three = M.Matrix.identity(3)
    for x, y in ((three, i4), (i4, three)):
        with pytest.raises(M.NotDyadicSize):
            x * y
        with pytest.raises(M.NotDyadicSize):
            x.comb(1, 1, y)


def test_two_norm_examples():
    assert M.two_norm(M.Matrix.identity(2), 10) == (1, 1)
    proj = M.Matrix([[gr(1), gr(0)], [gr(0), gr(0)]])
    lo, hi = M.two_norm(proj, 20)
    # sqrt(1/2) ~ 0.70711
    assert lo * lo <= Fraction(1, 2) <= hi * hi
    assert hi - lo <= Fraction(1, 2**20)
    assert M.two_norm(M.Matrix.identity(3).scale(0), 10) == (0, 0)


def test_opnorm_upper_identity():
    # tr(H^(2^m)) = 2 for I_2, so the bound is the grid ceiling of 2^(1/2^(m+1))
    for m in (0, 1, 3):
        bound = M.opnorm_upper(M.Matrix.identity(2), m)
        assert bound == nth_root_upper_grid(Fraction(2), 2 ** (m + 1), 16)
        assert bound >= 1


def _root_cases(n, rng):
    """(name, matrix) of size n: zero, c*I, rank 1, a Jordan block, and E_11
    and (3/4) E_11, whose roots land on the grid at every m."""
    def entry():
        return GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                                Fraction(rng.randint(-4, 4), rng.randint(1, 3)))

    u, v, c = [entry() for _ in range(n)], [entry() for _ in range(n)], entry()
    corner = [[gr(int(i == j == 0)) for j in range(n)] for i in range(n)]
    return [
        ("zero", M.Matrix.identity(n).scale(0)),
        ("scalar", M.Matrix.identity(n).scale(c)),
        ("rank1", M.Matrix([[x * y.conjugate() for y in v] for x in u])),
        ("jordan", M.Matrix([[c if i == j else gr(int(j == i + 1)) for j in range(n)]
                             for i in range(n)])),
        ("corner", M.Matrix(corner)),
        ("corner3/4", M.Matrix(corner).scale(Fraction(3, 4))),
    ]


@pytest.mark.parametrize("n", range(1, 17))
def test_root_bound_matches_the_former_root(n, monkeypatch):
    """Every matrix root at m <= 12 is the former `nth_root_upper_grid` of
    the reduced radicand; the roots on the grid are the leading-bits test's
    fallbacks, and it decides every other root past the exact size."""
    outcomes = []
    leading_root = dyadic._leading_root

    def counted(*args):
        outcomes.append(leading_root(*args))
        return outcomes[-1]
    monkeypatch.setattr(dyadic, "_leading_root", counted)
    for name, a in _root_cases(n, random.Random(n)):
        outcomes.clear()
        for m, t in enumerate(M._trace_chain(a, 13)):
            root = 2 ** (m + 1)
            expected = grid_roots.nth_root_upper_grid(Fraction(t, a.d**root), root, 16)
            assert M._root_bound(t, a.d, m) == expected, (name, m)
        if name.startswith("corner"):
            assert outcomes and None in outcomes, name
        elif name != "zero" and n > 1:
            assert outcomes and None not in outcomes, name


def test_opnorm_upper_projection_exact_at_zero():
    proj = M.Matrix([[gr(1), gr(0)], [gr(0), gr(0)]])
    assert M.opnorm_upper(proj, 0) == 1
    for m in (1, 2, 5):
        assert M.opnorm_upper(proj, m) == 1


def test_opnorm_upper_zero_matrix():
    assert M.opnorm_upper(M.Matrix.identity(2).scale(0), 3) == 0


def test_opnorm_upper_monotone_in_m():
    rng = random.Random(5)
    for _ in range(10):
        a = random_matrix(rng, 4)
        bounds = [M.opnorm_upper(a, m) for m in range(7)]
        for b1, b2 in zip(bounds, bounds[1:]):
            assert b2 <= b1


def test_opnorm_lower_examples():
    ident = M.Matrix.identity(3)
    v = (gr(1), gr(2), gr(0))
    lower = M.opnorm_lower(ident, v, 16)
    assert lower <= 1
    assert lower >= 1 - Fraction(1, 2**15)
    proj = M.Matrix([[gr(1), gr(0)], [gr(0), gr(0)]])
    assert M.opnorm_lower(proj, (gr(1), gr(0)), 16) == 1
    with pytest.raises(M.ZeroVector):
        M.opnorm_lower(ident, (gr(0), gr(0), gr(0)), 8)


def test_rayleigh_sandwich():
    rng = random.Random(7)
    for _ in range(10):
        a = random_matrix(rng, 4)
        upper = M.opnorm_upper(a, 6)
        best = max(M.opnorm_lower(a, random_vector(rng, 4), 12) for _ in range(16))
        assert best <= upper


def test_two_norm_below_opnorm():
    rng = random.Random(8)
    for _ in range(10):
        a = random_matrix(rng, 4)
        lo, hi = M.two_norm(a, 12)
        assert lo <= M.opnorm_upper(a, 6) + Fraction(1, 2**10)


def test_embed_dyadic():
    assert M.embed_to_size(M.Matrix.identity(2), 4) == M.Matrix.identity(4)
    rng = random.Random(9)
    for _ in range(10):
        a, b = random_matrix(rng, 2), random_matrix(rng, 2)
        ea, eb = M.embed_to_size(a, 4), M.embed_to_size(b, 4)
        assert M.embed_to_size(a * b, 4) == ea * eb
        assert from_gaussian_int(*ea.trace_int()) == from_gaussian_int(*a.trace_int())
        assert M.two_norm(ea, 14) == M.two_norm(a, 14)
    with pytest.raises(M.NotDyadicSize):
        M.embed_to_size(M.Matrix.identity(3), 6)


def test_enumerate_matrices_base_and_positions():
    assert M.enumerate_matrices(0) == M.Matrix.identity(1).scale(0)
    i1 = M.matrix_index(M.Matrix.identity(1))
    i2 = M.matrix_index(M.Matrix.identity(2))
    assert i1 < 200 and i2 < 200
    assert M.enumerate_matrices(i1) == M.Matrix.identity(1)
    assert M.enumerate_matrices(i2) == M.Matrix.identity(2)


def test_enumerate_matrices_refuses_past_the_size_rule(monkeypatch):
    assert M.enumerate_matrices(2**6 - 1).n == 2**6
    # refused before any entry is decoded: 2^20 x 2^20 entries would fill memory
    monkeypatch.setattr(M, "decode_tuple", None)
    for index in (2**7 - 1, 2**20 * 3 - 1):
        with pytest.raises(M.MatrixTooLarge):
            M.enumerate_matrices(index)


def test_enumerate_matrices_injective_and_roundtrip():
    seen = set()
    for i in range(200):
        if (i + 1) % 2**7 == 0:  # 128 x 128, past the size rule
            with pytest.raises(M.MatrixTooLarge):
                M.enumerate_matrices(i)
            continue
        a = M.enumerate_matrices(i)
        assert a not in seen
        seen.add(a)
        assert M.matrix_index(a) == i

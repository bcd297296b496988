import random
from fractions import Fraction

import pytest

from contlogic import groups as G
from contlogic import matrices as M
from contlogic import presentations as P
from contlogic.formulas import rounded_bound_ok
from contlogic.gaussian import GaussianRational, from_gaussian_int, gr
from contlogic.pairing import pair as cantor_pair

import point_terms as terms


_F2, _Z = G.free_group("u", "v"), G.free_abelian("u")  # elements compare by spec


@pytest.fixture(scope="module")
def pres_r():
    return P.presentation_R()


@pytest.fixture(scope="module")
def pres_c2w():
    return P.presentation_C2w()


@pytest.fixture(scope="module")
def pres_l_z():
    return P.presentation_L(G.free_abelian("u"))


@pytest.fixture(scope="module")
def pres_cstar_z():
    return P.presentation_CstarLambda(G.free_abelian("u"))


@pytest.fixture(scope="module")
def pres_cstar_f2():
    return P.presentation_CstarLambda(G.free_group("u", "v"))


def test_point_enumeration_base(pres_l_z):
    assert terms.algebra_point_at(0) == terms.PSpecial(0)
    assert terms.algebra_point_at(4) == terms.PSpecial(1)
    # a point is its index, and special point i sits at index 4i
    assert pres_l_z.rational_point(4) == 4
    assert pres_l_z.point_object(0) == pres_l_z._special(0)
    assert pres_l_z.point_object(4) == pres_l_z._special(1)


def test_point_enumeration_closure_products():
    pres = P.presentation_L(_F2)  # points 8 and 36 do not commute
    for i in range(40):
        for j in range(40):
            idx = 4 * cantor_pair(i, j) + 2  # documented in docs/encodings.md
            point = terms.algebra_point_at(idx)
            assert point == terms.PMul(terms.algebra_point_at(i), terms.algebra_point_at(j))
            assert pres.point_object(idx) == pres.point_object(i) * pres.point_object(j)


def _rounded_bounds_ok(point) -> bool:
    if isinstance(point, terms.PSpecial):
        return True
    if isinstance(point, terms.PAdj):
        return _rounded_bounds_ok(point.arg)
    return ((not isinstance(point, terms.PComb) or rounded_bound_ok(point.lam, point.mu))
            and _rounded_bounds_ok(point.left) and _rounded_bounds_ok(point.right))


def test_point_enumeration_rounded_bounds_hold():
    for i in range(600):
        assert _rounded_bounds_ok(terms.algebra_point_at(i))


ORACLE_PRESENTATIONS = {
    "R": P.presentation_R,
    "L(F2)": lambda: P.presentation_L(_F2),
    "Cstar(Z)": lambda: P.presentation_CstarLambda(_Z),
    "C2w": P.presentation_C2w,
}


@pytest.mark.parametrize("name", sorted(ORACLE_PRESENTATIONS))
def test_point_object_matches_the_term_oracle(name):
    # decoding the index gives the object of the oracle's tree for it, built
    # by a second presentation with its own cache
    pres, oracle = ORACLE_PRESENTATIONS[name](), ORACLE_PRESENTATIONS[name]()
    cache: dict = {}
    for i in range(2000):
        want = terms.walk(oracle, terms.algebra_point_at(i), cache)
        assert pres.point_object(i) == want, i


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(ORACLE_PRESENTATIONS))
def test_negative_indices_behave_as_the_term_oracle(name):
    # every presentation refuses a negative index alike; the term oracle
    # gives 0 on infinite groups and a ValueError elsewhere
    pres = ORACLE_PRESENTATIONS[name]()
    for i in range(-40, 0):
        want = (ValueError, f"point index must be >= 0, got {i}")
        assert _outcome(pres.point_object, i) == want, i


def test_matrix_presentation_special_in_unit_ball(pres_r):
    for i in range(1, 25):
        obj = pres_r.point_object(4 * i)
        if obj.is_zero():
            continue
        # |B| = |A|/p <= 1 is certified by construction; check the 2-norm side
        lo, hi = M.two_norm(obj, 10)
        assert lo <= 1 + Fraction(1, 2**9)


def test_matrix_presentation_zero_point(pres_r):
    point = 0  # special (m, n) = (0, 0): the 1x1 zero matrix
    assert pres_r.norm_interval(pres_r.point_object(point), 11)[0] == 0


def test_matrix_presentation_identity_norm(pres_r):
    n_i2 = M.matrix_index(M.Matrix.identity(2))
    special = cantor_pair(3, n_i2)  # m = 3
    point = 4 * special
    p_bound = M.opnorm_upper(M.Matrix.identity(2), 3)
    value = pres_r.norm_interval(pres_r.point_object(point), 11)[0]
    # 2-norm of I2/p is exactly 1/p
    assert abs(value - 1 / p_bound) < Fraction(1, 2**10)
    # cross-module equality of the radicand
    lo, hi = M.two_norm(pres_r.point_object(point), 12)
    assert lo <= 1 / p_bound <= hi


def test_cantor_presentation_examples(pres_c2w):
    one = P.CantorFn.from_tree(gr(1))
    assert pres_c2w.norm_interval(one, 10) == (1, 1)
    ind = P.CantorFn.from_tree((gr(Fraction(3, 4)), gr(0)))
    assert pres_c2w.norm_interval(ind, 10) == (Fraction(3, 4), Fraction(3, 4))
    # modulus exactly 1 via the 3-4-5 triple
    ind345 = P.CantorFn.from_tree(
        ((gr(0), GaussianRational(Fraction(3, 5), Fraction(4, 5))), gr(0)))
    lo, hi = pres_c2w.norm_interval(ind345, 12)
    assert lo <= 1 <= hi and hi - lo <= Fraction(1, 2**12)
    # disjoint cylinders multiply to zero
    a = P.CantorFn.from_tree((gr(1), gr(0)))
    b = P.CantorFn.from_tree((gr(0), gr(1)))
    prod = a * b
    assert pres_c2w.norm_interval(prod, 10) == (0, 0)


def test_cantor_special_points_clipped(pres_c2w):
    for i in range(80):
        obj = pres_c2w.point_object(4 * i)
        assert obj.sup_abs_sq() <= 1


def test_cantor_merge_canonical():
    f = P.CantorFn.from_tree((gr(1), gr(1)))
    assert f == P.CantorFn.from_tree(gr(1))


def test_l_presentation_identity(pres_l_z):
    ident_idx = G.group_algebra_index(G.element(pres_l_z.spec, [(1, G.IDENTITY)]))
    assert ident_idx == 1
    obj = pres_l_z.point_object(4)
    assert abs(pres_l_z.norm_interval(obj, 11)[0] - 1) < Fraction(1, 2**10)
    assert from_gaussian_int(*obj.trace_int()) == gr(1)


def test_torus_upgrade_two_sided(pres_cstar_z):
    assert pres_cstar_z.abelian
    spec = pres_cstar_z.spec
    a = G.element(spec, [(Fraction(1, 2), (("u", 1),)), (Fraction(1, 2), (("u", -1),))])
    lo, hi = pres_cstar_z.norm_interval(a, 10)
    assert lo <= 1 <= hi
    assert hi - lo <= Fraction(1, 2**10)
    # moment lower bounds stay below the torus value
    for n in (1, 2, 5, 8):
        assert G.lambda_norm_lower(a, n, 10) <= hi + Fraction(1, 2**10)


def test_f2_lower_only_monotone(pres_cstar_f2):
    assert not pres_cstar_f2.abelian
    spec = pres_cstar_f2.spec
    a = G.element(
        spec,
        [(1, (("u", 1),)), (1, (("u", -1),)), (1, (("v", 1),)), (1, (("v", -1),))],
    )
    a = a.scale(gr(Fraction(1, 4)))  # l1-normalized
    lowers = [pres_cstar_f2.norm_interval(a, 10, budget=b)[0] for b in (1, 2, 4, 8)]
    assert lowers == sorted(lowers)
    lo, hi = pres_cstar_f2.norm_interval(a, 10, budget=10)
    assert lo <= hi == 1
    # spectral radius of the simple walk on the 4-regular tree: 2*sqrt(3)/4 ~ 0.8660 after l1 scaling
    assert lo <= Fraction(8661, 10000)
    assert lo >= Fraction(70, 100)


def test_z2_table_projection_norm():
    spec = G.TableGroup(("e", "a"), "e", [["e", "a"], ["a", "e"]])
    pres = P.presentation_CstarLambda(spec)
    proj = G.element(spec, [(Fraction(1, 2), ()), (Fraction(1, 2), (("a", 1),))])
    lo, hi = pres.norm_interval(proj, 10, budget=16)
    assert hi == 1
    assert lo >= Fraction(95, 100)
    assert lo <= 1


def test_oracle_consistency_across_precisions(pres_r, pres_c2w, pres_l_z):
    for pres in (pres_r, pres_c2w, pres_l_z):
        for idx in (1, 2, 5, 9):
            obj = pres.point_object(pres.rational_point(idx))
            a_lo, a_hi = pres.norm_interval(obj, 6)
            b_lo, b_hi = pres.norm_interval(obj, 7)
            assert max(a_lo, b_lo) <= min(a_hi, b_hi)


def test_adjoint_invariance(pres_r, pres_c2w, pres_l_z, pres_cstar_f2):
    k = 8
    for pres in (pres_r, pres_c2w, pres_l_z, pres_cstar_f2):
        for idx in (1, 3, 6, 11):
            objs = pres.point_object(idx), pres.point_object(4 * idx + 1)  # x, adj(x)
            if pres is not pres_cstar_f2:  # the one LowerOnly oracle here
                a, b = (pres.norm_interval(obj, k + 1)[0] for obj in objs)
                assert abs(a - b) <= 2 * Fraction(1, 2**k)
            else:
                # same certified bounds: the norm is *-invariant
                a, b = (pres.norm_interval(obj, k, budget=4) for obj in objs)
                assert a == b


def test_lower_le_upper_always(pres_cstar_f2):
    rng = random.Random(12)
    for _ in range(10):
        idx = rng.randint(0, 40)
        obj = pres_cstar_f2.point_object(pres_cstar_f2.rational_point(idx))
        lo, hi = pres_cstar_f2.norm_interval(obj, 8, budget=3)
        assert lo <= hi


def test_metric_distance_atom(pres_l_z):
    # d(x, x) evaluates to an interval containing 0
    obj = pres_l_z.point_object(4)
    lo, hi = pres_l_z.atom_interval("d", [obj, obj], 10)
    assert lo == 0
    assert hi <= Fraction(1, 2**9)


def test_trace_atoms(pres_l_z):
    obj = pres_l_z.point_object(4)  # identity
    lo, hi = pres_l_z.atom_interval("tr_re", [obj], 10)
    assert lo == hi == 1
    lo, hi = pres_l_z.atom_interval("tr_im", [obj], 10)
    assert lo == hi == Fraction(1, 2)


def test_atoms_outside_the_signature_are_refused(pres_r, pres_c2w, pres_l_z, pres_cstar_z,
                                                  pres_cstar_f2):
    traces = ["tr_re", "tr_im"]  # in the tracial signature only
    for pres, preds in ((pres_r, []), (pres_l_z, []), (pres_c2w, traces),
                        (pres_cstar_z, traces), (pres_cstar_f2, traces)):
        obj = pres.point_object(4)
        for pred in ["dist", "tr"] + preds:
            with pytest.raises(P.PresentationError, match="unknown predicate"):
                pres.atom_interval(pred, [obj, obj], 8)

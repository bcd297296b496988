import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from contlogic import formulas as F
from contlogic.gaussian import gr
from contlogic.parser import parse_formula, print_formula

import two_pass_prenex
from helpers import random_formula

d = lambda a, b: F.Atomic("d", (a, b))
x, y = F.Var("x"), F.Var("y")
c1, c2 = F.CConst(1), F.CConst(2)


def test_free_vars_examples():
    assert F.free_vars(F.Sup("x", d(x, c1))) == set()
    assert F.free_vars(d(x, y)) == {"x", "y"}
    assert F.free_vars(F.DotMinus(d(x, y), d(x, x))) == {"x", "y"}


def test_prenex_half_commutes():
    f = F.Half(F.Sup("x", d(x, c1)))
    p = F.prenex(f)
    assert isinstance(p, F.Sup)
    assert isinstance(p.body, F.Half)
    assert isinstance(p.body.body, F.Atomic)


def test_prenex_antitone_flips_quantifier():
    f = F.DotMinus(F.One(), F.Sup("x", d(x, x)))
    p = F.prenex(f)
    assert isinstance(p, F.Inf)
    assert isinstance(p.body, F.DotMinus)
    assert isinstance(p.body.left, F.One)


def test_prenex_idempotent_on_prenex_input():
    f = F.Sup("v1", F.Inf("v2", F.DotMinus(d(F.Var("v1"), F.Var("v2")), F.One())))
    assert F.prenex(f) == f


def test_prenex_renames_to_avoid_capture():
    # x free on the right; the bound x must be renamed when pulled
    f = F.DotMinus(F.Sup("x", d(x, c1)), d(x, c2))
    p = F.prenex(f)
    assert isinstance(p, F.Sup)
    assert p.var != "x"
    assert "x" in F.free_vars(p)


PRENEX_HAND_CASES = [
    # free v1 and v2: the fresh names skip them
    ("metric", "d(v1, c1) -. sup x . inf y . d(x, v2)",
     "inf v3 . sup v4 . (d(v1, c1) -. d(v3, v2))"),
    # the inner binder shadows the outer one
    ("metric", "sup x . sup x . d(x, c1)", "sup v1 . sup v2 . d(v2, c1)"),
    # half commutes; the right operand's inf flips; the left prefix comes first
    ("metric", "half(sup x . d(x, c1)) -. inf y . d(y, c2)",
     "sup v1 . sup v2 . (half(d(v1, c1)) -. d(v2, c2))"),
    ("metric", "(inf x . d(x, c1)) -. half(sup y . sup z . d(y, z))",
     "inf v1 . inf v2 . inf v3 . (d(v1, c1) -. half(d(v2, v3)))"),
    # a right operand nested twice flips twice
    ("metric", "1 -. (1 -. sup x . d(x, c1))", "sup v1 . (1 -. (1 -. d(v1, c1)))"),
    ("metric", "(sup x . d(x, c1)) -. ((inf y . d(y, c1)) -. sup z . d(z, c2))",
     "sup v1 . sup v2 . sup v3 . (d(v1, c1) -. (d(v2, c1) -. d(v3, c2)))"),
    # bound variables inside adj, mul and comb terms
    ("cstar", "sup x . d(comb(1/2, adj(x), 1/2, mul(x, c1)), c1)",
     "sup v1 . d(comb(1/2+0i, adj(v1), 1/2+0i, mul(v1, c1)), c1)"),
    ("tvna", "(sup x . tr_re(mul(x, adj(x)))) -. inf y . d(comb(1/2, y, 1/2, mul(c1, y)), y)",
     "sup v1 . sup v2 . (tr_re(mul(v1, adj(v1))) -. d(comb(1/2+0i, v2, 1/2+0i, mul(c1, v2)), v2))"),
]


def _assert_prenex_matches_two_pass(f: F.Formula) -> None:
    expected = two_pass_prenex.prenex(f)
    assert F.prenex(f) == expected
    assert F.prenex_parts(f) == F.prefix_of(expected)


@pytest.mark.parametrize("signature, text, printed", PRENEX_HAND_CASES)
def test_prenex_parts_hand_cases(signature, text, printed):
    f = parse_formula(text, F.PRESETS[signature])
    _assert_prenex_matches_two_pass(f)
    assert print_formula(F.prenex(f)) == printed


@pytest.mark.parametrize("sig", [F.METRIC, F.CSTAR, F.TVNA], ids=lambda s: s.name)
def test_prenex_parts_matches_two_pass_prenex(sig):
    rng = random.Random(f"prenex-{sig.name}")
    for _ in range(400):
        _assert_prenex_matches_two_pass(random_formula(rng, sig, depth=rng.randint(1, 7)))


def test_classify_prefix_examples():
    assert F.classify_prefix(d(c1, c2)) == "qf"
    two = F.Sup("x", F.Inf("y", d(x, y)))
    assert F.classify_prefix(two) == "forall2"
    merged = F.Inf("x", F.Inf("y", d(x, y)))
    assert F.classify_prefix(merged) == "exists1"


def test_classify_prefix_rejects_non_prenex():
    f = F.Half(F.Sup("x", d(x, x)))
    with pytest.raises(F.NotPrenex):
        F.classify_prefix(f)


def test_classify_prefix_after_prenex_never_errors():
    rng = random.Random(42)
    for _ in range(300):
        f = random_formula(rng, F.METRIC, depth=5)
        F.classify_prefix(F.prenex(f))  # must not raise


def test_dyadic_constant_values():
    # exact evaluation of the constant formulas
    def const_value(f):
        if isinstance(f, F.Zero):
            return Fraction(0)
        if isinstance(f, F.One):
            return Fraction(1)
        if isinstance(f, F.Half):
            return const_value(f.body) / 2
        if isinstance(f, F.DotMinus):
            return F.dot_minus_value(const_value(f.left), const_value(f.right))
        raise AssertionError(f)

    for q in [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3, 8), Fraction(13, 16)]:
        assert const_value(F.dyadic_constant(q)) == q


def test_half_power_one():
    f = F.half_power_one(2)
    assert isinstance(f, F.Half) and isinstance(f.body, F.Half)
    assert isinstance(f.body.body, F.One)


def test_rounded_bound_decision():
    assert F.rounded_bound_ok(gr(Fraction(1, 2)), gr(Fraction(1, 2)))
    assert F.rounded_bound_ok(gr(Fraction(3, 5), Fraction(4, 5)), gr(0))
    assert not F.rounded_bound_ok(gr(Fraction(3, 4)), gr(Fraction(1, 2)))
    assert not F.rounded_bound_ok(gr(Fraction(3, 5), Fraction(4, 5)), gr(Fraction(1, 100)))
    # |1/2 + 1/2 i| + |1/2 - 1/2 i| = sqrt(2) > 1
    assert not F.rounded_bound_ok(
        gr(Fraction(1, 2), Fraction(1, 2)), gr(Fraction(1, 2), Fraction(-1, 2))
    )


def test_walks_yield_parents_first_and_reject_non_nodes():
    half = gr(Fraction(1, 2))
    comb = F.Comb(half, half, c1, y)
    term = F.App("mul", (x, comb))
    assert list(F.subterms(term)) == [term, x, comb, c1, y]
    atom = d(term, c2)
    f = F.DotMinus(F.Half(atom), F.Sup("x", F.One()))
    assert list(F.subformulas(f)) == [f, f.left, atom, f.right, F.One()]
    with pytest.raises(F.FormulaError):
        list(F.subterms(F.App("adj", ("x",))))
    with pytest.raises(F.FormulaError):
        list(F.subformulas(F.Half("phi")))


def test_validate_catches_errors():
    with pytest.raises(F.UnknownSymbol):
        F.validate(F.Atomic("nope", (x,)), F.METRIC)
    with pytest.raises(F.ArityMismatch):
        F.validate(F.Atomic("d", (x,)), F.METRIC)
    bad = F.Comb(gr(Fraction(3, 4)), gr(Fraction(1, 2)), x, y)
    with pytest.raises(F.RoundedBoundViolation):
        F.validate(F.Atomic("d", (bad, x)), F.CSTAR)
    with pytest.raises(F.UnknownSymbol):
        F.validate(F.Atomic("d", (F.Comb(gr(1), gr(0), x, y), x)), F.METRIC)


unit = st.fractions(min_value=0, max_value=1)


@given(unit, unit)
def test_connectives_stay_in_unit_interval(a, b):
    assert 0 <= F.dot_minus_value(a, b) <= 1

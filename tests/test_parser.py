import random
from fractions import Fraction

import pytest

from contlogic import formulas as F
from contlogic import groups as G
from contlogic.parser import ParseError, parse_element, parse_formula, print_formula

from helpers import random_formula


def test_parse_sup_atomic():
    f = parse_formula("sup x . d(x, c1)", F.METRIC)
    assert f == F.Sup("x", F.Atomic("d", (F.Var("x"), F.CConst(1))))


def test_parse_consistency_sentence_body():
    f = parse_formula("1 -. sup x . d(x,x)", F.METRIC)
    assert f == F.DotMinus(F.One(), F.Sup("x", F.Atomic("d", (F.Var("x"), F.Var("x")))))


def test_parse_rounded_bound_violation():
    with pytest.raises(ParseError) as info:
        parse_formula("d(comb(3/4+0i, x, 1/2+0i, y), x)", F.CSTAR)
    assert info.value.kind == "rounded-bound"
    assert info.value.line == 1 and info.value.col > 0


def test_parse_half_and_nesting():
    f = parse_formula("half((d(c1,c2) -. 1) -. 0)", F.METRIC)
    assert isinstance(f, F.Half)
    assert isinstance(f.body, F.DotMinus)


def test_dotminus_right_associates():
    f = parse_formula("1 -. 1 -. 0", F.METRIC)
    assert f == F.DotMinus(F.One(), F.DotMinus(F.One(), F.Zero()))


def test_parse_errors_carry_position():
    cases = [
        ("sup x d(x,x)", "syntax"),
        ("d(x)", "arity-mismatch"),
        ("q(x, y)", "unknown-symbol"),
        ("d(x, y) -. ", "syntax"),
        ("", "syntax"),
        ("d(x,y))", "syntax"),
    ]
    for text, kind in cases:
        with pytest.raises(ParseError) as info:
            parse_formula(text, F.METRIC)
        assert info.value.kind == kind, text
        assert info.value.line >= 1 and info.value.col >= 1
    # function argument lists: kind, position and message pinned
    pinned = [
        ("d(adj(x, y), x)", "arity-mismatch", 1, 3, "adj expects 1 arguments, got 2"),
        ("d(mul(x, y x), y)", "syntax", 1, 12, "expected ')', found 'x'"),
    ]
    for text, kind, line, col, message in pinned:
        with pytest.raises(ParseError) as info:
            parse_formula(text, F.CSTAR)
        assert (info.value.kind, info.value.line, info.value.col) == (kind, line, col), text
        assert str(info.value) == f"{line}:{col}: {message}"


@pytest.mark.parametrize("text, sig, kind, line, col, message", [
    ("d(x y)", F.METRIC, "syntax", 1, 5, "expected ')', found 'y'"),
    ("d(x)", F.METRIC, "arity-mismatch", 1, 1, "d expects 2 arguments, got 1"),
    ("d(comb(1, x, 1, y), x)", F.CSTAR, "rounded-bound", 1, 3,
     "|1+0i| + |1+0i| > 1 in rounded combination"),
    ("d(comb(0.5, x, 0, y), x)", F.CSTAR, "scalar-not-gaussian-rational", 1, 8,
     "decimal literals are not Gaussian rationals; write a/b"),
    ("d(comb(1/0, x, 0, y), x)", F.CSTAR, "scalar-not-gaussian-rational", 1, 10,
     "zero denominator"),
    ("d(comb(1/2+1/2j, x, 0, y), x)", F.CSTAR, "scalar-not-gaussian-rational", 1, 15,
     "expected 'i', found 'j'"),
    ("d(x, y) z", F.METRIC, "syntax", 1, 9, "unexpected trailing input 'z'"),
    ("d(c1,\n  c2) -. d(c1 c2)", F.METRIC, "syntax", 2, 15, "expected ')', found 'c2'"),
])
def test_parse_error_sites_pin_kind_position_and_message(text, sig, kind, line, col, message):
    with pytest.raises(ParseError) as info:
        parse_formula(text, sig)
    assert (info.value.kind, info.value.line, info.value.col) == (kind, line, col)
    assert str(info.value) == f"{line}:{col}: {message}"


def test_non_ascii_digits_and_letters_are_refused():
    # str.isdigit and int() read the Arabic-Indic digits; the grammar is ASCII
    cases = [
        (lambda t: parse_formula(t, F.METRIC), "d(c\u0663, c1)", 4),
        (lambda t: parse_formula(t, F.CSTAR), "d(comb(1/\u0662, x, 0, y), x)", 10),
        (lambda t: parse_element(t, G.free_group("u")), "\u0663*u", 1),
        (lambda t: parse_formula(t, F.METRIC), "sup x\u00e9 . d(x\u00e9, x\u00e9)", 6),
        (lambda t: parse_formula(t, F.METRIC), "d(x,\n  y\u00b2)", 4),
    ]
    for parse, text, col in cases:
        with pytest.raises(ParseError) as info:
            parse(text)
        bad = text.splitlines()[info.value.line - 1][col - 1]
        assert (info.value.kind, info.value.col) == ("syntax", col), text
        assert not bad.isascii()
        assert str(info.value).endswith(f"unexpected character {bad!r}")


def test_decimal_scalar_rejected():
    with pytest.raises(ParseError) as info:
        parse_formula("d(comb(0.5, x, 0, y), x)", F.CSTAR)
    assert info.value.kind == "scalar-not-gaussian-rational"


def test_comb_rejected_in_metric_signature():
    with pytest.raises(ParseError) as info:
        parse_formula("d(comb(1, x, 0, y), x)", F.METRIC)
    assert info.value.kind == "unknown-symbol"


def test_gaussian_literals():
    f = parse_formula("d(comb(1/2+1/4i, x, -1/8-1/8i, y), x)", F.CSTAR)
    term = f.args[0]
    assert term.lam.re == Fraction(1, 2) and term.lam.im == Fraction(1, 4)
    assert term.mu.re == Fraction(-1, 8) and term.mu.im == Fraction(-1, 8)


def test_print_depth_zero_roundtrip():
    f = F.Atomic("d", (F.CConst(1), F.CConst(2)))
    assert parse_formula(print_formula(f), F.METRIC) == f


def test_print_nested_dotminus_parenthesizes():
    f = F.DotMinus(F.DotMinus(F.One(), F.Zero()), F.One())
    text = print_formula(f)
    assert text.count("(") >= 2
    assert parse_formula(text, F.METRIC) == f


@pytest.mark.parametrize("preset", ["metric", "cstar", "tvna"])
def test_roundtrip_random(preset):
    sig = F.PRESETS[preset]
    rng = random.Random(hash(preset) % (2**32))
    for _ in range(170):
        f = random_formula(rng, sig, depth=6)
        assert parse_formula(print_formula(f), sig) == f


def test_tvna_trace_predicates_parse():
    f = parse_formula("tr_re(mul(x, adj(x)))", F.TVNA)
    assert f == F.Atomic("tr_re", (F.App("mul", (F.Var("x"), F.App("adj", (F.Var("x"),)))),))

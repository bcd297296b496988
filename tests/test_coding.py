import random

import pytest

from contlogic import coding, formulas as F

import delta_strings
from helpers import random_formula, random_sentence

d = lambda a, b: F.Atomic("d", (a, b))
x = F.Var("x")
c1, c2 = F.CConst(1), F.CConst(2)


def test_roundtrip_simple():
    f = F.Sup("x", d(x, c1))
    assert coding.decode(coding.encode(f, F.METRIC)) == f
    assert coding.decode(coding.encode(F.One(), F.METRIC)) == F.One()


def test_injectivity_depth_one():
    a = coding.encode(d(c1, c1), F.METRIC)
    b = coding.encode(d(c1, c2), F.METRIC)
    assert a != b


def test_roundtrip_random_all_presets():
    rng = random.Random(17)
    for sig in (F.METRIC, F.CSTAR, F.TVNA):
        for _ in range(150):
            f = random_formula(rng, sig, depth=6)
            code = coding.encode(f, sig)
            got_sig, got = coding.decode_full(code)
            assert got == f
            assert got_sig.name == sig.name


def test_decode_total_on_random_naturals():
    rng = random.Random(23)
    for _ in range(1000):
        n = rng.randint(0, 2**64)
        try:
            f = coding.decode(n)
            # decodable values re-encode to the same number
            sig, _ = coding.decode_full(n)
            assert coding.encode(f, sig) == n
        except coding.NotACode:
            pass


def test_integer_pairing_matches_string_pairing():
    for a in range(300):
        for b in range(300):
            assert coding.pair(a, b) == delta_strings.pair(a, b)
    rng = random.Random(29)
    for _ in range(20000):
        a, b = (rng.getrandbits(rng.randint(1, 400)) for _ in range(2))
        assert coding.pair(a, b) == delta_strings.pair(a, b)
        assert coding.unpair(coding.pair(a, b)) == (a, b)
        assert delta_strings.unpair(coding.pair(a, b)) == (a, b)
    with pytest.raises(ValueError):
        coding.pair(-1, 0)
    # every natural decodes alike, or fails with the same message
    for n in list(range(-2, 5000)) + [rng.getrandbits(rng.randint(1, 300)) for _ in range(5000)]:
        assert _unpair_outcome(coding.unpair, n) == _unpair_outcome(delta_strings.unpair, n)
    # after the '1' sentinel: "000" has no header, "010" announces one payload
    # bit that is missing, and "111" is pair(0, 0) followed by one bit more
    for n, message in [(0b1000, "truncated delta header"), (0b101, "truncated delta header"),
                       (0b1010, "truncated delta payload"), (0b10010011, "truncated delta payload"),
                       (0b1111, "trailing bits after pair"), (0, "not in the pairing image")]:
        for unpair in (coding.unpair, delta_strings.unpair):
            with pytest.raises(coding.NotACode, match=message):
                unpair(n)


def _unpair_outcome(unpair, n):
    try:
        return unpair(n)
    except coding.NotACode as exc:
        return str(exc)


def test_decode_zero_is_not_a_code():
    # 0 lies outside the pairing image by design
    with pytest.raises(coding.NotACode):
        coding.decode(0)


def test_frozen_code_values():
    # these literals pin the documented coding; they must never change
    assert coding.encode(F.Zero(), F.METRIC) == 800
    assert coding.encode(F.One(), F.METRIC) == 3274
    assert coding.encode(F.Zero(), F.CSTAR) == 5152


def test_coding_f_builds_dotminus_constant():
    f = F.Sup("x", d(x, c1))
    p = coding.encode(f, F.METRIC)
    got = coding.decode(coding.coding_f(p, 0))
    assert got == F.DotMinus(f, F.One())
    got2 = coding.decode(coding.coding_f(p, 2))
    assert got2 == F.DotMinus(f, F.Half(F.Half(F.One())))
    assert coding.coding_f(p, 3) != p


def test_coding_g():
    a = d(c1, c1)
    b = d(c1, c2)
    pa, pb = coding.encode(a, F.METRIC), coding.encode(b, F.METRIC)
    assert coding.decode(coding.coding_g(pa, pb)) == F.DotMinus(a, b)
    assert coding.decode(coding.coding_g(pa, pa)) == F.DotMinus(a, a)


def test_coding_fg_random_totality():
    rng = random.Random(31)
    for _ in range(100):
        p = coding.encode(random_formula(rng, F.METRIC, depth=4), F.METRIC)
        q = coding.encode(random_formula(rng, F.METRIC, depth=4), F.METRIC)
        n = rng.randint(0, 8)
        fp = coding.coding_f(p, n)
        gpq = coding.coding_g(p, q)
        assert coding.decode(fp) == F.DotMinus(coding.decode(p), F.half_power_one(n))
        assert coding.decode(gpq) == F.DotMinus(coding.decode(p), coding.decode(q))


def test_coding_g_injective_on_pairs():
    rng = random.Random(37)
    seen = {}
    for _ in range(50):
        p = coding.encode(random_formula(rng, F.METRIC, depth=3), F.METRIC)
        q = coding.encode(random_formula(rng, F.METRIC, depth=3), F.METRIC)
        code = coding.coding_g(p, q)
        if (p, q) in seen:
            assert seen[(p, q)] == code
        else:
            for other, c in seen.items():
                assert c != code or other == (p, q)
            seen[(p, q)] = code


def test_code_predicates():
    flags = coding.code_predicates(coding.encode(d(c1, c2), F.METRIC))
    assert flags.is_formula and flags.is_sentence and flags.is_qf
    assert not flags.is_in_base_L
    flags = coding.code_predicates(coding.encode(d(x, x), F.METRIC))
    assert flags.is_formula and not flags.is_sentence and flags.is_qf
    assert flags.is_in_base_L
    two = F.Sup("x", F.Inf("y", d(F.Var("x"), F.Var("y"))))
    flags = coding.code_predicates(coding.encode(two, F.METRIC))
    assert flags.prefix_class == "forall2"


def test_term_tag_2_is_reserved():
    # metric d(t, t) where t is a tag-2 term carrying the name "e"
    code = 7633592922443432212650973997546
    t = coding.pair(2, int.from_bytes(b"e", "big"))
    assert code == coding.pair(0, coding.pair(6, coding.pair(
        int.from_bytes(b"d", "big"), coding.pair(t, t))))
    with pytest.raises(coding.NotACode, match="unknown term tag 2"):
        coding.decode(code)
    assert not coding.code_predicates(code).is_formula


def test_code_predicates_total():
    rng = random.Random(41)
    for _ in range(500):
        flags = coding.code_predicates(rng.randint(0, 2**48))
        if not flags.is_formula:
            assert flags == coding.CodeFlags(False, False, False, False, None)


def test_code_predicates_agrees_with_classify():
    rng = random.Random(43)
    for _ in range(100):
        f = F.prenex(random_sentence(rng, F.METRIC, depth=4))
        code = coding.encode(f, F.METRIC)
        assert coding.code_predicates(code).prefix_class == F.classify_prefix(f)


def test_symbols_resolve_through_the_signature():
    c1 = F.CConst(1)
    cases = [
        (F.Atomic("q", (c1,)), F.METRIC, F.UnknownSymbol,
         "unknown predicate 'q' in signature metric"),
        (F.Atomic("d", (F.App("f", (c1,)), c1)), F.CSTAR, F.UnknownSymbol,
         "unknown function 'f' in signature cstar"),
        (F.Atomic("d", (c1,)), F.METRIC, F.ArityMismatch, "d expects 2 arguments, got 1"),
        (F.Atomic("tr_re", (c1, c1)), F.TVNA, F.ArityMismatch,
         "tr_re expects 1 arguments, got 2"),
        (F.Atomic("d", (F.App("adj", (c1, c1)), c1)), F.CSTAR, F.ArityMismatch,
         "adj expects 1 arguments, got 2"),
        (F.Atomic("d", (F.App("mul", (c1,)), c1)), F.TVNA, F.ArityMismatch,
         "mul expects 2 arguments, got 1"),
    ]
    for formula, sig, error, message in cases:
        with pytest.raises(error) as info:
            F.validate(formula, sig)
        assert str(info.value) == message
    # a code whose symbols belong to another signature, put under the metric tag
    for formula, sig, message in [
        (F.Atomic("tr_re", (c1,)), F.TVNA, "predicate 'tr_re' not in signature metric"),
        (F.Atomic("d", (F.App("adj", (c1,)), c1)), F.CSTAR,
         "function 'adj' not in signature metric"),
    ]:
        _, node = coding.unpair(coding.encode(formula, sig))
        with pytest.raises(coding.NotACode) as info:
            coding.decode_full(coding.pair(coding.PRESET_TAGS["metric"], node))
        assert str(info.value) == message

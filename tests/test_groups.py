import math
import random
from fractions import Fraction

import pytest

from contlogic import groups as G
from contlogic.gaussian import GaussianRational, from_gaussian_int, gr
from contlogic.parser import parse_element

U, Uinv = (("u", 1),), (("u", -1),)
V, Vinv = (("v", 1),), (("v", -1),)


def tree_walk_counts(degree: int, steps: int) -> list[int]:
    """Closed-walk counts at the root of the `degree`-regular tree.

    Independent oracle: distance-profile dynamic programming.  From the root
    all `degree` moves descend; from depth r >= 1 one move ascends and
    degree-1 descend.
    """
    profile = {0: 1}
    counts = [1]
    for _ in range(steps):
        nxt: dict[int, int] = {}
        for dist, ways in profile.items():
            down = degree if dist == 0 else degree - 1
            nxt[dist + 1] = nxt.get(dist + 1, 0) + ways * down
            if dist >= 1:
                nxt[dist - 1] = nxt.get(dist - 1, 0) + ways
        profile = nxt
        counts.append(profile.get(0, 0))
    return counts


@pytest.fixture
def f2():
    return G.free_group("u", "v")


@pytest.fixture
def z():
    return G.free_abelian("u")


@pytest.fixture
def z2_table():
    return G.table_group(("e", "a"), "e", [["e", "a"], ["a", "e"]])


def test_normal_form_free(f2):
    assert f2.normal_form((("u", 1), ("u", -1), ("v", 1))) == V
    assert f2.normal_form((("u", 2), ("u", -1))) == U
    nf = f2.normal_form((("u", 1), ("v", 1), ("v", -1), ("u", -1)))
    assert nf == ()


def test_normal_form_idempotent(f2, z):
    rng = random.Random(9)
    for spec in (f2, z):
        for _ in range(100):
            word = tuple(
                (rng.choice(spec.generators), rng.choice([-2, -1, 1, 2]))
                for _ in range(rng.randint(0, 6))
            )
            nf = spec.normal_form(word)
            assert spec.normal_form(nf) == nf


def test_normal_form_free_abelian():
    z2 = G.free_abelian("a", "b")
    assert z2.normal_form((("b", 1), ("a", 1))) == (("a", 1), ("b", 1))
    assert z2.normal_form((("b", 1), ("a", 1), ("b", -1))) == (("a", 1),)


def test_normal_form_table(z2_table):
    assert z2_table.normal_form((("a", 1), ("a", 1))) == ()
    assert z2_table.normal_form((("a", -1),)) == (("a", 1),)


def test_table_validation_rejects_bad_tables():
    with pytest.raises(G.GroupError):
        G.table_group(("e", "a"), "e", [["e", "a"], ["a", "a"]])


def test_unknown_generator(f2):
    with pytest.raises(G.UnknownGenerator):
        f2.normal_form((("w", 1),))


def test_rewriting_backend_z2():
    # complete system for Z/2: aa -> e and the inverse letter collapses
    spec = G.rewriting_group(("a",), [("aa", ""), ("A", "a")])
    assert spec.normal_form((("a", 2),)) == ()
    assert spec.normal_form((("a", 3),)) == (("a", 1),)
    assert spec.normal_form((("a", -1),)) == (("a", 1),)


def test_element_puts_each_word_into_normal_form_once(monkeypatch):
    spec = G.rewriting_group(("a",), [("aaa", ""), ("A", "aa")])
    calls = []
    normal_form = spec.normal_form
    monkeypatch.setattr(spec, "normal_form", lambda w: calls.append(w) or normal_form(w))
    x = G.element(spec, [(1, (("a", 1),)), (2, (("a", 4),)), (-3, (("a", -2),)), (5, ())])
    assert len(calls) == 4
    # a + 2a - 3a cancel: only the identity term is left
    assert x.coeffs == {(): gr(5)}


def test_adjoint_puts_each_word_into_normal_form_once(monkeypatch):
    rules = [("ba", "ab"), ("bA", "Ab"), ("Ba", "aB"), ("BA", "AB")]
    spec = G.rewriting_group(("a", "b"), rules)
    x = G.element(spec, [(1, (("a", 1), ("b", 1))), (Fraction(1, 2), (("b", -2),)),
                         (gr(0, 3), (("a", 2), ("b", -1)))])
    calls = []
    normal_form = spec.normal_form
    monkeypatch.setattr(spec, "normal_form", lambda w: calls.append(w) or normal_form(w))
    y = x.adjoint()
    assert len(calls) == 3
    assert y.coeffs == {(("a", -1), ("b", -1)): gr(1), (("b", 2),): gr(Fraction(1, 2)),
                        (("a", -2), ("b", 1)): gr(0, -3)}


def test_rewriting_refuses_a_non_confluent_system():
    with pytest.raises(G.NotConfluent, match="on 'Aab'"):
        G.rewriting_group(("a", "b"), [("ab", "ba")])


def test_rewriting_divergence_budget():
    spec = G.rewriting_group(("a", "b"), [("ab", "ba"), ("ba", "ab")], max_steps=50)
    with pytest.raises(G.RewritingDiverged):
        spec.normal_form((("a", 1), ("b", 1)))


def test_algebra_unit_inverse(f2):
    u = G.element(f2, [(1, U)])
    uinv = G.element(f2, [(1, Uinv)])
    assert u * uinv == G.element(f2, [(1, G.IDENTITY)])


def test_algebra_element_refuses_keys_that_are_not_normal_forms(f2):
    # u u is not the normal form u^2; a trusted word product would carry it
    # on as u u^2 u
    with pytest.raises(G.GroupError, match=r"\(\('u', 1\), \('u', 1\)\)"):
        G.AlgebraElement(f2, {(("u", 1), ("u", 1)): gr(1)})
    u2 = G.AlgebraElement(f2, {(("u", 2),): gr(1)})
    assert u2 * u2 == G.element(f2, [(1, (("u", 4),))])


def test_adjoint_examples(f2):
    iu = G.element(f2, [(GaussianRational(Fraction(0), Fraction(1)), U)])
    adj = iu.adjoint()
    assert adj.coeffs == {Uinv: GaussianRational(Fraction(0), Fraction(-1))}


def test_adjoint_involution_antihomomorphism(f2):
    rng = random.Random(21)

    def rand_elem():
        words = [(), U, Uinv, V, Vinv, (("u", 1), ("v", 1))]
        return G.element(
            f2,
            [
                (
                    GaussianRational(
                        Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                        Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                    ),
                    rng.choice(words),
                )
                for _ in range(3)
            ],
        )

    for _ in range(25):
        a, b = rand_elem(), rand_elem()
        assert a.adjoint().adjoint() == a
        assert (a * b).adjoint() == b.adjoint() * a.adjoint()
        lam = GaussianRational(Fraction(1, 3), Fraction(-1, 2))
        assert a.scale(lam).adjoint() == a.adjoint().scale(lam.conjugate())


def test_trace_examples(f2, z):
    assert from_gaussian_int(*G.element(f2, [(1, G.IDENTITY)]).trace_int()) == gr(1)
    u = G.element(z, [(1, U)])
    assert from_gaussian_int(*u.trace_int()) == gr(0)


def test_trace_cyclic_by_expansion(f2):
    rng = random.Random(33)
    words = [(), U, Uinv, V, (("u", 1), ("v", -1))]
    for _ in range(20):
        a = G.element(
            f2, [(Fraction(rng.randint(-2, 2)), rng.choice(words)) for _ in range(3)]
        )
        b = G.element(
            f2, [(Fraction(rng.randint(-2, 2)), rng.choice(words)) for _ in range(3)]
        )
        assert from_gaussian_int(*(a * b).trace_int()) == from_gaussian_int(*(b * a).trace_int())


def test_trace_faithful(f2):
    rng = random.Random(35)
    words = [(), U, Uinv, V, Vinv]
    zero = G.element(f2, [])
    assert from_gaussian_int(*(zero.adjoint() * zero).trace_int()) == gr(0)
    for _ in range(25):
        a = G.element(
            f2,
            [
                (Fraction(rng.randint(-2, 2), rng.randint(1, 3)), rng.choice(words))
                for _ in range(2)
            ],
        )
        t = from_gaussian_int(*(a.adjoint() * a).trace_int())
        assert t.im == 0 and t.re >= 0
        assert (t.re == 0) == a.is_zero()


def test_z_moments_central_binomial(z):
    a = G.element(z, [(1, U), (1, Uinv)])
    moments = G.moments_up_to(a, 40)
    for n in range(1, 41):
        assert moments[n - 1] == math.comb(2 * n, n)


def test_lambda_norm_lower_z_values(z):
    a = G.element(z, [(1, U), (1, Uinv)])
    # tau((a*a)^1) = 2, root sqrt(2) ~ 1.41421
    q1 = G.lambda_norm_lower(a, 1, 16)
    target = Fraction(141421, 100000)
    assert abs(q1 - target) < Fraction(1, 10000)
    # n=5: 252^(1/10) ~ 1.73838 (pinned by the exact power sandwich below)
    q5 = G.lambda_norm_lower(a, 5, 16)
    assert abs(q5 - Fraction(173838, 100000)) < Fraction(1, 10000)
    # sandwich against the true value
    assert q5 ** 10 <= 252
    assert (q5 + Fraction(1, 2 ** 16)) ** 10 >= 252


def test_f2_moments_match_tree_walks(f2):
    a = G.element(f2, [(1, U), (1, Uinv), (1, V), (1, Vinv)])
    counts = tree_walk_counts(4, 60)
    moments = G.moments_up_to(a, 30)
    for n in range(1, 31):
        assert moments[n - 1] == counts[2 * n]


def test_walk_dp_agrees_with_generic_convolution(f2):
    # complex, non-self-adjoint letter-supported element
    a = G.element(
        f2,
        [
            (GaussianRational(Fraction(1, 2), Fraction(1, 3)), U),
            (GaussianRational(Fraction(-1, 4), Fraction(0)), Vinv),
            (GaussianRational(Fraction(1, 5), Fraction(-1, 5)), ()),
            (GaussianRational(Fraction(0), Fraction(2, 3)), V),
        ],
    )
    h = a.adjoint() * a
    power = h
    for n in range(1, 5):
        assert G.moments_up_to(a, n)[-1] == from_gaussian_int(*power.trace_int()).re
        assert from_gaussian_int(*power.trace_int()).im == 0
        power = power * h


def test_moment_monotone_sandwich(f2, z):
    for spec, words in ((f2, [U, Uinv, V]), (z, [U, Uinv])):
        a = G.element(spec, [(Fraction(1, 2), w) for w in words])
        l1 = G.l1_norm(a)
        for n in (1, 2, 4):
            q = G.lambda_norm_lower(a, n, 10)
            assert q <= l1 + Fraction(1, 1024)


def test_moment_above_the_l1_bound_is_refused(f2):
    # tau((a* a)^n) <= max(l1, 1)^(2n); a moment past it is a kernel fault
    a = G.element(f2, [(1, U), (2, Vinv)])  # l1 = 3
    assert G.moment_root_lower(a, Fraction(3**4), 2, 8) == 3
    with pytest.raises(G.MomentAboveBound):
        G.moment_root_lower(a, Fraction(3**4) + Fraction(1, 10**9), 2, 8)
    half = G.element(f2, [(Fraction(1, 2), U)])  # l1 = 1/2, so the bound is 1
    assert G.moment_root_lower(half, Fraction(1), 3, 8) == 1
    with pytest.raises(G.MomentAboveBound):
        G.moment_root_lower(half, Fraction(2), 3, 8)


def test_moment_power_past_the_size_rule_is_not_formed(f2):
    # h = a* a has 381 words, v^-i u^(j-i) v^j, and h^2 far more than 4,096
    a = G.element(f2, [(1, (("u", i), ("v", i))) for i in range(1, 21)])
    h = (a.adjoint() * a).ints
    full = G._convolve(f2, h, h)
    assert len(h) == 381 and len(full) > G.POWER_WORDS_MAX
    assert G._convolve(f2, h, h, G.POWER_WORDS_MAX) is None
    assert G._convolve(f2, h, h, len(full)) == full
    assert len(G.moments_up_to(a, 2)) == 2
    with pytest.raises(G.MomentTooLarge):
        G.moments_up_to(a, 3)


def test_l1_norm_examples(f2):
    assert G.l1_norm(G.element(f2, [(1, G.IDENTITY)])) == 1
    a = G.element(f2, [(1, U), (1, Uinv)])
    assert G.l1_norm(a) == 2
    for n in (1, 2, 3):
        assert G.lambda_norm_lower(a, n, 10) <= 2
    iu = G.element(f2, [(GaussianRational(Fraction(0), Fraction(1)), U)])
    assert G.l1_norm(iu) == 1


def test_two_norm(f2):
    lo, hi = G.two_norm(G.element(f2, [(1, G.IDENTITY)]), 10)
    assert lo == hi == 1
    a = G.element(f2, [(1, U), (1, Uinv)])
    lo, hi = G.two_norm(a, 20)
    assert lo * lo <= 2 <= hi * hi
    assert hi - lo <= Fraction(1, 2 ** 20)
    zero = G.element(f2, [])
    assert G.two_norm(zero, 10) == (0, 0)


def test_enumeration_base_cases(f2):
    assert G.enumerate_group_algebra(f2, 0).is_zero()


def test_enumeration_positions_documented(f2, z, z2_table):
    for spec in (f2, z, z2_table):
        ident = G.element(spec, [(1, G.IDENTITY)])
        pos = G.group_algebra_index(ident)
        assert pos < 1000
        assert G.enumerate_group_algebra(spec, pos) == ident
        for g in spec.generators:
            elem = G.element(spec, [(1, ((g, 1),))])
            pos = G.group_algebra_index(elem)
            assert pos < 1000
            assert G.enumerate_group_algebra(spec, pos) == elem


def test_enumeration_no_duplicates(f2, z2_table):
    for spec in (f2, z2_table):
        seen = set()
        for i in range(500):
            e = G.enumerate_group_algebra(spec, i)
            key = tuple(sorted(e.coeffs.items()))
            assert key not in seen
            seen.add(key)


def test_enumeration_roundtrip(f2):
    for i in range(300):
        e = G.enumerate_group_algebra(f2, i)
        assert G.group_algebra_index(e) == i


def test_mixed_groups_rejected(f2, z):
    a = G.element(f2, [(1, U)])
    b = G.element(z, [(1, U)])
    with pytest.raises(G.MixedGroups):
        a * b


def test_load_group_config_free_abelian():
    spec = G.load_group_config("backend: free_abelian\ngenerators: u\n")
    assert spec.generators == ("u",)
    assert isinstance(spec, G.FreeAbelianGroup)


def test_load_group_config_table():
    text = """
backend: table
elements: e a
identity: e
generators: a
table:
e a
a e
"""
    spec = G.load_group_config(text)
    assert spec.normal_form((("a", 2),)) == ()


def test_load_group_config_rewriting():
    text = """
backend: rewriting
generators: a b
max_steps: 500
rules:
aa ->
bb ->
ba -> ab
A -> a
B -> b
"""
    spec = G.load_group_config(text)
    assert spec.normal_form((("b", 1), ("a", 1))) == (("a", 1), ("b", 1))


@pytest.mark.parametrize("backend", ["free", "free_abelian", "rewriting"])
def test_repeated_generators_are_refused(backend):
    # a repeated letter numbered the free group's words past its reduced
    # ones, split one exponent run in two and made two indices one word
    with pytest.raises(G.GroupError, match="repeated generators in 'a b a'"):
        G.load_group_config(f"backend: {backend}\ngenerators: a b a\n")


@pytest.mark.parametrize("value", ["\u0663", "+3", "-1", "1_000", "3.0", "0x10", "\u00b2", ""])
def test_max_steps_takes_ascii_digits_only(value):
    # int() took the Arabic-Indic 3, a sign and underscores; the superscript 2
    # and the empty value were a bare ValueError
    with pytest.raises(G.GroupError, match="max_steps must be ASCII decimal digits"):
        G.load_group_config(f"backend: rewriting\ngenerators: a\nmax_steps: {value}\n")


def test_max_steps_reads_ascii_digits():
    spec = G.load_group_config("backend: rewriting\ngenerators: a\nmax_steps: 0042\n")
    assert spec.max_steps == 42


def test_parse_element(f2):
    a = parse_element("u + u^-1", f2)
    assert a == G.element(f2, [(1, U), (1, Uinv)])
    b = parse_element("1/2*u - 1/2*v", f2)
    assert b == G.element(f2, [(Fraction(1, 2), U), (Fraction(-1, 2), V)])
    c = parse_element("(0+1i)*u*v^-1 + 1", f2)
    assert c == G.element(
        f2,
        [
            (GaussianRational(Fraction(0), Fraction(1)), (("u", 1), ("v", -1))),
            (1, ()),
        ],
    )


def test_rewriting_group_end_to_end():
    # Z/3 with a complete system: aaa -> e, inverse letter collapses
    spec = G.rewriting_group(("a",), [("aaa", ""), ("A", "aa")])
    assert spec.normal_form((("a", 4),)) == (("a", 1),)
    assert spec.normal_form((("a", -1),)) == (("a", 2),)
    # enumeration covers the three normal forms and then fails loudly
    words = [spec.word_at(i) for i in range(3)]
    assert words == [(), (("a", 1),), (("a", 2),)]
    with pytest.raises(G.GroupError):
        spec.word_at(3)
    # the averaging projection has unit norm: all moments are 1/3... times 3
    p = G.element(
        spec,
        [
            (Fraction(1, 3), ()),
            (Fraction(1, 3), (("a", 1),)),
            (Fraction(1, 3), (("a", 2),)),
        ],
    )
    assert p * p == p
    for n in (1, 2, 5):
        assert G.moments_up_to(p, n)[-1] == Fraction(1, 3)
    assert G.lambda_norm_lower(p, 16, 8) > Fraction(9, 10)
    assert G.l1_norm(p) == 1


def test_z2_projection_moments(z2_table):
    # (e + a)/2 is a projection: all moments are 1/2
    p = G.element(z2_table, [(Fraction(1, 2), ()), (Fraction(1, 2), (("a", 1),))])
    for n in (1, 2, 5, 9):
        assert G.moments_up_to(p, n)[-1] == Fraction(1, 2)
    # so the root bounds sweep up toward 1
    assert G.lambda_norm_lower(p, 16, 10) > Fraction(95, 100)
    assert G.l1_norm(p) == 1


def test_word_order_dies_with_its_spec():
    import gc
    import weakref

    spec = G.rewriting_group(("a",), [("aaa", ""), ("A", "aa")])
    G.enumerate_group_algebra(spec, 5)
    ref = weakref.ref(spec)
    del spec
    gc.collect()
    assert ref() is None


def _s3_table():
    import itertools

    perms = list(itertools.permutations(range(3)))
    names = [str(p) for p in perms]
    table = [[str(tuple(p[q[i]] for i in range(3))) for q in perms] for p in perms]
    return G.table_group(tuple(names), names[0], table), perms


def test_table_exponents_reduce_modulo_the_order():
    import time

    spec, perms = _s3_table()

    def power(p, e):
        # independent oracle: compose the permutation |e| times, inverted if e < 0
        if e < 0:
            p = tuple(sorted(range(3), key=lambda i: p[i]))
        acc = tuple(range(3))
        for _ in range(abs(e)):
            acc = tuple(acc[p[i]] for i in range(3))
        return acc

    for p in perms:
        for e in range(-13, 14):
            want = () if power(p, e) == perms[0] else ((str(power(p, e)), 1),)
            assert spec.normal_form(((str(p), e),)) == want
    start = time.perf_counter()
    z3 = G.table_group(("e", "a", "b"), "e",
                       [["e", "a", "b"], ["a", "b", "e"], ["b", "e", "a"]])
    assert z3.normal_form((("a", 10**12),)) == (("a", 1),)
    assert z3.normal_form((("a", -(10**12)), ("b", 10**15))) == (("a", 1),)
    assert time.perf_counter() - start < 1


def test_table_generators_are_the_non_identity_elements():
    spec, perms = _s3_table()
    assert spec.generators == tuple(str(p) for p in perms[1:])
    assert spec.finite_words == 6


def test_rewriting_refuses_words_longer_than_the_budget():
    spec = G.rewriting_group(("a",), [("aaaa", ""), ("A", "aaa")], max_steps=100)
    assert spec.normal_form((("a", 99), ("a", 1))) == ()
    with pytest.raises(G.RewritingDiverged):
        spec.normal_form((("a", 10**12),))
    with pytest.raises(G.RewritingDiverged):
        spec.normal_form((("a", 60), ("a", -41)))


def test_trivial_groups_number_one_word():
    for spec in (G.free_group(), G.free_abelian()):
        assert spec.word_at(0) == () and spec.index_of(()) == 0
        assert G.enumerate_group_algebra(spec, 1) == G.element(spec, [(1, G.IDENTITY)])
        with pytest.raises(G.GroupError):
            spec.word_at(1)
        with pytest.raises(G.GroupError):
            G.enumerate_group_algebra(spec, 2)

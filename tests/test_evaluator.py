import random
from fractions import Fraction

import pytest

from contlogic import evaluator as E
from contlogic import formulas as F
from contlogic import groups as G
from contlogic import presentations as P

import naive_evaluator as naive
from helpers import random_sentence

d = lambda a, b: F.Atomic("d", (a, b))
x, y = F.Var("x"), F.Var("y")
c1 = F.CConst(1)


def line_structure(points: list[Fraction]) -> E.TestStructure:
    return E.TestStructure(
        tuple(tuple(abs(p - q) for q in points) for p in points)
    )


def random_structure(rng: random.Random, max_points: int = 6) -> E.TestStructure:
    n = rng.randint(1, max_points)
    if rng.random() < 0.5:
        pts = sorted(Fraction(rng.randint(0, 16), 16) for _ in range(n))
        return line_structure(pts)
    r = Fraction(rng.randint(1, 16), 16)
    return E.TestStructure(
        tuple(
            tuple(Fraction(0) if i == j else r for j in range(n)) for i in range(n)
        )
    )


def test_structure_validation():
    with pytest.raises(ValueError):
        E.TestStructure(((Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(0))))
    with pytest.raises(ValueError):
        E.TestStructure(
            (
                (Fraction(0), Fraction(1), Fraction(0)),
                (Fraction(1), Fraction(0), Fraction(1, 4)),
                (Fraction(0), Fraction(1, 4), Fraction(0)),
            )
        )


@pytest.mark.parametrize("table, message", [
    (((0, 1), (1,)), "distance table must be square"),
    (((0, Fraction(1, 3)), (Fraction(1, 3), Fraction(1, 6))), r"d\(x,x\) must be 0"),
    (((0, Fraction(7, 6)), (Fraction(7, 6), 0)), r"distances must lie in \[0,1\]"),
    (((0, Fraction(1, 3)), (Fraction(2, 6) + Fraction(1, 9), 0)), "must be symmetric"),
    (((0, Fraction(1, 3), Fraction(5, 6)),
      (Fraction(1, 3), 0, Fraction(1, 2) - Fraction(1, 100)),
      (Fraction(5, 6), Fraction(1, 2) - Fraction(1, 100), 0)), "triangle inequality violated"),
])
def test_structure_validation_messages(table, message):
    with pytest.raises(ValueError, match=message):
        E.TestStructure(table)


def test_structure_validation_accepts_tight_triangles_over_mixed_denominators():
    # d(0,2) = d(0,1) + d(1,2) exactly, with denominators 3, 6 and 2
    third, sixth, half = Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)
    E.TestStructure(((0, third, half), (third, 0, sixth), (half, sixth, 0)))


def test_eval_exact_examples():
    t = line_structure([Fraction(0), Fraction(1, 2), Fraction(1)])
    assert E.eval_exact(F.Sup("x", d(x, x)), t) == 0
    assert E.eval_exact(F.Sup("x", F.Inf("y", d(x, y))), t) == 0
    # c1 binds to point 0; the far point realizes the sup
    assert E.eval_exact(F.Sup("x", d(x, c1)), t) == 1


def test_eval_exact_consistency_sentence():
    t = line_structure([Fraction(0), Fraction(1, 4)])
    # (1 -. sup_x d(x,x)) -. 1/2, the canonical satisfiable test sentence
    sentence = F.DotMinus(F.DotMinus(F.One(), F.Sup("x", d(x, x))),
                          F.dyadic_constant(Fraction(1, 2)))
    assert E.eval_exact(sentence, t) == Fraction(1, 2)


def test_prenex_preserves_exact_value():
    rng = random.Random(51)
    for _ in range(300):
        t = random_structure(rng)
        f = random_sentence(rng, F.METRIC, depth=6)
        assert E.eval_exact(f, t) == E.eval_exact(F.prenex(f), t)


def test_eval_qf_exact_tables():
    t = line_structure([Fraction(0), Fraction(1, 2)])
    pres = E.TestStructurePresentation(t)
    # Half(d(c1, c2)) with the default bindings: d = 1/2, so the value is 1/4
    f = F.Half(d(c1, F.CConst(2)))
    bindings = {1: 0, 2: 1}
    budget = E.EvalBudget(precision_k=10)
    res = E.eval_sentence(f, pres, budget, bindings)
    assert res.certified_lower == res.certified_upper == Fraction(1, 4)
    res = E.eval_sentence(F.One(), pres, budget)
    assert (res.certified_lower, res.certified_upper) == (1, 1)


def test_binding_to_point_zero_is_honoured():
    # point 0 is a falsy index: a binding to it must not fall back to the
    # default binding (c2 -> point 1) nor leave c1 unbound on C2w
    t = line_structure([Fraction(0), Fraction(1, 2)])
    pres = E.TestStructurePresentation(t)
    budget = E.EvalBudget(precision_k=10)
    f = d(c1, F.CConst(2))
    for evaluate in (E.eval_sentence, naive.eval_sentence):
        assert evaluate(f, pres, budget).certified_lower == Fraction(1, 2)
        assert evaluate(f, pres, budget, {2: 0}).certified_upper == 0
    c2w = P.presentation_C2w()
    for evaluate in (E.eval_sentence, naive.eval_sentence):
        res = evaluate(d(c1, c1), c2w, budget, {1: 0})
        assert res.certified_lower == res.certified_upper == 0


def test_eval_qf_errors():
    with pytest.raises(E.UnboundConstant):
        E.eval_sentence(d(c1, c1), P.presentation_C2w(), E.EvalBudget(precision_k=8))


def test_eval_inf_reflexivity():
    t = line_structure([Fraction(0), Fraction(1, 2), Fraction(1)])
    pres = E.TestStructurePresentation(t)
    f = F.Inf("x", F.DotMinus(F.One(), d(x, x)))
    res = E.eval_sentence(f, pres, E.EvalBudget(points=3, precision_k=10))
    assert res.certified_lower is None
    assert res.certified_upper == 1
    assert res.estimate == 1


def test_eval_sup_lower_certificate():
    t = line_structure([Fraction(0), Fraction(1, 2), Fraction(1)])
    pres = E.TestStructurePresentation(t)
    f = F.Sup("x", d(x, c1))
    res = E.eval_sentence(f, pres, E.EvalBudget(points=3, precision_k=10))
    assert res.certified_lower == 1
    assert res.certified_upper is None
    assert res.witnesses[0] == 2  # the far point


def test_eval_projection_sentence_on_cantor():
    pres = P.presentation_C2w()
    xx = F.App("mul", (x, F.App("adj", (x,))))
    # distance to being a projection, forced away from small-norm witnesses
    proj_dist = d(xx, x)
    unit_norm = F.DotMinus(F.Half(F.One()), d(x, c1))
    body = F.DotMinus(
        F.One(),
        F.DotMinus(
            F.DotMinus(F.One(), proj_dist),
            unit_norm,
        ),
    )  # = max(proj_dist, unit_norm) via 1 -. ((1 -. a) -. b) when b <= 1 - a
    f = F.Inf("x", body)
    bindings = {1: 0}  # c1 -> point 0, special point 0: the zero function
    res = E.eval_sentence(f, pres, E.EvalBudget(points=24, precision_k=12), bindings)
    assert res.certified_upper is not None
    assert res.certified_upper <= Fraction(1, 2**10)
    witness_point = pres.rational_point(res.witnesses[0])
    obj = pres.point_object(witness_point)
    # the witness is an exact projection of norm 1
    assert obj * obj.adjoint() == obj
    assert obj.sup_abs_sq() == 1


def test_eval_trace_sentence_on_group_presentation():
    pres = P.presentation_L(G.free_abelian("u"))
    f = F.Sup("x", F.Atomic("tr_re", (x,)))
    res = E.eval_sentence(f, pres, E.EvalBudget(points=6, precision_k=10))
    assert res.certified_lower is not None
    assert res.certified_lower >= 1 - Fraction(1, 2**10)
    assert res.witnesses[0] == 4  # the identity point: special 1, term tag 0


def test_eval_trace_sentence_on_matrix_presentation():
    from contlogic import matrices as M
    from contlogic.pairing import pair as cantor_pair

    pres = P.presentation_R()
    # the 1x1 identity sits at matrix index 2; special (m=0, 2) is I_1 itself
    special = cantor_pair(0, M.matrix_index(M.Matrix.identity(1)))
    point_index = 4 * special  # term tag 0 = special point
    f = F.Sup("x", F.Atomic("tr_re", (x,)))
    res = E.eval_sentence(
        f, pres, E.EvalBudget(points=point_index + 1, precision_k=8)
    )
    assert res.certified_lower == 1
    assert res.witnesses[0] == point_index


def test_matrix_presentation_aligns_sizes_in_atoms():
    from contlogic import matrices as M
    from contlogic.pairing import pair as cantor_pair

    pres = P.presentation_R()
    special_i2 = cantor_pair(0, M.matrix_index(M.Matrix.identity(2)))
    i1 = pres.point_object(4 * cantor_pair(0, M.matrix_index(M.Matrix.identity(1))))
    i2 = pres.point_object(4 * special_i2)
    assert i1.n == 1 and i2.n == 2
    # I_1 embeds onto I_2, while the I_2 point is scaled down by its
    # trace-power bound p: the scaled distance is exactly (p-1)/(2p)
    p_bound = M.opnorm_upper(M.Matrix.identity(2), 0)
    expected = (p_bound - 1) / (2 * p_bound)
    lo, hi = pres.atom_interval("d", [i1, i2], 12)
    assert lo <= expected <= hi
    assert hi - lo <= Fraction(1, 2**12)


def test_eval_soundness_against_exact():
    rng = random.Random(77)
    checked = 0
    for _ in range(120):
        t = random_structure(rng)
        pres = E.TestStructurePresentation(t)
        f = F.prenex(random_sentence(rng, F.METRIC, depth=4))
        prefix, _ = F.prefix_of(f)
        if len(prefix) > 2:
            continue
        exact = E.eval_exact(f, t)
        res = E.eval_sentence(f, pres, E.EvalBudget(points=t.size, precision_k=12))
        if res.certified_lower is not None:
            assert res.certified_lower <= exact
        if res.certified_upper is not None:
            assert exact <= res.certified_upper
        checked += 1
    assert checked > 60


def test_eval_budget_monotonicity():
    t = line_structure([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)])
    pres = E.TestStructurePresentation(t)
    f = F.Sup("x", d(x, c1))
    lowers = []
    for n in (1, 2, 3, 4):
        res = E.eval_sentence(f, pres, E.EvalBudget(points=n, precision_k=10))
        lowers.append(res.certified_lower)
    assert lowers == sorted(lowers)
    g = F.Inf("x", d(x, c1))
    uppers = []
    for n in (1, 2, 3, 4):
        res = E.eval_sentence(g, pres, E.EvalBudget(points=n, precision_k=10))
        uppers.append(res.certified_upper)
    assert uppers == sorted(uppers, reverse=True)


def test_witness_validity():
    t = line_structure([Fraction(0), Fraction(1, 2), Fraction(1)])
    pres = E.TestStructurePresentation(t)
    budget = E.EvalBudget(points=3, precision_k=10)
    f = F.Sup("x", F.Inf("y", d(x, y)))
    res = E.eval_sentence(f, pres, budget)
    lo, hi = naive.pin_witnesses(f, pres, budget, res.witnesses)
    assert lo <= res.estimate <= hi


def test_witness_reproduces_certified_bound_under_noisy_oracle():
    # wide LowerOnly intervals: the witness must name the branch whose
    # certified bound is reported, so pinning reproduces it exactly
    spec = G.free_group("u", "v")
    pres = P.presentation_CstarLambda(spec)
    f = F.Sup("x", d(x, F.CConst(1)))
    budget = E.EvalBudget(points=6, precision_k=8, oracle_budget=2)
    bindings = {1: pres.rational_point(1)}
    res = E.eval_sentence(f, pres, budget, bindings)
    assert res.certified_lower is not None
    lo, hi = naive.pin_witnesses(f, pres, budget, res.witnesses, bindings)
    assert lo == res.certified_lower


def test_eval_lower_only_presentation_still_sound():
    spec = G.free_group("u", "v")
    pres = P.presentation_CstarLambda(spec)
    f = F.Sup("x", d(x, x))
    res = E.eval_sentence(
        f, pres, E.EvalBudget(points=3, precision_k=6, oracle_budget=2)
    )
    # d(x,x) = 0 exactly; the loose interval still certifies the lower side
    assert res.certified_lower == 0


def test_a_variable_that_no_atom_reads_builds_no_object():
    pres = P.presentation_R()
    f = F.Sup("x", d(c1, c1))
    res = E.eval_sentence(f, pres, E.EvalBudget(points=8), {1: pres.rational_point(4)})
    assert res.certified_lower == 0
    assert set(pres._point_cache) == {4}


def test_a_sweep_builds_each_point_object_once(monkeypatch):
    # the atoms read x and y at points 0-4 and c1 at point 8, never z; points
    # 1-3 are built on point 0, and 4 and 8 are special points 1 and 2
    pres = P.presentation_C2w()
    specials = []
    special = pres._special
    monkeypatch.setattr(pres, "_special", lambda index: specials.append(index) or special(index))
    f = F.Sup("x", F.Inf("y", F.Sup("z", F.DotMinus(d(x, y), d(y, c1)))))
    E.eval_sentence(f, pres, E.EvalBudget(points=5), {1: 8})
    assert sorted(specials) == [0, 1, 2]
    assert set(pres._point_cache) == {0, 1, 2, 3, 4, 8}


def _nested(kinds: str, body: F.Formula) -> F.Formula:
    """body under one quantifier per letter of kinds (s = sup, i = inf), outermost first."""
    for n, kind in reversed(list(enumerate(kinds))):
        body = (F.Sup if kind == "s" else F.Inf)(f"v{n}", body)
    return body


def test_a_sweep_past_the_leaf_cap_is_refused_before_any_object_is_built(monkeypatch):
    monkeypatch.setattr(E, "SWEEP_LEAVES_MAX", 8)
    body = d(F.Var("v0"), F.Var("v1"))
    pres = P.presentation_C2w()
    assert E.eval_sentence(_nested("sis", body), pres, E.EvalBudget(points=2)).witnesses
    for kinds, points in (("sis", 3), ("sisi", 2), ("s" * 40, 2), ("s", 9), ("si", 10 ** 100)):
        pres = P.presentation_C2w()
        with pytest.raises(E.SweepTooLarge, match="more than 8 leaves"):
            E.eval_sentence(_nested(kinds, body if len(kinds) > 1 else d(F.Var("v0"), c1)),
                            pres, E.EvalBudget(points=points), {1: 4})
        assert not pres._point_cache
    res = E.eval_sentence(_nested("si" * 20, body), pres, E.EvalBudget(points=1))
    assert res.witnesses == {n: 0 for n in range(40)}  # one point: one leaf


def test_the_leaf_cap_counts_the_matrix_atoms_and_connectives(monkeypatch):
    # three atoms and connectives: 2^3 leaves pass a cap of 24, not one of 23
    f = _nested("sis", F.DotMinus(d(F.Var("v0"), F.Var("v1")), d(F.Var("v2"), c1)))
    monkeypatch.setattr(E, "SWEEP_LEAVES_MAX", 24)
    assert E.eval_sentence(f, P.presentation_C2w(), E.EvalBudget(points=2), {1: 4}).witnesses
    monkeypatch.setattr(E, "SWEEP_LEAVES_MAX", 23)
    pres = P.presentation_C2w()
    with pytest.raises(E.SweepTooLarge, match="^2 points over 3 quantifiers sweep more than 7 "
                       "leaves of a matrix of 3 atoms and connectives$"):
        E.eval_sentence(f, pres, E.EvalBudget(points=2), {1: 4})
    assert not pres._point_cache


def _slack_bound(formula: F.Formula, k: int) -> Fraction:
    """Static width bound: oracle atoms contribute 2^-k each, truncated
    subtraction adds sides, halving halves."""
    if isinstance(formula, F.Atomic):
        return Fraction(1, 2**k) if formula.pred == "d" else Fraction(0)
    if isinstance(formula, (F.Zero, F.One)):
        return Fraction(0)
    if isinstance(formula, F.Half):
        return _slack_bound(formula.body, k) / 2
    if isinstance(formula, F.DotMinus):
        return _slack_bound(formula.left, k) + _slack_bound(formula.right, k)
    if isinstance(formula, (F.Sup, F.Inf)):
        return _slack_bound(formula.body, k)
    raise E.EvalError(f"not a formula: {formula!r}")


def test_slack_bound_reported():
    t = line_structure([Fraction(0), Fraction(1, 2)])
    pres = E.TestStructurePresentation(t)
    f = F.Sup("x", F.DotMinus(d(x, c1), d(x, F.CConst(2))))
    res = E.eval_sentence(
        f, pres, E.EvalBudget(points=2, precision_k=10),
        {1: 0, 2: 1},
    )
    assert res.slack == 0  # exact tables have no oracle noise
    assert res.slack <= _slack_bound(f, 10)


def test_classify_examples():
    two = F.Sup("x", F.Inf("y", d(x, y)))
    assert E.classify_prefix_level(F.classify_prefix(two), "le", 1) == "Π_1^d"
    assert E.classify_prefix_level(F.classify_prefix(two), "gt", 1) == "Σ_1^d"
    four = F.Sup("a", F.Inf("b", F.Sup("c", F.Inf("e", d(F.Var("a"), F.Var("e"))))))
    assert E.classify_prefix_level(F.classify_prefix(four), "ge", 2) == "Π_3^d"
    assert E.classify_prefix_level(F.classify_prefix(four), "lt", 2) == "Σ_3^d"


@pytest.mark.parametrize("text", ["forall0", "exists-1", "Forall2", "forall2 ", "qf1", ""])
def test_classify_prefix_level_refuses_other_text(text):
    with pytest.raises(E.WrongPrefixClass):
        E.classify_prefix_level(text, "le", 2)


def test_classify_prefix_level_bounds_the_blocks():
    assert E.classify_prefix_level("qf", "le", 1) == "Π_1^d"
    assert E.classify_prefix_level("forall2", "le", 1) == "Π_1^d"
    assert E.classify_prefix_level("exists1", "le", 1) == "Π_1^d"
    for text in ("forall3", "exists2"):
        with pytest.raises(E.WrongPrefixClass):
            E.classify_prefix_level(text, "le", 1)


def test_classify_from_code():
    from contlogic import coding

    two = F.Sup("x", F.Inf("y", d(x, y)))
    code = coding.encode(two, F.METRIC)
    assert E.classify(code, "<=", 1) == "Π_1^d"
    with pytest.raises(ValueError):
        E.classify(code, "<=", 0)
    four_blocks = F.Sup("a", F.Inf("b", F.Sup("c", d(F.Var("a"), F.Var("c")))))
    code3 = coding.encode(four_blocks, F.METRIC)
    with pytest.raises(E.WrongPrefixClass):
        E.classify(code3, "<=", 1)  # three blocks exceed forall_2


def test_classify_rejects_open_formulas():
    from contlogic import coding

    code = coding.encode(d(x, x), F.METRIC)
    with pytest.raises(E.WrongPrefixClass):
        E.classify(code, "<=", 1)


def test_eval_result_rejects_disordered_bounds():
    # an explicit check, not an assert, so it also holds under python -O
    with pytest.raises(E.EvalError):
        E.EvalResult(Fraction(1, 2), Fraction(1, 4), Fraction(1, 3), {}, Fraction(0))
    with pytest.raises(E.EvalError):
        E.EvalResult(Fraction(0), Fraction(1, 2), Fraction(3, 4), {}, Fraction(0))
    ok = E.EvalResult(Fraction(0), Fraction(1, 2), Fraction(1, 4), {}, Fraction(0))
    assert ok.estimate == Fraction(1, 4)

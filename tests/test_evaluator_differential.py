"""Differential tests of the memoised evaluator sweep against the naive one.

`naive_evaluator` holds the sweep that re-evaluated the whole prenex matrix
at every point tuple.  `eval_sentence` now computes each atom and compound
term once per assignment of the variables it mentions; on seeded sentences
with one to three quantifiers, repeated atoms and closed compound terms, the
`EvalResult` (bounds, estimate, witnesses, slack) and the pinned witnesses
must come out identical on every presentation.  A stub presentation with
seeded, often tied intervals over denominators 3, 5, 7 and 3*2^j checks the
integer sweep's tie-breaks, witness order and out-of-order error as well.
Behind the per-assignment memo the oracle is asked once per distinct
(predicate, argument objects) key of a call; a stub whose points repeat
objects checks that count against the keys the naive sweep asks for.
The compiled matrix keys each slot by the mixed-radix number of its
variables' point indices: four-quantifier sentences whose atoms and terms
mention three and four variables, sweeps of one point, atoms that mention
only an inner variable and nodes that recur under two quantifier blocks
check those keys against the naive sweep too.
"""

import random
from fractions import Fraction

import pytest

import naive_evaluator as naive
from contlogic import evaluator as E
from contlogic import formulas as F
from contlogic import groups as G
from contlogic import presentations as P
from contlogic.parser import parse_formula
from helpers import SMALL_COEFFS

VARS = ["x", "y", "z", "w"]


def _structure():
    pts = [0, 1, 3, 4, 7, 8, 12, 16]
    return E.TestStructure(tuple(tuple(Fraction(abs(p - q), 16) for q in pts) for p in pts))


# name -> (presentation factory, precision, oracle budget)
PRESENTATIONS = {
    "R": (P.presentation_R, 4, None),
    "L(F2)": (lambda: P.presentation_L(G.free_group("u", "v")), 4, None),
    "C2w": (P.presentation_C2w, 4, None),
    "Cstar(F2)": (lambda: P.presentation_CstarLambda(G.free_group("u", "v")), 3, 1),
    "Cstar(Z)": (lambda: P.presentation_CstarLambda(G.free_abelian("u")), 2, None),
    "test(8)": (lambda: E.TestStructurePresentation(_structure()), 8, None),
}

# points per quantifier by quantifier count: most low-numbered algebra
# points are 0, and the first nonzero ones sit at indices 4, 8 and 20
POINTS = {1: 24, 2: 9, 3: 5}


def _term(rng, sig, scope, depth):
    """A variable, a constant, or (depth permitting) a compound term; with
    an empty scope the compound term is closed."""
    kinds = ["var", "const"]
    if depth and sig.functions:
        kinds += ["app", "app", "closed"]
    if depth and sig.allow_comb:
        kinds.append("comb")
    kind = rng.choice(kinds)
    if kind == "var" and scope:
        return F.Var(rng.choice(scope))
    if kind == "closed":
        return _term(rng, sig, [], depth)
    if kind == "app":
        f = rng.choice(list(sig.functions))
        return F.App(f, tuple(_term(rng, sig, scope, depth - 1)
                              for _ in range(sig.functions[f])))
    if kind == "comb":
        lam = rng.choice(SMALL_COEFFS)
        mu = rng.choice([m for m in SMALL_COEFFS if F.rounded_bound_ok(lam, m)])
        return F.Comb(lam, mu, _term(rng, sig, scope, depth - 1),
                      _term(rng, sig, scope, depth - 1))
    return F.CConst(rng.randint(1, 3))


def _matrix(rng, atoms, depth):
    kind = rng.choice(["atom", "atom", "half", "dotminus", "dotminus"] if depth else ["atom"])
    if kind == "atom":
        return rng.choice(atoms)  # drawn with replacement, so atoms repeat
    if kind == "half":
        return F.Half(_matrix(rng, atoms, depth - 1))
    return F.DotMinus(_matrix(rng, atoms, depth - 1), _matrix(rng, atoms, depth - 1))


def _sentence(rng, sig, quantifiers):
    scope = VARS[:quantifiers]
    atoms = []
    for _ in range(rng.randint(2, 4)):
        pred = rng.choice(list(sig.predicates))
        atoms.append(F.Atomic(pred, tuple(_term(rng, sig, scope, 2)
                                          for _ in range(sig.predicates[pred]))))
    body = _matrix(rng, atoms, 3)
    for var in reversed(scope):
        body = (F.Sup if rng.random() < 0.5 else F.Inf)(var, body)
    return body


def _cases(name):
    rng = random.Random(f"evaluator-differential/{name}")
    factory, k, oracle_budget = PRESENTATIONS[name]
    pres = factory()
    bindings = ({} if name.startswith("test") else
                {c: pres.rational_point(i) for c, i in zip((1, 2, 3), (20, 32, 17))})
    for quantifiers in (1, 2, 3) * 8:
        sentence = _sentence(rng, pres.signature, quantifiers)
        budget = E.EvalBudget(points=POINTS[quantifiers], precision_k=k,
                              oracle_budget=oracle_budget)
        yield pres, sentence, budget, bindings


def _outcome(fn, *args):
    try:
        return fn(*args)
    except E.EvalError as exc:
        return type(exc).__name__, str(exc)


def _assert_witnesses_reproduce_bounds(sentence, pres, budget, bindings, res):
    """Pinning every quantifier to its witness gives back each certified side."""
    lo, hi = naive.pin_witnesses(sentence, pres, budget, res.witnesses, bindings)
    assert res.certified_lower in (None, lo) and res.certified_upper in (None, hi)


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_eval_sentence_matches_naive_sweep(name):
    for pres, sentence, budget, bindings in _cases(name):
        got = _outcome(E.eval_sentence, sentence, pres, budget, bindings)
        want = _outcome(naive.eval_sentence, sentence, pres, budget, bindings)
        assert got == want, sentence
        if isinstance(got, E.EvalResult) and got.witnesses:
            _assert_witnesses_reproduce_bounds(sentence, pres, budget, bindings, got)


class _StubPresentation(P.Presentation):
    """Metric presentation whose `d` oracle reads a seeded table of intervals.

    Endpoints have denominators 3, 5, 7 and 3*2^j; the table repeats a few
    intervals, some of zero width, across point pairs, so sweeps tie and the
    first-index tie-breaks decide the witnesses.  `disordered` puts lo > hi
    at one pair; with a `period` point i is the object i % period."""

    name, signature = "stub", F.METRIC

    def __init__(self, seed, disordered=None, period=None):
        super().__init__()
        self.period = period
        rng = random.Random(f"evaluator-differential/stub/{seed}")
        values = sorted({Fraction(n, d) for d in (3, 5, 7, 6, 12, 24) for n in range(d + 1)})
        pool = []
        for _ in range(5):
            lo = rng.choice(values)
            hi = lo if rng.random() < 0.3 else rng.choice([v for v in values if v >= lo])
            pool.append((lo, hi))
        self.table = {(a, b): rng.choice(pool) for a in range(10) for b in range(10)}
        if disordered is not None:
            self.table[disordered] = (Fraction(5, 7), Fraction(2, 3))

    def _special(self, index):
        return index if self.period is None else index % self.period

    def default_constant_point(self, index):
        return index

    def atom_interval(self, pred, objs, k, budget=None):
        return self.table[objs[0], objs[1]]


@pytest.mark.parametrize("seed", range(6))
def test_ties_and_mixed_denominators_match_naive_sweep(seed):
    rng = random.Random(f"evaluator-differential/stub-sentences/{seed}")
    pres = _StubPresentation(seed)
    for quantifiers in (0, 1, 2, 3) * 6:
        sentence = _sentence(rng, pres.signature, quantifiers)
        budget = E.EvalBudget(points=rng.randint(4, 7), precision_k=0)
        got = E.eval_sentence(sentence, pres, budget)
        want = naive.eval_sentence(sentence, pres, budget)
        assert got == want, sentence
        assert list(got.witnesses.items()) == list(want.witnesses.items())


def test_disordered_stub_interval_is_the_same_error():
    budget = E.EvalBudget(points=6, precision_k=0)
    for text in ["d(c2, c3)", "sup x . d(x, c3)", "inf x . sup y . d(y, c3)"]:
        sentence = parse_formula(text, F.METRIC)
        pres = _StubPresentation(0, disordered=(2, 3))
        got = _outcome(E.eval_sentence, sentence, pres, budget, {})
        assert got == _outcome(naive.eval_sentence, sentence, pres, budget, {})
        assert got == ("EvalError",
                       "certified bounds out of order: 5/7 <= 29/42 <= 2/3 fails"), text


def test_repeated_and_closed_nodes_match_naive_sweep():
    pres = P.presentation_C2w()
    bindings = {1: pres.rational_point(20), 2: pres.rational_point(32)}
    budget = E.EvalBudget(points=6, precision_k=6)
    for text in ["sup x . inf y . (d(x, c1) -. half(d(x, c1) -. d(mul(c1, c2), y)))",
                 "inf x . sup y . (d(mul(x, y), mul(c1, c2)) -. d(mul(y, x), mul(c1, c2)))",
                 "sup x . inf y . sup z . (d(comb(1/2+0i, x, 1/2+0i, z), y) -. d(x, z))"]:
        sentence = parse_formula(text, pres.signature)
        res = E.eval_sentence(sentence, pres, budget, bindings)
        assert res == naive.eval_sentence(sentence, pres, budget, bindings)
        _assert_witnesses_reproduce_bounds(sentence, pres, budget, bindings, res)


def _counting(pres, method):
    calls = []
    inner = getattr(pres, method)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    setattr(pres, method, wrapper)
    return calls


def _keys(calls):
    return [(pred, *objs) for pred, objs, _ in calls]


def test_each_atom_is_evaluated_once_per_assignment_of_its_variables():
    # d(x, c1) does not mention y and d(y, c2) not x: 5 + 5 calls, not 5 * 5 * 2;
    # points 0-4 are distinct objects and c1, c2 the points 0 and 1, so the
    # 10 (predicate, objects) keys are distinct too
    sentence = F.Sup("x", F.Sup("y", F.DotMinus(
        F.Atomic("d", (F.Var("x"), F.CConst(1))), F.Atomic("d", (F.Var("y"), F.CConst(2))))))
    budget = E.EvalBudget(points=5, precision_k=6)
    for evaluate, expected in ((E.eval_sentence, 10), (naive.eval_sentence, 50)):
        pres = E.TestStructurePresentation(_structure())
        calls = _counting(pres, "atom_interval")
        evaluate(sentence, pres, budget)
        assert len(calls) == expected
        assert len(set(_keys(calls))) == 10


@pytest.mark.parametrize("seed", range(4))
def test_each_distinct_atom_reaches_the_oracle_once_per_call(seed):
    # points repeat objects (i % 3), so most assignments give a key seen before
    rng = random.Random(f"evaluator-differential/repeating/{seed}")
    for quantifiers in (0, 1, 2, 3) * 6:
        sentence = _sentence(rng, F.METRIC, quantifiers)
        budget = E.EvalBudget(points=rng.randint(4, 7), precision_k=0)
        pres, naive_pres = _StubPresentation(seed, period=3), _StubPresentation(seed, period=3)
        calls, naive_calls = _counting(pres, "atom_interval"), _counting(naive_pres, "atom_interval")
        got = E.eval_sentence(sentence, pres, budget)
        want = naive.eval_sentence(sentence, naive_pres, budget)
        assert got == want, sentence
        assert list(got.witnesses.items()) == list(want.witnesses.items())
        keys = _keys(calls)
        assert len(keys) == len(set(keys)), sentence
        assert set(keys) == set(_keys(naive_calls)), sentence
        calls.clear()
        assert E.eval_sentence(sentence, pres, budget) == got
        assert len(calls) == len(keys)  # the memo died with the first call


def test_closed_compound_terms_are_built_once_per_call(monkeypatch):
    sentence = F.Sup("x", F.Atomic("d", (F.Var("x"), F.App("mul", (F.CConst(1), F.CConst(2))))))
    budget = E.EvalBudget(points=6, precision_k=6)
    calls = []
    mul = P.CantorFn.__mul__
    monkeypatch.setattr(P.CantorFn, "__mul__", lambda a, b: calls.append((a, b)) or mul(a, b))
    for evaluate, expected in ((E.eval_sentence, 1), (naive.eval_sentence, 6)):
        pres = P.presentation_C2w()
        bindings = {1: pres.rational_point(20), 2: pres.rational_point(32)}
        for i in range(6):  # build the points first, so only the term multiplies
            pres.point_object(pres.rational_point(i))
        for point in bindings.values():
            pres.point_object(point)
        calls.clear()
        evaluate(sentence, pres, budget, bindings)
        assert len(calls) == expected
        calls.clear()
        evaluate(sentence, pres, budget, bindings)
        assert len(calls) == expected  # nothing outlives a call


def test_eval_qf_shares_repeated_closed_nodes():
    pres = P.presentation_C2w()
    bindings = {1: pres.rational_point(20), 2: pres.rational_point(32)}
    atom = F.Atomic("d", (F.App("mul", (F.CConst(1), F.CConst(2))), F.CConst(1)))
    sentence = F.DotMinus(atom, F.Half(atom))
    calls = _counting(pres, "atom_interval")
    budget = E.EvalBudget(precision_k=8)
    res = E.eval_sentence(sentence, pres, budget, bindings)
    lo, hi = res.certified_lower, res.certified_upper
    assert len(calls) == 1
    atom_res = E.eval_sentence(atom, pres, budget, bindings)
    a_lo, a_hi = atom_res.certified_lower, atom_res.certified_upper
    assert (lo, hi) == (max(a_lo - a_hi / 2, 0), max(a_hi - a_lo / 2, 0))


def _assert_matches_naive(sentence, pres, budget, bindings=None):
    got = _outcome(E.eval_sentence, sentence, pres, budget, bindings)
    assert got == _outcome(naive.eval_sentence, sentence, pres, budget, bindings), sentence
    if isinstance(got, E.EvalResult):
        assert list(got.witnesses) == list(range(len(F.prenex_parts(sentence)[0])))
        _assert_witnesses_reproduce_bounds(sentence, pres, budget, bindings, got)
    return got


@pytest.mark.parametrize("name", ["R", "C2w", "Cstar(F2)"])
def test_four_quantifier_sentences_match_naive_sweep(name):
    # slots keyed by 3 and 4 variables: a wrong radix or a lost digit makes
    # two assignments share a key
    factory, k, oracle_budget = PRESENTATIONS[name]
    pres = factory()
    bindings = {c: pres.rational_point(i) for c, i in zip((1, 2, 3), (20, 32, 17))}
    templates = ["sup x . inf y . sup z . inf w . (d({xy}, {zw}) -. half(d(x, {zw})))",
                 "inf x . sup y . inf z . sup w . (d({xyz}, w) -. d(y, c1))",
                 "sup x . sup y . inf z . inf w . (d({xyz}, {zw}) -. d({xy}, c2))"]
    if name == "C2w":
        terms = {"xy": "comb(1/2+0i, x, 1/2+0i, y)", "zw": "comb(1/2+0i, z, 1/2+0i, w)",
                 "xyz": "mul(comb(1/2+0i, x, 1/2+0i, y), z)"}
    else:
        terms = {"xy": "mul(x, y)", "zw": "mul(z, w)", "xyz": "mul(mul(x, y), z)"}
    for points in (3, 4):
        budget = E.EvalBudget(points=points, precision_k=k, oracle_budget=oracle_budget)
        for template in templates:
            _assert_matches_naive(parse_formula(template.format(**terms), pres.signature),
                                  pres, budget, bindings)
    rng = random.Random(f"evaluator-differential/four/{name}")
    budget = E.EvalBudget(points=3, precision_k=k, oracle_budget=oracle_budget)
    for _ in range(4):
        _assert_matches_naive(_sentence(rng, pres.signature, 4), pres, budget, bindings)


@pytest.mark.parametrize("seed", range(3))
def test_four_quantifier_stub_sweeps_match_naive_sweep(seed):
    # seeded, often tied intervals: every point index 0-4 reaches each digit
    rng = random.Random(f"evaluator-differential/four-stub/{seed}")
    pres = _StubPresentation(seed)
    for _ in range(6):
        sentence = _sentence(rng, pres.signature, 4)
        budget = E.EvalBudget(points=rng.randint(2, 5), precision_k=0)
        got = _assert_matches_naive(sentence, pres, budget)
        want = naive.eval_sentence(sentence, pres, budget)
        assert list(got.witnesses.items()) == list(want.witnesses.items())


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_one_point_sweeps_match_naive_sweep(name):
    factory, k, oracle_budget = PRESENTATIONS[name]
    pres = factory()
    bindings = ({} if name.startswith("test") else
                {c: pres.rational_point(i) for c, i in zip((1, 2, 3), (20, 32, 17))})
    rng = random.Random(f"evaluator-differential/one-point/{name}")
    budget = E.EvalBudget(points=1, precision_k=k, oracle_budget=oracle_budget)
    for quantifiers in (0, 1, 2, 3, 4) * 2:
        got = _assert_matches_naive(_sentence(rng, pres.signature, quantifiers), pres,
                                    budget, bindings)
        if isinstance(got, E.EvalResult):
            assert set(got.witnesses.values()) <= {0}


def test_an_atom_of_an_inner_variable_is_asked_once_per_point():
    # d(z, c1) mentions only the innermost z: 5 oracle calls over 125 leaves;
    # d(y, c2) only the middle y, another 5
    pres = _StubPresentation(1)
    sentence = parse_formula("sup x . inf y . sup z . (d(z, c1) -. half(d(y, c2)))",
                             pres.signature)
    budget = E.EvalBudget(points=5, precision_k=0)
    calls = _counting(pres, "atom_interval")
    E.eval_sentence(sentence, pres, budget)
    del pres.atom_interval
    got = _assert_matches_naive(sentence, pres, budget)
    assert sorted(_keys(calls)) == sorted([("d", i, 1) for i in range(5)] +
                                          [("d", i, 2) for i in range(5)])
    assert got.witnesses[0] == 0  # no atom reads x: every x ties


def test_nodes_recurring_under_two_quantifier_blocks_match_naive_sweep():
    pres = P.presentation_C2w()
    bindings = {1: pres.rational_point(20), 2: pres.rational_point(32)}
    budget = E.EvalBudget(points=5, precision_k=6)
    # a closed atom and a closed term under a sup block and under an inf
    # block, and one subformula prenexed twice, once with each kind
    texts = ["(sup x . (d(x, mul(c1, c2)) -. d(c1, c2))) -. (inf y . (d(mul(c1, c2), y) "
             "-. d(c1, c2)))",
             "(sup x . d(mul(x, c1), c2)) -. half(sup x . d(mul(x, c1), c2))",
             "sup x . ((inf y . d(mul(x, y), c1)) -. (sup y . d(mul(x, y), c1)))"]
    for text in texts:
        sentence = parse_formula(text, pres.signature)
        calls = _counting(pres, "atom_interval")
        E.eval_sentence(sentence, pres, budget, bindings)
        del pres.atom_interval
        assert calls and len(calls) == len(set(_keys(calls))), text  # one call per key
        got = _assert_matches_naive(sentence, pres, budget, bindings)
    assert len(got.witnesses) == 3

"""Differential tests of forcing's integer rows against the LinExpr compiler.

`linexpr_forcing` is the compiler forcing used before it emitted integer
rows, solving on the dense Fraction tableau.  The integer rows keep the
columns in the same sorted name order and the rows in the same order, so
Bland's rule makes the same choices: verdicts, margins, witness points and
lexicographic minima must agree exactly.  Constants from 10 up make string
order differ from numeric order (d_10_11 sorts before d_2_10), and so do ten
or more branch variables (z_10 sorts before z_2); pinning atoms like the
existential strategy's, c -. d with c a dyadic constant, bring many of them.

`bisection_forcing` answers the forcing questions as forcing did before it
read their optimum: fp by bisection over the limit LP, sup-leq by the sweep
before the limit LP.  The optimum route must give the same `FpBounds` and
the same `ForcingAnswer` (verdict, witness, margin and `swept`).
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bisection_forcing
import dense_simplex
import linexpr_forcing as oracle
from contlogic import forcing as FC
from contlogic import formulas as F
from contlogic.feasibility import OPTIMAL, UNBOUNDED, LPResult, lex_minimize_rows, maximize_rows

POOL = [1, 2, 3, 9, 10, 11, 12]
BOUNDS = [Fraction(k, 8) for k in range(9)] + [Fraction(1, 3), Fraction(5, 7)]
INST = FC.MetricInstance(branch_cap=64)


def d(i, j):
    return F.Atomic("d", (F.CConst(i), F.CConst(j)))


def formulas(constants):
    atoms = st.builds(d, st.sampled_from(constants), st.sampled_from(constants))
    pins = st.builds(lambda c, atom: F.DotMinus(F.dyadic_constant(c), atom),
                     st.sampled_from([Fraction(5, 16), Fraction(13, 32)]), atoms)
    leaves = st.one_of(atoms, atoms, pins, st.just(F.Zero()), st.just(F.One()))
    return st.recursive(
        leaves,
        lambda inner: st.one_of(st.builds(F.Half, inner),
                                st.builds(F.DotMinus, inner, inner)),
        max_leaves=4,
    )


@st.composite
def systems(draw):
    constants = sorted(draw(st.lists(st.sampled_from(POOL), min_size=2,
                                     max_size=4, unique=True)))
    items = st.lists(st.tuples(formulas(constants), st.sampled_from(BOUNDS)),
                     max_size=1)
    system = FC.BoundSystem(le=tuple(draw(items)), lt=tuple(draw(items)),
                            ge=tuple(draw(items)), gt=tuple(draw(items)))
    return system, constants


def _outcome(fn, *args):
    try:
        return fn(*args)
    except FC.ForcingError as exc:
        return type(exc).__name__


NESTED = F.DotMinus(F.Half(F.DotMinus(d(10, 11), F.Half(d(2, 10)))),
                    F.DotMinus(F.One(), F.Half(d(2, 11))))


@settings(max_examples=150, deadline=None)
@given(systems())
@example((FC.BoundSystem(le=((NESTED, Fraction(1, 3)),), lt=((d(2, 10), Fraction(1, 2)),),
                         ge=((F.Half(d(10, 11)), Fraction(1, 8)),),
                         gt=((NESTED, Fraction(1, 16)),)), [2, 10, 11]))
def test_solve_system_matches_linexpr_compiler(case):
    system, constants = case
    got = _outcome(FC._solve_system, system, constants, INST)
    want = _outcome(oracle._solve_system, system, constants, INST)
    assert got == want
    if isinstance(got, FC.SystemVerdict) and got.satisfiable:
        assert list(got.point) == list(want.point)


@settings(max_examples=100, deadline=None)
@given(systems())
def test_every_branch_lp_matches_linexpr_compiler(case):
    # the whole margin LP of each branch combination, z_* and __eps__ included
    system, constants = case
    got = _outcome(FC._system_alternatives, system, INST)
    want = _outcome(oracle._system_alternatives, system, INST)
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return
    assert len(got) == len(want)
    constants = tuple(sorted(set(constants) | oracle.system_constants(system)))
    eps = oracle.V("__eps__")
    for rows, linexpr_rows in zip(got, want):
        result = maximize_rows({"__eps__": 1}, [*FC._metric_axioms(constants), *rows,
                                                ({"__eps__": 1}, 1, 1)])
        expected = dense_simplex.maximize(eps, oracle._metric_axioms(list(constants))
                                          + linexpr_rows + [(eps, oracle.C(1))])
        assert (result.status, result.value) == (expected.status, expected.value)
        assert list(result.point.items()) == list(expected.point.items())


def _nonstrict_alternatives(module, items, constants):
    """compile_transcript's alternatives: the items less half the margin."""
    verdict = module._solve_system(FC.BoundSystem(lt=items), constants, INST)
    if not verdict.satisfiable:
        return None
    slack = verdict.margin / 2
    nonstrict = tuple((formula, bound - slack) for formula, bound in items)
    return module._system_alternatives(FC.BoundSystem(le=nonstrict), INST)


def _pairs(constants):
    return [FC._pair_var(a, b) for i, a in enumerate(constants) for b in constants[i + 1:]]


def _substitution_chain(base, alternatives, order):
    """The oracle's lexicographic minimization over the union, one variable
    at a time with the minimized ones substituted.  The redundant rows
    0 <= v keep an LP nonempty when every other row is substituted away."""
    base = base + [(oracle.C(0), oracle.V(var)) for var in order]
    assignment = {}
    for var in order:
        assignment[var] = oracle._lex_minimize(base, alternatives, var, assignment)
    return [assignment[var] for var in order]


def _lex_least(base, alternatives, order):
    """The least of lex_minimize_rows over the alternatives."""
    minima = [v for alt in alternatives
              if (v := lex_minimize_rows(order, [*base, *alt])) is not None]
    if not minima:
        raise FC.Infeasible("no feasible branch during compilation")
    return min(minima)


def _lex_chain(module, items, constants):
    """compile_transcript's lexicographic minimization: the oracle's
    substitution chain, or the one-tableau path of `forcing`."""
    alternatives = _nonstrict_alternatives(module, items, constants)
    if alternatives is None:
        return None
    if module is oracle:
        values = _substitution_chain(oracle._metric_axioms(constants), alternatives,
                                     _pairs(constants))
    else:
        values = _lex_least(FC._metric_axioms(tuple(constants)), alternatives,
                            _pairs(constants))
    return list(zip(_pairs(constants), values))


@st.composite
def conditions(draw):
    constants = sorted(draw(st.lists(st.sampled_from(POOL), min_size=2,
                                     max_size=4, unique=True)))
    positive = [b for b in BOUNDS if b > 0]
    items = draw(st.lists(st.tuples(formulas(constants), st.sampled_from(positive)),
                          min_size=1, max_size=3))
    return tuple(items), constants


@settings(max_examples=100, deadline=None)
@given(conditions())
@example((((NESTED, Fraction(3, 4)), (d(10, 11), Fraction(1, 2)),
           (F.DotMinus(F.One(), d(2, 10)), Fraction(1, 4))), [2, 10, 11]))
def test_lex_minimize_matches_linexpr_compiler(case):
    # the fixed values include margin/2 offsets, which are rarely dyadic
    items, constants = case
    got = _outcome(_lex_chain, FC, items, constants)
    assert got == _outcome(_lex_chain, oracle, items, constants)


@st.composite
def lex_cases(draw):
    """A nonstrict system and a random order of a random subset of its
    variables (z_* included, some absent from a given branch)."""
    system, constants = draw(systems())
    nonstrict = FC.BoundSystem(le=system.le + system.lt, ge=system.ge + system.gt)
    try:
        alternatives = FC._system_alternatives(nonstrict, INST)
    except FC.BranchOverflow:
        alternatives = []
    names = sorted(set(_pairs(constants)).union(
        *(coeffs for alt in alternatives for coeffs, _, _ in alt)))
    order = draw(st.permutations(names))[:draw(st.integers(1, len(names)))]
    return nonstrict, constants, order


# z_1 <= 0 or z_1 <= d(2,3) - d(1,3): two feasible branch alternatives
TWO_WAY = FC.BoundSystem(le=((F.DotMinus(d(1, 2), F.DotMinus(d(2, 3), d(1, 3))),
                              Fraction(1, 4)),),
                         ge=((d(1, 2), Fraction(1, 8)),))


@settings(max_examples=100, deadline=None)
@given(lex_cases())
@example((TWO_WAY, [1, 2, 3], ["z_1", "d_2_3", "d_1_3", "d_1_2"]))
def test_lex_minimize_rows_matches_substitution_chain(case):
    # per alternative, and the least over them against the chain over the union
    system, constants, order = case
    got_alts = _outcome(FC._system_alternatives, system, INST)
    want_alts = _outcome(oracle._system_alternatives, system, INST)
    if isinstance(got_alts, str) or isinstance(want_alts, str):
        assert got_alts == want_alts
        return
    base = FC._metric_axioms(tuple(constants))
    oracle_base = oracle._metric_axioms(constants)
    for alt, linexpr_alt in zip(got_alts, want_alts, strict=True):
        want = _outcome(_substitution_chain, oracle_base, [linexpr_alt], order)
        assert lex_minimize_rows(order, [*base, *alt]) == (
            None if want == "Infeasible" else want)
    assert _outcome(_lex_least, base, got_alts, order) == _outcome(
        _substitution_chain, oracle_base, want_alts, order)


X = F.Var("x")
DYADIC_BOUNDS = [Fraction(k, 8) for k in range(1, 9)]
GAME_CONDITIONS = [
    FC.play_game(FC.random_forall_strategy(seed), FC.exists_pinning_strategy(), 3, INST).last()
    for seed in range(4)]


def dx(c):
    return F.Atomic("d", (X, F.CConst(c)))


def open_formulas(constants):
    """Quantifier-free formulas over the constants and the variable x."""
    terms = st.sampled_from([*map(F.CConst, constants), X])
    atoms = st.builds(lambda s, t: F.Atomic("d", (s, t)), terms, terms)
    pins = st.builds(lambda c, atom: F.DotMinus(F.dyadic_constant(c), atom),
                     st.sampled_from([Fraction(5, 16), Fraction(13, 32)]), atoms)
    leaves = st.one_of(atoms, atoms, pins, st.just(F.Zero()), st.just(F.One()))
    return st.recursive(
        leaves,
        lambda inner: st.one_of(st.builds(F.Half, inner),
                                st.builds(F.DotMinus, inner, inner)),
        max_leaves=4,
    )


@st.composite
def questions(draw):
    """A condition, from a seeded game or of random items (often not a
    condition at all), and a formula in x over its constants."""
    if draw(st.booleans()):
        p = draw(st.sampled_from(GAME_CONDITIONS))
        constants = p.constants()
    else:
        constants = sorted(draw(st.lists(st.sampled_from(POOL), min_size=2,
                                         max_size=4, unique=True)))
        p = FC.Condition.of(draw(st.lists(
            st.tuples(formulas(constants), st.sampled_from(DYADIC_BOUNDS)), max_size=3)))
    return p, draw(open_formulas(constants)), constants


@settings(max_examples=150, deadline=None)
@given(questions(), st.sampled_from(["qf", "sup", "inf"]), st.integers(0, 8))
def test_fp_matches_the_bisection_oracle(question, kind, budget):
    p, matrix, constants = question
    formula = {"qf": F.substitute(matrix, {"x": F.CConst(constants[0])}),
               "sup": F.Sup("x", matrix), "inf": F.Inf("x", matrix)}[kind]
    got = _outcome(FC.fp_estimate, p, formula, INST, 1, budget)
    assert got == _outcome(bisection_forcing.fp_estimate, p, formula, INST, 1, budget)


@settings(max_examples=150, deadline=None)
@given(questions(), st.sampled_from([Fraction(k, 8) for k in range(9)]),
       st.integers(0, 4), st.sampled_from([1, 2, 5, FC.SWEEP_CAP]))
def test_sup_leq_matches_the_sweep_first_oracle(question, r, budget, cap):
    p, psi, _ = question
    default, FC.SWEEP_CAP = FC.SWEEP_CAP, cap
    try:
        got = _outcome(FC.forces_sup_leq, p, psi, r, INST, budget)
        want = _outcome(bisection_forcing.forces_sup_leq, p, psi, r, INST, budget)
    finally:
        FC.SWEEP_CAP = default
    assert got == want


# one strict item whose right operand is bounded below: with x -. d(x, c2)
# above R, four branch combinations, of which two are nonempty with sups
# 1/2 and then 1
SEVERAL = FC.Condition.of([(F.DotMinus(d(1, 2), F.DotMinus(d(2, 3), d(1, 3))), Fraction(1, 2))])
EIGHTH = FC.Condition.of([(d(1, 2), Fraction(1, 8))])
# d(c1, c2) < 1/4 and d(c1, c2) > 1/4: the strict system is empty, its
# closure (d(c1, c2) = 1/4) is not
NOT_A_CONDITION = FC.Condition.of([
    (d(1, 2), Fraction(1, 4)), (F.DotMinus(F.dyadic_constant(Fraction(1, 2)), d(1, 2)),
                                Fraction(1, 4))])


@pytest.mark.parametrize("p, formula, budget, bracket", [
    (SEVERAL, F.Sup("x", F.DotMinus(dx(1), dx(2))), 6, (Fraction(63, 64), 1)),
    (SEVERAL, F.Sup("x", F.Half(F.DotMinus(dx(1), dx(2)))), 6, (Fraction(31, 64), Fraction(1, 2))),
    # s = 1/8 on the grid: the cell (lo, 1/8] at each budget from 3
    (EIGHTH, d(1, 2), 0, (0, 1)),
    (EIGHTH, d(1, 2), 2, (0, Fraction(1, 4))),
    (EIGHTH, d(1, 2), 3, (0, Fraction(1, 8))),
    (EIGHTH, d(1, 2), 4, (Fraction(1, 16), Fraction(1, 8))),
    # s = 1/16 between grid points, and s = 9/16 on the grid at budget 4
    (EIGHTH, F.Half(d(1, 2)), 3, (0, Fraction(1, 8))),
    (EIGHTH, F.Sup("x", F.DotMinus(dx(2), F.Half(dx(1)))), 3, (Fraction(1, 2), Fraction(5, 8))),
    (EIGHTH, F.Sup("x", F.DotMinus(dx(2), F.Half(dx(1)))), 4, (Fraction(1, 2), Fraction(9, 16))),
    # s = 0: no model of p gives the sentence a positive value
    (EIGHTH, F.DotMinus(d(1, 2), F.Half(F.One())), 6, (0, 0)),
    (FC.Condition.empty(), F.Zero(), 6, (0, 0)),
    # s = 1
    (FC.Condition.empty(), F.Sup("x", dx(1)), 6, (Fraction(63, 64), 1)),
    (EIGHTH, F.One(), 6, (Fraction(63, 64), 1)),
    (NOT_A_CONDITION, d(1, 3), 6, (0, 0)),
])
def test_fp_brackets_match_the_bisection_oracle(p, formula, budget, bracket):
    got = FC.fp_estimate(p, formula, INST, budget=budget)
    assert (got.lower, got.upper) == bracket
    assert got == bisection_forcing.fp_estimate(p, formula, INST, budget=budget)


def test_several_branch_combinations_take_the_largest_sup():
    sentence, constants = FC._instance(SEVERAL, F.DotMinus(dx(1), dx(2)), ["x"], 1)
    system = FC.BoundSystem(lt=SEVERAL.items, gt=((sentence, ({FC.EPS: 1, FC.R: 1}, 0, 1)),))
    sups = [maximize_rows({FC.R: 1}, rows).value
            for rows, margin in FC._branch_lps(system, constants, INST) if margin.value > 0]
    assert sups == [Fraction(1, 2), 1]
    assert FC._sup_value(SEVERAL, sentence, constants, INST) == 1


@pytest.mark.parametrize("budget", [0, 1, 3])
def test_branch_cap_one_is_unknown_on_both_routes(budget):
    tight = FC.MetricInstance(branch_cap=1)
    psi = F.DotMinus(dx(1), dx(2))  # bounded below, it branches
    answer = FC.forces_sup_leq(EIGHTH, psi, Fraction(1, 4), tight, budget)
    assert answer == FC.ForcingAnswer("unknown", swept=min(1, budget))
    assert answer == bisection_forcing.forces_sup_leq(EIGHTH, psi, Fraction(1, 4), tight, budget)
    for fp in (FC.fp_estimate, bisection_forcing.fp_estimate):
        with pytest.raises(FC.BranchOverflow):
            fp(EIGHTH, F.Sup("x", psi), tight, budget=budget)


@pytest.mark.parametrize("result", [LPResult(UNBOUNDED), LPResult(OPTIMAL, Fraction(2))])
def test_a_sup_lp_that_is_not_optimal_or_exceeds_1_is_refused(monkeypatch, result):
    maximize = FC.maximize_rows
    monkeypatch.setattr(FC, "maximize_rows", lambda cost, rows: (
        result if FC.R in cost else maximize(cost, rows)))
    with pytest.raises(FC.ForcingError, match="sup LP of a nonempty branch"):
        FC.fp_estimate(EIGHTH, d(1, 2), INST, budget=4)

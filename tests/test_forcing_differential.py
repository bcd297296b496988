"""Differential tests of forcing's integer rows against the LinExpr compiler.

`linexpr_forcing` is the compiler forcing used before it emitted integer
rows, solving on the dense Fraction tableau.  The integer rows keep the
columns in the same sorted name order and the rows in the same order, so
Bland's rule makes the same choices: verdicts, margins, witness points and
lexicographic minima must agree exactly.  Constants from 10 up make string
order differ from numeric order (d_10_11 sorts before d_2_10), and so do ten
or more branch variables (z_10 sorts before z_2); pinning atoms like the
existential strategy's, c -. d with c a dyadic constant, bring many of them.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_simplex
import linexpr_forcing as oracle
from contlogic import forcing as FC
from contlogic import formulas as F
from contlogic.feasibility import lex_minimize_rows, maximize_rows

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

"""Differential tests of the integer simplex against the dense Fraction one.

`dense_simplex.maximize` is the former dense tableau, kept as an oracle.  The
integer tableau makes every pivot choice on the same rational values, so
status, exact value and the exact optimal vertex must agree.  Optimal values
on at most 3 variables are also checked by brute-force vertex enumeration.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import dense_simplex
from contlogic.feasibility import INFEASIBLE, OPTIMAL, UNBOUNDED, LinExpr, maximize

NAMES = ["x0", "x1", "x2", "x3"]
COEFFS = [Fraction(c) for c in (-3, -2, -1, 0, 1, 2, 3)] + [
    Fraction(1, 2), Fraction(-1, 3), Fraction(3, 4), Fraction(-5, 6), Fraction(2, 7),
]
CONSTS = [Fraction(c) for c in (-2, -1, 0, 0, 0, 1, 2, 4)] + [
    Fraction(-1, 2), Fraction(3, 5), Fraction(-7, 4),
]


def _expr(names, n_terms, pick):
    terms = tuple((pick(names), pick(COEFFS)) for _ in range(n_terms))
    return LinExpr(terms, pick(CONSTS))


def _build_lp(pick, randint, max_vars):
    """A random LP from `pick(pool)` and `randint(lo, hi)` choices."""
    names = NAMES[:randint(1, max_vars)]
    objective = _expr(names, randint(0, 3), pick)
    constraints = []
    for _ in range(randint(1, 8)):
        lhs = _expr(names, randint(0, 3), pick)
        rhs = _expr(names, randint(0, 2), pick)
        kind = pick(["plain", "plain", "cancel", "zero-sum", "copy", "equality"])
        if kind == "cancel":
            # one variable on both sides with the same coefficient: its
            # column is zero in the row but it is still a named variable
            v, c = pick(names), pick(COEFFS[4:])
            lhs, rhs = lhs + LinExpr.var(v, c), rhs + LinExpr.var(v, c)
        elif kind == "zero-sum":
            # duplicate terms of one side that sum to zero
            v, c = pick(names), pick(COEFFS[4:])
            lhs = lhs + LinExpr(((v, c), (v, -c)))
        elif kind == "copy" and constraints:
            # a positive multiple of an earlier row: ties in the ratio test
            lhs, rhs = pick(constraints)
            q = pick([Fraction(1), Fraction(2), Fraction(1, 3)])
            lhs, rhs = lhs.scale(q), rhs.scale(q)
        elif kind == "equality":
            # both directions: an artificial can stay basic at level zero
            constraints.append((rhs, lhs))
        constraints.append((lhs, rhs))
    return objective, constraints


@st.composite
def lps(draw, max_vars=4):
    return _build_lp(lambda pool: draw(st.sampled_from(pool)),
                     lambda lo, hi: draw(st.integers(lo, hi)), max_vars)


def _assert_same(objective, constraints):
    got = maximize(objective, constraints)
    want = dense_simplex.maximize(objective, constraints)
    assert got.status == want.status
    assert got.value == want.value
    assert got.point == want.point
    assert list(got.point) == list(want.point)
    return got


@settings(max_examples=300, deadline=None)
@given(lps())
def test_integer_tableau_matches_dense_oracle(lp):
    _assert_same(*lp)


def test_seeded_sweep_covers_every_case():
    """A fixed sweep that must reach each case the differential test is for."""
    rng = random.Random(2024)
    seen = set()
    for _ in range(600):
        objective, constraints = _build_lp(rng.choice, rng.randint, 4)
        res = _assert_same(objective, constraints)
        seen.add(res.status)
        if any(r.const - l.const < 0 for l, r in constraints):
            seen.add("phase-1")
        if _degenerate(res, constraints):
            seen.add("degenerate")
    assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED, "phase-1", "degenerate"}


def _degenerate(res, constraints):
    """True if the optimal vertex has more tight inequalities (x >= 0
    included) than variables, i.e. the ratio test met a tie on the way."""
    if res.status != OPTIMAL:
        return False
    names = sorted(res.point)
    rows, b = _inequalities(constraints, names)
    slacks = [bi - sum(a * res.point[v] for v, a in zip(names, row))
              for row, bi in zip(rows, b)]
    active = sum(1 for s in slacks if s == 0)
    active += sum(1 for v in res.point.values() if v == 0)
    return active > len(names)


def test_ratio_ties_go_to_the_lowest_basic_column():
    # two optimal vertices; breaking the ratio-test tie at the first pivot
    # towards the higher basic column (or the later row) ends at x2 = 1/2
    V, C = LinExpr.var, LinExpr.constant
    constraints = [
        (V("x0", 2), C(0)),
        (V("x1", 2) + V("x3", 2), C(1)),
        (V("x0", 4), C(0)),
        (V("x2") - V("x1") - V("x3"), C(1)),
        (V("x0") + V("x2") - V("x1"), C(0)),
    ]
    res = _assert_same(V("x0") + V("x1"), constraints)
    assert res.value == Fraction(1, 2)
    assert res.point == {"x0": 0, "x1": Fraction(1, 2), "x2": 0, "x3": 0}


def test_row_denominator_is_the_slack_and_artificial_entry():
    # phase 1 minimizes the sum of the rational rows' artificials; were the
    # slack and artificial entries of a row over denominator den 1 instead of
    # den, phase 1 would weigh that row's artificial by den and end at
    # another basis, here the vertex with x0 = 0 and x1 = 47/20
    V, C = LinExpr.var, LinExpr.constant
    constraints = [
        (V("x2", Fraction(41, 12)) + C(Fraction(3, 5)),
         V("x1") + V("x0", Fraction(3, 4)) + V("x2", Fraction(1, 2)) + C(Fraction(-7, 4))),
        (V("x0", -1) + V("x1", Fraction(-5, 6)) + C(Fraction(-7, 4)), C(0)),
        (V("x1") + V("x3", Fraction(-1, 3)) + V("x2", 3) + C(4),
         V("x0", Fraction(-5, 6)) + V("x2", 3) + C(-2)),
    ]
    res = _assert_same(C(-2), constraints)
    assert res.point == {"x0": Fraction(47, 15), "x1": 0, "x2": 0, "x3": Fraction(155, 6)}


# ---------------------------------------------------------------------------
# brute-force vertex enumeration
# ---------------------------------------------------------------------------


def _inequalities(constraints, names):
    """Rows a.x <= b of the constraints over `names` (lhs - rhs <= consts);
    a variable left out of `names` must have net coefficient 0 throughout."""
    rows, b = [], []
    for lhs, rhs in constraints:
        coeffs = {}
        for v, c in lhs.coeffs + rhs.scale(-1).coeffs:
            coeffs[v] = coeffs.get(v, 0) + c
        rows.append([coeffs.get(v, Fraction(0)) for v in names])
        b.append(rhs.const - lhs.const)
    return rows, b


def _solve(a, b):
    """Exact solution of the square system a x = b, or None if singular."""
    n = len(a)
    m = [list(row) + [bi] for row, bi in zip(a, b)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [m[r][n] / m[r][r] for r in range(n)]


def _brute_force_max(objective, constraints, names):
    """Best objective over all vertices of {a.x <= b, x >= 0}, or None."""
    rows, b = _inequalities(constraints, names)
    n = len(names)
    rows += [[Fraction(-1 if j == i else 0) for j in range(n)] for i in range(n)]
    b += [Fraction(0)] * n
    best = None
    for active in itertools.combinations(range(len(rows)), n):
        x = _solve([rows[i] for i in active], [b[i] for i in active])
        if x is None:
            continue
        if all(sum(a * xi for a, xi in zip(row, x)) <= bi for row, bi in zip(rows, b)):
            value = objective.value_at(dict(zip(names, x)))
            best = value if best is None else max(best, value)
    return best


@settings(max_examples=200, deadline=None)
@given(lps(max_vars=3))
def test_optimum_matches_vertex_enumeration(lp):
    objective, constraints = lp
    res = maximize(objective, constraints)
    names = sorted({v for l, r in constraints for v, _ in l.coeffs + r.coeffs}
                   | {v for v, _ in objective.coeffs})
    best = _brute_force_max(objective, constraints, names)
    if res.status == INFEASIBLE:
        # a nonempty polyhedron inside x >= 0 has a vertex
        assert best is None
    elif res.status == OPTIMAL:
        assert res.value == best
    else:
        assert res.status == UNBOUNDED and best is not None

"""Exact rational linear programming for feasibility with strict margins.

A two-phase simplex with Bland's rule (so pivoting is deterministic and never
cycles) on a fraction-free, sparse integer tableau: each row is a list of
ints that is a positive multiple of the exact rational row, and its basic
column holds that multiple.  A pivot touches only the nonzero columns of the
pivot row (row <- piv*row - row[c]*pivot_row, with gcd(piv, row[c]) taken
out first) and divides a row by its gcd whenever its multiple grows; sign
tests read the integers, ratios are compared by cross-multiplying,
and values are read off the basis as rhs/scale.  Every choice is made on the
same rational values as a dense Fraction tableau, so the same optimal vertex
comes back.

`_phase_one` is the one tableau builder, under `maximize_rows` and
`lex_minimize_rows`.  Their problems are over named variables, implicitly
>= 0, with integer rows (coeffs, b, den): each the constraint
sum (coeffs[v]/den)*v <= b/den over a positive denominator, which is the
row's multiple of the rational row and so also the entry of its slack and
artificial.  `lex_minimize_rows` minimizes variables in turn on one tableau,
freezing after each the nonbasic columns of positive reduced cost (Isermann,
Linear lexicographic optimization, 1982).  `maximize` takes LinExpr <=
LinExpr constraints and puts each over the lcm of its denominators.  Strict
systems are decided through their margin LP: maximize eps subject to the
strict constraints tightened by eps; the system has a solution iff the
optimum is positive, and the optimal basic solution is an exact rational
witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .gaussian import ContlogicError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinExpr:
    """Affine expression sum coeffs[v]*v + const over named variables."""

    coeffs: tuple[tuple[str, Fraction], ...] = ()
    const: Fraction = Fraction(0)

    @staticmethod
    def constant(q) -> "LinExpr":
        return LinExpr((), Fraction(q))

    @staticmethod
    def var(name: str, coeff=1) -> "LinExpr":
        return LinExpr(((name, Fraction(coeff)),), Fraction(0))

    def as_dict(self) -> dict[str, Fraction]:
        out: dict[str, Fraction] = {}
        for name, c in self.coeffs:
            out[name] = out[name] + c if name in out else c
        return {k: v for k, v in out.items() if v}

    def __add__(self, other: "LinExpr") -> "LinExpr":
        return LinExpr(self.coeffs + other.coeffs, self.const + other.const)

    def __sub__(self, other: "LinExpr") -> "LinExpr":
        return self + other.scale(-1)

    def scale(self, q) -> "LinExpr":
        q = Fraction(q)
        return LinExpr(
            tuple((name, c * q) for name, c in self.coeffs), self.const * q
        )

    def value_at(self, point: dict[str, Fraction]) -> Fraction:
        return self.const + sum(
            (c * point.get(name, Fraction(0)) for name, c in self.coeffs),
            Fraction(0),
        )


@dataclass(frozen=True)
class LPResult:
    status: str
    value: Optional[Fraction] = None
    point: dict = field(default_factory=dict)


def _eliminate(row: list[int], factor: int, piv: int,
               pivot_nonzeros: list[tuple[int, int]]) -> list[int]:
    """a*row - b*pivot_row with a/b = piv/factor in lowest terms, over the
    pivot row's nonzero columns; a positive multiple of the exact row, since
    piv > 0.  When a > 1 the row's scale grows, so the row is divided by its
    gcd; when a == 1 the scale is unchanged and the row is updated in place."""
    g = gcd(piv, factor)
    a, b = piv // g, factor // g
    if a != 1:
        row = [a * v for v in row]
    for j, w in pivot_nonzeros:
        row[j] -= b * w
    if a == 1:
        return row
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _pivot(rows: list[list[int]], basis: list[int], r: int, c: int) -> list[tuple[int, int]]:
    """Make column c basic in row r (rows[r][c] > 0); returns the pivot
    row's nonzero columns.  The pivot row itself is unchanged: its entry in
    column c becomes its scale."""
    prow = rows[r]
    piv = prow[c]
    nonzeros = [(j, w) for j, w in enumerate(prow) if w]
    for q, row in enumerate(rows):
        if q != r and row[c]:
            rows[q] = _eliminate(row, row[c], piv, nonzeros)
    basis[r] = c
    return nonzeros


def _reduced_costs(rows: list[list[int]], basis: list[int],
                   cost: dict[int, int], width: int) -> list[int]:
    """A positive multiple of the reduced-cost row z_j - c_j (rhs last)."""
    terms = [(r, cost[b]) for r, b in enumerate(basis) if b in cost]
    den = lcm(*(rows[r][basis[r]] for r, _ in terms))
    z = [0] * width
    for j, c in cost.items():
        z[j] = -c * den
    for r, c in terms:
        row = rows[r]
        k = c * (den // row[basis[r]])
        z = [v + k * w for v, w in zip(z, row)]
    g = gcd(*z)
    return [v // g for v in z] if g > 1 else z


def _run_simplex(rows: list[list[int]], basis: list[int], cost: dict[int, int],
                 frozen: set[int], width: int) -> list[int]:
    """Maximize sum cost[j]*x_j over the tableau in place, the `frozen`
    columns held at zero; returns the final reduced-cost row.

    Bland's rule on both choices: the lowest unfrozen column with a negative
    reduced cost enters; the row with the least ratio rhs/entry leaves, ties
    going to the lowest basic column.  Ratios are compared by
    cross-multiplying the integers, since a row's scale cancels.
    """
    z = _reduced_costs(rows, basis, cost, width)
    while True:
        entering = next((j for j in range(width - 1) if z[j] < 0 and j not in frozen), -1)
        if entering < 0:
            return z
        leaving = -1
        for r, row in enumerate(rows):
            a = row[entering]
            if a > 0:
                b = row[-1]
                if leaving < 0 or b * best_a < best_b * a or (
                    b * best_a == best_b * a and basis[r] < basis[leaving]
                ):
                    leaving, best_b, best_a = r, b, a
        if leaving < 0:
            raise _Unbounded()
        piv = rows[leaving][entering]
        nonzeros = _pivot(rows, basis, leaving, entering)
        z = _eliminate(z, z[entering], piv, nonzeros)


class _Unbounded(Exception):
    pass


class PhaseOneUnbounded(ContlogicError):
    """Phase 1 minimizes a sum of nonnegative artificials, so it is bounded;
    an unbounded phase 1 means the tableau is corrupt."""


Row = tuple[dict[str, int], int, int]


def _phase_one(named, rows: list[Row]):
    """The tableau of `rows` at a feasible basis, or None if there is none.

    The columns are every variable in `named` or in a row, in sorted order,
    then one slack per row, then one artificial per row with b < 0.  Returns
    (col, tableau, basis, frozen, width): col maps each variable to its
    column, and `frozen` holds the artificials.
    """
    names = sorted(set(named).union(*(coeffs for coeffs, _, _ in rows)))
    col = {name: j for j, name in enumerate(names)}
    n, m = len(names), len(rows)
    # equality form with slacks; rows with negative rhs are negated and get
    # an artificial, since their slack then points the wrong way
    total = n + m
    n_art = sum(b < 0 for _, b, _ in rows)
    width = total + n_art + 1
    tableau: list[list[int]] = []
    basis: list[int] = []
    next_artificial = total
    for i, (coeffs, b, den) in enumerate(rows):
        sign = -1 if b < 0 else 1
        row = [0] * width
        for name, a in coeffs.items():
            row[col[name]] = sign * a
        row[n + i] = sign * den
        row[-1] = sign * b
        if b < 0:
            basis.append(next_artificial)
            next_artificial += 1
        else:
            basis.append(n + i)
        row[basis[-1]] = den
        tableau.append(row)
    frozen = set(range(total, total + n_art))
    if n_art:
        try:
            _run_simplex(tableau, basis, dict.fromkeys(frozen, -1), set(), width)
        except _Unbounded:
            raise PhaseOneUnbounded("phase 1 cannot be unbounded") from None
        if any(row[-1] for row, j in zip(tableau, basis) if j >= total):
            return None
        # drive leftover artificials out of the basis
        for r in range(m):
            if basis[r] >= total:
                for j in range(total):
                    if tableau[r][j] != 0:
                        if tableau[r][j] < 0:
                            tableau[r] = [-v for v in tableau[r]]
                        _pivot(tableau, basis, r, j)
                        break
    return col, tableau, basis, frozen, width


def _basic_point(col: dict[str, int], tableau: list[list[int]],
                 basis: list[int]) -> dict[str, Fraction]:
    names = list(col)
    point = dict.fromkeys(names, Fraction(0))
    point.update((names[j], Fraction(row[-1], row[j]))
                 for row, j in zip(tableau, basis) if j < len(names))
    return point


def maximize_rows(cost: dict[str, int], rows: list[Row]) -> LPResult:
    """Maximize sum cost[v]*v subject to the integer rows, variables >= 0;
    the value is that of the integer objective."""
    start = _phase_one(cost, rows)
    if start is None:
        return LPResult(INFEASIBLE)
    col, tableau, basis, frozen, width = start
    try:
        _run_simplex(tableau, basis, {col[name]: c for name, c in cost.items()},
                     frozen, width)
    except _Unbounded:
        return LPResult(UNBOUNDED)
    point = _basic_point(col, tableau, basis)
    value = sum((c * point[name] for name, c in cost.items()), Fraction(0))
    return LPResult(OPTIMAL, value, point)


def lex_minimize_rows(order: list[str], rows: list[Row]) -> Optional[list[Fraction]]:
    """The lexicographically least values of `order` subject to the integer
    rows, variables >= 0, or None if the rows are infeasible.  Freezing the
    columns holds each minimized variable on its optimal face."""
    start = _phase_one(order, rows)
    if start is None:
        return None
    col, tableau, basis, frozen, width = start
    for name in order:
        z = _run_simplex(tableau, basis, {col[name]: -1}, frozen, width)
        frozen.update(j for j in range(width - 1) if z[j] > 0)
    point = _basic_point(col, tableau, basis)
    return [point[name] for name in order]


def _over_lcm(coeffs: dict[str, Fraction], b: Fraction) -> Row:
    den = lcm(b.denominator, *(c.denominator for c in coeffs.values()))
    return ({name: c.numerator * (den // c.denominator) for name, c in coeffs.items()},
            b.numerator * (den // b.denominator), den)


def maximize(objective: LinExpr,
             constraints: list[tuple[LinExpr, LinExpr]]) -> LPResult:
    """Maximize `objective` subject to lhs <= rhs constraints, variables >= 0."""
    rows = []
    for lhs, rhs in constraints:
        # a variable on both sides keeps its (possibly zero) column
        coeffs = lhs.as_dict()
        for name, c in rhs.as_dict().items():
            coeffs[name] = coeffs.get(name, 0) - c
        rows.append(_over_lcm(coeffs, rhs.const - lhs.const))
    cost, _, _ = _over_lcm(objective.as_dict(), Fraction(0))
    result = maximize_rows(cost, rows)
    if result.status != OPTIMAL:
        return result
    return LPResult(OPTIMAL, objective.value_at(result.point), result.point)

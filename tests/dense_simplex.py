"""Dense two-phase Fraction simplex with Bland's rule: the test oracle.

This is the solver `contlogic.feasibility.maximize` used before its tableau
became fraction-free and sparse, kept verbatim so that differential tests can
check that the integer tableau returns the same status, value and vertex.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from contlogic.feasibility import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult
from linexpr import LinExpr


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for r in range(len(tableau)):
        if r != row and tableau[r][col] != 0:
            factor = tableau[r][col]
            tableau[r] = [v - factor * w for v, w in zip(tableau[r], tableau[row])]
    basis[row] = col


def _run_simplex(tableau: list[list[Fraction]], basis: list[int],
                 cost: list[Fraction], allowed_cols: int) -> Fraction:
    """Maximize over the tableau in place; returns the objective value.

    `cost` is the full cost row (length = columns, no constant); reduced costs
    are maintained in an extra working row.  Bland's rule on both choices.
    """
    m = len(tableau)
    width = len(tableau[0])  # columns + 1 for rhs
    # reduced-cost row: z_j - c_j style; build from scratch
    zrow = [Fraction(0)] * width
    for j in range(width):
        zrow[j] = -cost[j] if j < width - 1 else Fraction(0)
    for r in range(m):
        cb = cost[basis[r]]
        if cb != 0:
            zrow = [z + cb * v for z, v in zip(zrow, tableau[r])]
    while True:
        entering = -1
        for j in range(allowed_cols):
            if zrow[j] < 0:
                entering = j
                break
        if entering < 0:
            return zrow[-1]
        leaving = -1
        best: Optional[Fraction] = None
        for r in range(m):
            a = tableau[r][entering]
            if a > 0:
                ratio = tableau[r][-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[r] < basis[leaving]
                ):
                    best = ratio
                    leaving = r
        if leaving < 0:
            raise _Unbounded()
        piv_factor = zrow[entering]
        _pivot(tableau, basis, leaving, entering)
        zrow = [z - piv_factor * v for z, v in zip(zrow, tableau[leaving])]


class _Unbounded(Exception):
    pass


def maximize(objective: LinExpr,
             constraints: list[tuple[LinExpr, LinExpr]]) -> LPResult:
    """Maximize `objective` subject to lhs <= rhs constraints, variables >= 0."""
    names = sorted(
        set(objective.as_dict())
        | {n for lhs, rhs in constraints for n in {**lhs.as_dict(), **rhs.as_dict()}}
    )
    col = {n: j for j, n in enumerate(names)}
    n = len(names)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for lhs, rhs_e in constraints:
        row = [Fraction(0)] * n
        for name, c in lhs.as_dict().items():
            row[col[name]] += c
        for name, c in rhs_e.as_dict().items():
            row[col[name]] -= c
        rows.append(row)
        rhs.append(rhs_e.const - lhs.const)
    m = len(rows)
    # equality form with slacks; negate rows with negative rhs and add
    # artificials where the slack then points the wrong way
    total = n + m
    artificial_cols: list[int] = []
    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    needs_artificial = [rhs[i] < 0 for i in range(m)]
    n_art = sum(needs_artificial)
    total_cols = total + n_art
    art_seen = 0
    for i in range(m):
        row = list(rows[i])
        b = rhs[i]
        slack = [Fraction(0)] * m
        slack[i] = Fraction(1)
        if needs_artificial[i]:
            row = [-v for v in row]
            b = -b
            slack[i] = Fraction(-1)
        art = [Fraction(0)] * n_art
        if needs_artificial[i]:
            art[art_seen] = Fraction(1)
            artificial_cols.append(total + art_seen)
            art_seen += 1
        tableau.append(row + slack + art + [b])
        basis.append(
            total + art_seen - 1 if needs_artificial[i] else n + i
        )
    if n_art:
        cost1 = [Fraction(0)] * total_cols
        for j in artificial_cols:
            cost1[j] = Fraction(-1)
        cost1.append(Fraction(0))
        try:
            value1 = _run_simplex(tableau, basis, cost1, total_cols)
        except _Unbounded:  # pragma: no cover - phase 1 is bounded
            raise AssertionError("phase 1 cannot be unbounded")
        if value1 != 0:
            return LPResult(INFEASIBLE)
        # drive leftover artificials out of the basis
        for r in range(m):
            if basis[r] in artificial_cols:
                for j in range(total):
                    if tableau[r][j] != 0:
                        _pivot(tableau, basis, r, j)
                        break
    cost2 = [Fraction(0)] * total_cols
    for name, c in objective.as_dict().items():
        cost2[col[name]] = c
    cost2.append(Fraction(0))
    try:
        # artificials stay frozen at zero: entering columns restricted
        value = _run_simplex(tableau, basis, cost2, total)
    except _Unbounded:
        return LPResult(UNBOUNDED)
    point = {name: Fraction(0) for name in names}
    for r in range(m):
        if basis[r] < n:
            point[names[basis[r]]] = tableau[r][-1]
    return LPResult(OPTIMAL, value + objective.const, point)

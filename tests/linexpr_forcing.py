"""The LinExpr compiler of forcing systems: the test oracle.

This is how `contlogic.forcing` compiled bound systems before it emitted
integer rows: `_le_alternatives`, `_ge_alternatives`, `_metric_axioms`,
`_system_alternatives`, `_solve_system` and `_lex_minimize` are kept verbatim
on `LinExpr` rows (with `LinExpr.substitute` as the function `_substitute`
and `BoundSystem.constants` as the function `system_constants`), and solve
with `dense_simplex.maximize`, the dense Fraction tableau, so that no part of
the integer-row path is shared.  Differential tests check that the
integer rows give the same verdicts, margins, witness points and lexicographic
minima.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from contlogic import formulas as F
from contlogic.feasibility import OPTIMAL
from contlogic.forcing import (
    BoundSystem,
    BranchOverflow,
    ForcingError,
    Infeasible,
    MetricInstance,
    SystemVerdict,
    _pair_var,
    _term_const,
)
from dense_simplex import maximize
from linexpr import LinExpr

C = LinExpr.constant
V = LinExpr.var


def system_constants(system: BoundSystem) -> set[int]:
    out: set[int] = set()
    for group in (system.le, system.lt, system.ge, system.gt):
        for formula, _ in group:
            out |= F.constants_of(formula)
    return out


def _substitute(expr: LinExpr, values: dict[str, Fraction]) -> LinExpr:
    """Replace some variables by constants, folding them into `const`."""
    if not values:
        return expr
    kept = []
    const = expr.const
    for name, c in expr.coeffs:
        if name in values:
            const += c * values[name]
        else:
            kept.append((name, c))
    return LinExpr(tuple(kept), const)


def _atom_expr(formula: F.Atomic) -> LinExpr:
    i, j = (_term_const(t) for t in formula.args)
    return C(0) if i == j else V(_pair_var(i, j))


Rows = list[tuple[LinExpr, LinExpr]]


def _le_alternatives(formula: F.Formula, bound: LinExpr,
                     fresh: list[int]) -> list[Rows]:
    """Disjunctive row sets equivalent to value(formula) <= bound.

    Upper-side constraints on max(l - r, 0) split into l - r <= bound and
    0 <= bound, so positive polarity never branches; the lower value of the
    right operand is carried by a fresh nonnegative variable.  Branching
    happens only in `_ge_alternatives` where a truncated subtraction must be
    bounded from below.
    """
    if isinstance(formula, F.Atomic):
        return [[(_atom_expr(formula), bound)]]
    if isinstance(formula, F.Zero):
        return [[(C(0), bound)]]
    if isinstance(formula, F.One):
        return [[(C(1), bound)]]
    if isinstance(formula, F.Half):
        return _le_alternatives(formula.body, bound.scale(2), fresh)
    if isinstance(formula, F.DotMinus):
        fresh[0] += 1
        z = V(f"z_{fresh[0]}")
        left_alts = _le_alternatives(formula.left, bound + z, fresh)
        right_alts = _ge_alternatives(formula.right, z, fresh)
        out = []
        for la in left_alts:
            for ra in right_alts:
                out.append([(C(0), bound)] + la + ra)
        return out
    raise ForcingError("quantifier in a qf compilation")


def _ge_alternatives(formula: F.Formula, bound: LinExpr,
                     fresh: list[int]) -> list[Rows]:
    """Disjunctive row sets equivalent to value(formula) >= bound."""
    if isinstance(formula, F.Atomic):
        return [[(bound, _atom_expr(formula))]]
    if isinstance(formula, F.Zero):
        return [[(bound, C(0))]]
    if isinstance(formula, F.One):
        return [[(bound, C(1))]]
    if isinstance(formula, F.Half):
        return _ge_alternatives(formula.body, bound.scale(2), fresh)
    if isinstance(formula, F.DotMinus):
        # max(l - r, 0) >= bound: either bound <= 0, or l - r >= bound
        trivial: Rows = [(bound, C(0))]
        fresh[0] += 1
        z = V(f"z_{fresh[0]}")
        left_alts = _ge_alternatives(formula.left, bound + z, fresh)
        right_alts = _le_alternatives(formula.right, z, fresh)
        out = [trivial]
        for la in left_alts:
            for ra in right_alts:
                out.append(la + ra)
        return out
    raise ForcingError("quantifier in a qf compilation")


def _metric_axioms(constants: list[int]) -> list[tuple[LinExpr, LinExpr]]:
    out: list[tuple[LinExpr, LinExpr]] = []
    for idx, i in enumerate(constants):
        for j in constants[idx + 1:]:
            out.append((V(_pair_var(i, j)), C(1)))
    for i in constants:
        for j in constants:
            for k in constants:
                if i < k and j != i and j != k:
                    out.append(
                        (
                            V(_pair_var(i, k)),
                            V(_pair_var(i, j)) + V(_pair_var(j, k)),
                        )
                    )
    return out


def _system_alternatives(system: BoundSystem, inst: MetricInstance) -> list[Rows]:
    eps = V("__eps__")
    fresh = [0]
    per_item: list[list[Rows]] = []
    for formula, bound in system.le:
        per_item.append(_le_alternatives(formula, C(bound), fresh))
    for formula, bound in system.lt:
        per_item.append(_le_alternatives(formula, C(bound) - eps, fresh))
    for formula, bound in system.ge:
        per_item.append(_ge_alternatives(formula, C(bound), fresh))
    for formula, bound in system.gt:
        per_item.append(_ge_alternatives(formula, C(bound) + eps, fresh))
    total = 1
    for alts in per_item:
        total *= len(alts)
        if total > inst.branch_cap:
            raise BranchOverflow(f"more than {inst.branch_cap} branch combinations")
    combos: list[Rows] = [[]]
    for alts in per_item:
        combos = [got + alt for got in combos for alt in alts]
    return combos


def _solve_system(system: BoundSystem, constants: list[int],
                  inst: MetricInstance) -> SystemVerdict:
    """Decide satisfiability over [0,1]-metric assignments, exactly.

    Strict bounds are tightened by a shared margin variable; the system has a
    model iff some branch combination admits a positive margin.  The witness
    point is the margin-maximal assignment of the first such combination.
    """
    base = _metric_axioms(sorted(set(constants) | system_constants(system)))
    eps = V("__eps__")
    for rows in _system_alternatives(system, inst):
        all_rows = base + rows + [(eps, C(1))]
        result = maximize(eps, all_rows)
        if result.status == OPTIMAL and result.value > 0:
            point = {
                k: v for k, v in result.point.items() if k.startswith("d_")
            }
            return SystemVerdict(True, result.value, point)
    return SystemVerdict(False, Fraction(0), None)


def _lex_minimize(base: Rows, alternatives: list[Rows], var: str,
                  fixed: dict[str, Fraction]) -> Fraction:
    """Minimum of `var` over the union of the alternative regions, with the
    already-minimized variables substituted by their values (shrinking every
    successive LP instead of pinning with equality rows)."""
    best: Optional[Fraction] = None
    for alt in alternatives:
        rows = []
        infeasible = False
        for lhs, rhs in base + alt:
            lhs, rhs = _substitute(lhs, fixed), _substitute(rhs, fixed)
            if not lhs.coeffs and not rhs.coeffs:
                if lhs.const > rhs.const:
                    infeasible = True
                    break
                continue
            rows.append((lhs, rhs))
        if infeasible:
            continue
        result = maximize(V(var).scale(-1), rows)
        if result.status == OPTIMAL:
            value = -result.value
            if best is None or value < best:
                best = value
    if best is None:
        raise Infeasible("no feasible branch during compilation")
    return best

"""The evaluator sweep before it memoised nodes: the test oracle.

`eval_sentence`, `pin_witnesses`, `_interval_qf` and `_term_object` are kept
verbatim as `contlogic.evaluator` had them when every point tuple
re-evaluated the whole prenex matrix, so that differential tests can check
that computing each node once per assignment of its own variables returns
the same `EvalResult`.  Only the imports were edited, `_term_object`'s
test for an unbound constant, which reads `is None` since rational points
became plain indices (point 0 is falsy), and its term operations, which call
the objects' own `adjoint()`, `*` and `comb()` since presentations stopped
carrying the algebra.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from contlogic import formulas as F
from contlogic.evaluator import EvalBudget, EvalError, EvalResult, Interval, UnboundConstant
from contlogic.presentations import Presentation


def _term_object(term: F.Term, pres: Presentation, env: dict, bindings: dict):
    if isinstance(term, F.Var):
        if term.name not in env:
            raise EvalError(f"unbound variable {term.name!r}")
        return env[term.name]
    if isinstance(term, F.CConst):
        point = bindings.get(term.index)
        if point is None:
            point = pres.default_constant_point(term.index)
        if point is None:
            raise UnboundConstant(f"constant c{term.index} is not bound to a point")
        return pres.point_object(point)
    if isinstance(term, F.App):
        args = [_term_object(a, pres, env, bindings) for a in term.args]
        if term.func == "adj":
            return args[0].adjoint()
        if term.func == "mul":
            return args[0] * args[1]
        raise EvalError(f"unknown function {term.func!r}")
    if isinstance(term, F.Comb):
        left = _term_object(term.left, pres, env, bindings)
        right = _term_object(term.right, pres, env, bindings)
        return left.comb(term.lam, term.mu, right)
    raise EvalError(f"not a term: {term!r}")


def _interval_qf(formula: F.Formula, pres: Presentation, k: int, env: dict,
                 bindings: dict, budget: Optional[int]) -> Interval:
    if isinstance(formula, F.Atomic):
        objs = [_term_object(t, pres, env, bindings) for t in formula.args]
        return pres.atom_interval(formula.pred, objs, k, budget=budget)
    if isinstance(formula, F.Zero):
        return (Fraction(0), Fraction(0))
    if isinstance(formula, F.One):
        return (Fraction(1), Fraction(1))
    if isinstance(formula, F.Half):
        lo, hi = _interval_qf(formula.body, pres, k, env, bindings, budget)
        return (lo / 2, hi / 2)
    if isinstance(formula, F.DotMinus):
        llo, lhi = _interval_qf(formula.left, pres, k, env, bindings, budget)
        rlo, rhi = _interval_qf(formula.right, pres, k, env, bindings, budget)
        return (max(llo - rhi, Fraction(0)), max(lhi - rlo, Fraction(0)))
    raise EvalError("quantifier below a connective in a qf evaluation")


def eval_sentence(formula: F.Formula, pres: Presentation, budget: EvalBudget,
                  bindings: Optional[dict] = None) -> EvalResult:
    """Budget-bounded evaluation of a closed sentence (prenexed first).

    Certified sides follow the quantifier pattern: sampled sup blocks
    propagate lower bounds, sampled inf blocks upper bounds; a side that
    would need density rates of the rational-point enumeration is left
    uncertified and only the deterministic estimate is reported.
    """
    if F.free_vars(formula):
        raise EvalError("eval needs a closed sentence")
    bindings = bindings or {}
    prenexed = F.prenex(formula)
    prefix, matrix = F.prefix_of(prenexed)
    k = budget.precision_k

    def sweep(position: int, env: dict):
        if position == len(prefix):
            lo, hi = _interval_qf(matrix, pres, k, env, bindings, budget.oracle_budget)
            return EvalResult(lo, hi, (lo + hi) / 2, {}, hi - lo)
        kind, var = prefix[position]
        n_points = budget.points
        results = []
        for i in range(n_points):
            obj = pres.point_object(pres.rational_point(i))
            results.append((i, sweep(position + 1, {**env, var: obj})))
        is_sup = kind is F.Sup
        estimates = [r.estimate for _, r in results]
        best_estimate = max(estimates) if is_sup else min(estimates)
        if is_sup:
            lowers = [r.certified_lower for _, r in results if r.certified_lower is not None]
            lower = max(lowers) if lowers else None
            upper = None
            bound = lower
            key = lambda r: r.certified_lower
        else:
            uppers = [r.certified_upper for _, r in results if r.certified_upper is not None]
            upper = min(uppers) if uppers else None
            lower = None
            bound = upper
            key = lambda r: r.certified_upper
        # the witness names the branch attaining the certified bound, so
        # pinning reproduces the bound; without one it tracks the estimate
        if bound is not None:
            best_index, best = next(
                (i, r) for i, r in results if key(r) == bound
            )
        else:
            best_index, best = next(
                (i, r) for i, r in results if r.estimate == best_estimate
            )
        witnesses = {position: best_index}
        witnesses.update(best.witnesses)
        slack = max(r.slack for _, r in results)
        estimate = best_estimate
        if lower is not None:
            estimate = max(estimate, lower)
        if upper is not None:
            estimate = min(estimate, upper)
        return EvalResult(lower, upper, estimate, witnesses, slack)

    return sweep(0, {})


def pin_witnesses(formula: F.Formula, pres: Presentation, budget: EvalBudget,
                  witnesses: dict, bindings: Optional[dict] = None) -> Interval:
    """Re-evaluate with every quantifier pinned to its reported witness."""
    prenexed = F.prenex(formula)
    prefix, matrix = F.prefix_of(prenexed)
    env = {}
    for position, (kind, var) in enumerate(prefix):
        index = witnesses[position]
        env[var] = pres.point_object(pres.rational_point(index))
    return _interval_qf(matrix, pres, budget.precision_k, env, bindings or {},
                        budget.oracle_budget)

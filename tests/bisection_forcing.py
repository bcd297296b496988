"""The forcing questions answered as `contlogic.forcing` answered them before
it read their optimum: the test oracle.

`fp_estimate` brackets a sup block's value by dyadic bisection, asking the
limit LP `forcing._above` at budget + 1 thresholds (`bisect_value`), and
`forces_sup_leq` sweeps the hypothesis slices before it asks the limit LP.
Both are kept verbatim on `forcing`'s own compiler and LP, so the
differential tests in `test_forcing_differential.py` check only the route to
the answer: the bracket from one sup LP per branch combination, and the
limit LP asked first.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from contlogic import forcing as FC
from contlogic import formulas as F
from contlogic.forcing import (
    BoundSystem,
    BranchOverflow,
    Condition,
    ForcingAnswer,
    ForcingError,
    FpBounds,
    MetricInstance,
    _above,
    _fresh_constant,
    _instance,
    _slice_tuples,
    _solve_system,
)


def bisect_value(decide_leq, budget: int) -> tuple[Fraction, Fraction]:
    """Bracket inf{r : decide_leq(r)} on the dyadic grid of step 2^-budget."""
    if decide_leq(Fraction(0)):
        return Fraction(0), Fraction(0)
    lo, hi = Fraction(0), Fraction(1)
    for _ in range(budget):
        mid = (lo + hi) / 2
        if decide_leq(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def fp_estimate(p: Condition, formula: F.Formula, inst: MetricInstance = MetricInstance(),
                depth: int = 2, budget: int = 8) -> FpBounds:
    prefix, matrix = F.prenex_parts(formula)
    return _fp_rec(p, prefix, matrix, inst, depth, budget)


def _fp_rec(p: Condition, prefix, matrix, inst, depth, budget) -> FpBounds:
    if all(kind is F.Sup for kind, _ in prefix):
        sup_vars = [v for _, v in prefix]
        sentence, constants = _instance(p, matrix, sup_vars, len(sup_vars))
        lo, hi = bisect_value(
            lambda r: not _above(p, sentence, constants, r, inst).satisfiable, budget)
        return FpBounds(lo, hi, (lo + hi) / 2)
    kind, var = prefix[0]
    rest = prefix[1:]
    used = sorted(set(p.constants()) | F.constants_of(matrix))
    candidates = used[: max(depth, 1)] + _fresh_constant(set(used))
    results = []
    for c in candidates:
        instance = F.substitute(matrix, {var: F.CConst(c)})
        results.append(_fp_rec(p, rest, instance, inst, depth - 1, budget))
    estimates = [r.estimate for r in results]
    if kind is F.Inf:
        uppers = [r.upper for r in results if r.upper is not None]
        upper = min(uppers) if uppers else None
        return FpBounds(None, upper, min(estimates) if estimates else Fraction(1, 2))
    lowers = [r.lower for r in results if r.lower is not None]
    lower = max(lowers) if lowers else None
    return FpBounds(lower, None, max(estimates) if estimates else Fraction(1, 2))


def forces_sup_leq(p: Condition, psi: F.Formula, r: Fraction,
                   inst: MetricInstance = MetricInstance(),
                   budget: int = 4) -> ForcingAnswer:
    """Sweep up to `forcing.SWEEP_CAP` slice members for a countermodel,
    then ask the limit LP."""
    r = Fraction(r)
    fv = F.free_vars(psi)
    if len(fv) > 1:
        raise ForcingError("psi must have at most one free variable")
    if not F.is_quantifier_free(psi):
        raise ForcingError("psi must be quantifier-free")
    if r >= 1:
        return ForcingAnswer("yes", margin=Fraction(0))
    psi_c, constants = _instance(p, psi, sorted(fv), 1)
    delta = Fraction(1, 1 << budget)
    swept = 0
    members = itertools.chain.from_iterable(_slice_tuples(p, g) for g in range(1, budget + 1))
    try:
        for values in itertools.islice(members, FC.SWEEP_CAP):
            swept += 1
            hyp = tuple((formula, s) for (formula, _), s in zip(p.items, values))
            verdict = _solve_system(
                BoundSystem(le=hyp, ge=((psi_c, r + delta),)), constants, inst)
            if verdict.satisfiable:
                return ForcingAnswer("no", witness=verdict.point, margin=verdict.margin,
                                     swept=swept)
        verdict = _above(p, psi_c, constants, r, inst)
    except BranchOverflow:
        return ForcingAnswer("unknown", swept=swept)
    if verdict.satisfiable:
        return ForcingAnswer("no", witness=verdict.point, margin=verdict.margin,
                             swept=swept)
    return ForcingAnswer("yes", margin=Fraction(0), swept=swept)

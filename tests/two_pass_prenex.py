"""`contlogic.formulas.prenex` as it was before one recursion renamed and
pulled the quantifiers: a test oracle.

It rebuilds the tree three times: `rename` gives every bound variable a
fresh name in pre-order, `pull` collects the prefix, and a loop wraps the
prefix back around the matrix.  The function is kept verbatim; only the
imports were added.
"""

from __future__ import annotations

from contlogic.formulas import (Atomic, DotMinus, Formula, FormulaError, Half, Inf, One,
                                Sup, Term, Var, Zero, _subst_term, free_vars)


def prenex(formula: Formula) -> Formula:
    """Equivalent prenex form: all quantifiers outermost, body quantifier-free.

    Bound variables are first renamed to a fresh deterministic sequence (v1,
    v2, ... skipping names already present), so output is reproducible
    byte-for-byte and pulls can never capture.  Pull rules: Half commutes with
    both quantifiers; on the left of -. quantifiers keep their kind, on the
    right they flip (sup <-> inf); left prefix is pulled before right.
    """
    avoid = free_vars(formula)
    counter = [0]

    def fresh() -> str:
        while True:
            counter[0] += 1
            name = f"v{counter[0]}"
            if name not in avoid:
                return name

    def rename(f: Formula, env: dict[str, Term]) -> Formula:
        if isinstance(f, Atomic):
            return Atomic(f.pred, tuple(_subst_term(a, env) for a in f.args))
        if isinstance(f, (Zero, One)):
            return f
        if isinstance(f, Half):
            return Half(rename(f.body, env))
        if isinstance(f, DotMinus):
            return DotMinus(rename(f.left, env), rename(f.right, env))
        if isinstance(f, (Sup, Inf)):
            new = fresh()
            return type(f)(new, rename(f.body, {**env, f.var: Var(new)}))
        raise FormulaError(f"not a formula: {f!r}")

    def pull(f: Formula) -> tuple[list[tuple[type, str]], Formula]:
        if isinstance(f, (Atomic, Zero, One)):
            return [], f
        if isinstance(f, Half):
            prefix, matrix = pull(f.body)
            return prefix, Half(matrix)
        if isinstance(f, DotMinus):
            lp, lm = pull(f.left)
            rp, rm = pull(f.right)
            flipped = [(Inf if kind is Sup else Sup, var) for kind, var in rp]
            return lp + flipped, DotMinus(lm, rm)
        if isinstance(f, (Sup, Inf)):
            prefix, matrix = pull(f.body)
            return [(type(f), f.var)] + prefix, matrix
        raise FormulaError(f"not a formula: {f!r}")

    prefix, matrix = pull(rename(formula, {}))
    out: Formula = matrix
    for kind, var in reversed(prefix):
        out = kind(var, out)
    return out

"""Shared deterministic generators for test data."""

from __future__ import annotations

import random
from fractions import Fraction

from contlogic import formulas as F
from contlogic.gaussian import GaussianRational

VAR_POOL = ["x", "y", "z", "w"]

SMALL_COEFFS = [
    GaussianRational(Fraction(1), Fraction(0)),
    GaussianRational(Fraction(1, 2), Fraction(0)),
    GaussianRational(Fraction(0), Fraction(1, 2)),
    GaussianRational(Fraction(1, 4), Fraction(1, 4)),
    GaussianRational(Fraction(-1, 2), Fraction(0)),
    GaussianRational(Fraction(3, 8), Fraction(-1, 8)),
    GaussianRational(Fraction(0), Fraction(0)),
]


def random_term(rng: random.Random, sig: F.Signature, scope: list[str], depth: int) -> F.Term:
    choices = ["var", "cconst"]
    if depth > 0 and sig.functions:
        choices += ["app"] * 2
    if depth > 0 and sig.allow_comb:
        choices.append("comb")
    kind = rng.choice(choices)
    if kind == "var" and scope:
        return F.Var(rng.choice(scope))
    if kind == "app" and sig.functions:
        f = rng.choice(list(sig.functions))
        return F.App(
            f,
            tuple(random_term(rng, sig, scope, depth - 1) for _ in range(sig.functions[f])),
        )
    if kind == "comb":
        lam = rng.choice(SMALL_COEFFS)
        # keep |lam|+|mu| <= 1 by picking mu with small certified bound
        mu_candidates = [m for m in SMALL_COEFFS if F.rounded_bound_ok(lam, m)]
        mu = rng.choice(mu_candidates)
        return F.Comb(
            lam,
            mu,
            random_term(rng, sig, scope, depth - 1),
            random_term(rng, sig, scope, depth - 1),
        )
    return F.CConst(rng.randint(1, 4))


def random_formula(
    rng: random.Random,
    sig: F.Signature,
    depth: int,
    scope: list[str] | None = None,
    closed: bool = False,
) -> F.Formula:
    """Random well-formed formula with AST depth <= depth."""
    scope = list(scope or [])
    atoms_only = depth <= 1
    kinds = ["atomic", "zero", "one"]
    if not atoms_only:
        kinds += ["half", "dotminus", "dotminus", "quant", "quant"]
    kind = rng.choice(kinds)
    if kind == "atomic" or atoms_only:
        p = rng.choice(list(sig.predicates))
        args = tuple(
            random_term(rng, sig, scope if (scope and not closed) or scope else scope, 2)
            for _ in range(sig.predicates[p])
        )
        return F.Atomic(p, args)
    if kind == "zero":
        return F.Zero()
    if kind == "one":
        return F.One()
    if kind == "half":
        return F.Half(random_formula(rng, sig, depth - 1, scope, closed))
    if kind == "dotminus":
        return F.DotMinus(
            random_formula(rng, sig, depth - 1, scope, closed),
            random_formula(rng, sig, depth - 1, scope, closed),
        )
    var = rng.choice([v for v in VAR_POOL if v not in scope] or ["x"])
    body = random_formula(rng, sig, depth - 1, scope + [var], closed)
    return (F.Sup if rng.random() < 0.5 else F.Inf)(var, body)


def random_sentence(rng: random.Random, sig: F.Signature, depth: int) -> F.Formula:
    """Random closed formula (free variables swept by an outer prefix)."""
    f = random_formula(rng, sig, depth)
    for v in sorted(F.free_vars(f)):
        f = (F.Sup if rng.random() < 0.5 else F.Inf)(v, f)
    return f

"""Restricted continuous-logic formulas over declared signatures.

Formulas are built from atomic predicates with values in [0,1], the
connectives 0, 1, x/2 and truncated subtraction x -. y = max(x-y, 0), and the
quantifiers sup/inf ranging over the unit ball of a structure.  Terms are
closed under signature functions and, in algebra signatures, the rounded
combination comb(l, t, m, s) = l*t + m*s with |l|+|m| <= 1 over Q(i).

Everything here is an immutable value; all operations are pure.  The walks
`subformulas` and `subterms` visit the nodes of the two trees parents first;
the inspections (variables, C-constants, quantifier-freeness, validation) are
written on them.  `prenex_parts` gives the prenex form as the prefix and matrix
that the evaluator and forcing read; `prenex` wraps the one around the other.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from typing import Iterator, Union

from .dyadic import is_dyadic
from .gaussian import ContlogicError, GaussianRational, combination

IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class FormulaError(ContlogicError):
    """Base class for formula construction/inspection errors."""


class UnknownSymbol(FormulaError):
    pass


class ArityMismatch(FormulaError):
    pass


class RoundedBoundViolation(FormulaError):
    pass


class NotPrenex(FormulaError):
    pass


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Signature:
    """A computable continuous signature: its predicate and function symbols,
    each mapped to its arity.

    The countable fresh constant set C = {c1, c2, ...} is implicitly part of
    every signature and is its only kind of constant.  `allow_comb` enables
    the rounded-combination term former (algebra signatures only).  The
    presets below are the only signatures, so they compare by identity.
    """

    name: str
    predicates: dict[str, int]
    functions: dict[str, int] = field(default_factory=dict)
    allow_comb: bool = False


METRIC = Signature("metric", {"d": 2})
CSTAR = Signature("cstar", {"d": 2}, {"adj": 1, "mul": 2}, allow_comb=True)
TVNA = Signature("tvna", {"d": 2, "tr_re": 1, "tr_im": 1}, {"adj": 1, "mul": 2},
                 allow_comb=True)

PRESETS = {"metric": METRIC, "cstar": CSTAR, "tvna": TVNA}


def rounded_bound_ok(lam: GaussianRational, mu: GaussianRational) -> bool:
    """Decide |lam| + |mu| <= 1 exactly, on integer numerators.

    Over one denominator D, lam = a/D and mu = b/D for Gaussian integers a, b.
    With x = |a|^2 and y = |b|^2, sqrt(x) + sqrt(y) <= D iff r = D^2 - x - y
    >= 0 and 2 sqrt(xy) <= r, that is 4xy <= r^2 (one root, squared away).
    """
    d, ar, ai, br, bi = combination(lam, mu, 1, 1)
    x, y = ar * ar + ai * ai, br * br + bi * bi
    rest = d * d - x - y
    return rest >= 0 and 4 * x * y <= rest * rest


# ---------------------------------------------------------------------------
# terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class CConst:
    """The fresh constant c_index, index >= 1."""

    index: int


@dataclass(frozen=True)
class App:
    func: str
    args: tuple["Term", ...]


@dataclass(frozen=True)
class Comb:
    """Rounded combination lam*left + mu*right, |lam|+|mu| <= 1."""

    lam: GaussianRational
    mu: GaussianRational
    left: "Term"
    right: "Term"


Term = Union[Var, CConst, App, Comb]


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atomic:
    pred: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Zero:
    """The constant-0 connective; applying it to any formula erases it."""


@dataclass(frozen=True)
class One:
    """The constant-1 connective; applying it to any formula erases it."""


@dataclass(frozen=True)
class Half:
    body: "Formula"


@dataclass(frozen=True)
class DotMinus:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Sup:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Inf:
    var: str
    body: "Formula"


Formula = Union[Atomic, Zero, One, Half, DotMinus, Sup, Inf]


# A prefix class is its text: "qf", or "forallN" / "existsN" for N >= 1
# alternation blocks starting with sup / inf.
PREFIX_CLASS_RE = re.compile(r"qf|(forall|exists)([1-9][0-9]*)")


# -- connective value semantics (shared by evaluators) -----------------------


def dot_minus_value(a: Fraction, b: Fraction) -> Fraction:
    return max(a - b, Fraction(0))


# ---------------------------------------------------------------------------
# walks
# ---------------------------------------------------------------------------


def subterms(term: Term) -> Iterator[Term]:
    """Every subterm of `term`, parents first and left to right.

    Raises FormulaError on reaching something that is not a term.
    """
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, App):
            stack.extend(reversed(t.args))
        elif isinstance(t, Comb):
            stack += (t.right, t.left)
        elif not isinstance(t, (Var, CConst)):
            raise FormulaError(f"not a term: {t!r}")
        yield t


def subformulas(formula: Formula) -> Iterator[Formula]:
    """Every subformula of `formula`, parents first and left to right; the
    terms inside atomic formulas are left to `subterms`.

    Raises FormulaError on reaching something that is not a formula.
    """
    stack = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, (Half, Sup, Inf)):
            stack.append(f.body)
        elif isinstance(f, DotMinus):
            stack += (f.right, f.left)
        elif not isinstance(f, (Atomic, Zero, One)):
            raise FormulaError(f"not a formula: {f!r}")
        yield f


# ---------------------------------------------------------------------------
# construction helpers and validation
# ---------------------------------------------------------------------------


def dyadic_constant(q: Fraction) -> Formula:
    """A formula with constant value q, for dyadic q in [0,1].

    Built inside the connective basis: halving reaches small constants and
    One -. c reaches their complements.
    """
    q = Fraction(q)
    if not (0 <= q <= 1) or not is_dyadic(q):
        raise ValueError(f"need a dyadic in [0,1], got {q}")
    if q == 0:
        return Zero()
    if q == 1:
        return One()
    if q <= Fraction(1, 2):
        return Half(dyadic_constant(2 * q))
    return DotMinus(One(), dyadic_constant(1 - q))


def half_power_one(n: int) -> Formula:
    """Half^n(One): the canonical constant 2^-n."""
    f: Formula = One()
    for _ in range(n):
        f = Half(f)
    return f


def validate(formula: Formula, sig: Signature) -> None:
    """Raise if the formula is not well-formed over `sig`."""
    for f in subformulas(formula):
        if isinstance(f, (Sup, Inf)) and not IDENT_RE.match(f.var):
            raise FormulaError(f"bad variable name {f.var!r}")
        if not isinstance(f, Atomic):
            continue
        arity = sig.predicates.get(f.pred)
        if arity is None:
            raise UnknownSymbol(f"unknown predicate {f.pred!r} in signature {sig.name}")
        if len(f.args) != arity:
            raise ArityMismatch(f"{f.pred} expects {arity} arguments, got {len(f.args)}")
        for a in f.args:
            for t in subterms(a):
                if isinstance(t, Var) and not IDENT_RE.match(t.name):
                    raise FormulaError(f"bad variable name {t.name!r}")
                if isinstance(t, CConst) and t.index < 1:
                    raise FormulaError("C-constant index must be >= 1")
                if isinstance(t, App):
                    arity = sig.functions.get(t.func)
                    if arity is None:
                        raise UnknownSymbol(
                            f"unknown function {t.func!r} in signature {sig.name}")
                    if len(t.args) != arity:
                        raise ArityMismatch(
                            f"{t.func} expects {arity} arguments, got {len(t.args)}"
                        )
                if isinstance(t, Comb):
                    if not sig.allow_comb:
                        raise UnknownSymbol(
                            f"rounded combinations not available in signature {sig.name}"
                        )
                    if not rounded_bound_ok(t.lam, t.mu):
                        raise RoundedBoundViolation(f"|{t.lam}| + |{t.mu}| > 1")


# ---------------------------------------------------------------------------
# free variables
# ---------------------------------------------------------------------------


def term_vars(t: Term) -> set[str]:
    return {s.name for s in subterms(t) if isinstance(s, Var)}


def free_vars(formula: Formula) -> set[str]:
    if isinstance(formula, Atomic):
        out: set[str] = set()
        for a in formula.args:
            out |= term_vars(a)
        return out
    if isinstance(formula, (Zero, One)):
        return set()
    if isinstance(formula, Half):
        return free_vars(formula.body)
    if isinstance(formula, DotMinus):
        return free_vars(formula.left) | free_vars(formula.right)
    if isinstance(formula, (Sup, Inf)):
        return free_vars(formula.body) - {formula.var}
    raise FormulaError(f"not a formula: {formula!r}")


def constants_of(formula: Formula) -> set[int]:
    """Indices of C-constants occurring in the formula."""
    return {
        t.index
        for f in subformulas(formula) if isinstance(f, Atomic)
        for a in f.args
        for t in subterms(a) if isinstance(t, CConst)
    }


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------


def _subst_term(t: Term, mapping: dict[str, Term]) -> Term:
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if isinstance(t, CConst):
        return t
    if isinstance(t, App):
        return App(t.func, tuple(_subst_term(a, mapping) for a in t.args))
    if isinstance(t, Comb):
        return Comb(t.lam, t.mu, _subst_term(t.left, mapping), _subst_term(t.right, mapping))
    raise FormulaError(f"not a term: {t!r}")


def substitute(formula: Formula, mapping: dict[str, Term]) -> Formula:
    """Capture-avoiding substitution of terms for free variables."""
    if isinstance(formula, Atomic):
        return Atomic(formula.pred, tuple(_subst_term(a, mapping) for a in formula.args))
    if isinstance(formula, (Zero, One)):
        return formula
    if isinstance(formula, Half):
        return Half(substitute(formula.body, mapping))
    if isinstance(formula, DotMinus):
        return DotMinus(
            substitute(formula.left, mapping), substitute(formula.right, mapping)
        )
    if isinstance(formula, (Sup, Inf)):
        inner = {k: v for k, v in mapping.items() if k != formula.var}
        for repl in inner.values():
            if formula.var in term_vars(repl):
                raise FormulaError(
                    f"substitution would capture {formula.var!r}; rename first"
                )
        cls = type(formula)
        return cls(formula.var, substitute(formula.body, inner))
    raise FormulaError(f"not a formula: {formula!r}")


# ---------------------------------------------------------------------------
# prenex normal form
# ---------------------------------------------------------------------------


def prenex_parts(formula: Formula) -> tuple[list[tuple[type, str]], Formula]:
    """Prefix and quantifier-free matrix of the prenex form, in one recursion.

    Each binder is pulled out as it is met, in pre-order with the left operand
    first, and given the next fresh name (v1, v2, ... skipping names free in
    the formula), so pulls never capture and output is reproducible
    byte-for-byte.  Half commutes with both quantifiers; on the left of -.
    quantifiers keep their kind, on the right they flip (sup <-> inf).
    """
    avoid = free_vars(formula)
    names = (name for name in (f"v{i}" for i in count(1)) if name not in avoid)
    prefix: list[tuple[type, str]] = []

    def pull(f: Formula, env: dict[str, Term], flip: bool) -> Formula:
        if isinstance(f, Atomic):
            return Atomic(f.pred, tuple(_subst_term(a, env) for a in f.args))
        if isinstance(f, (Zero, One)):
            return f
        if isinstance(f, Half):
            return Half(pull(f.body, env, flip))
        if isinstance(f, DotMinus):
            return DotMinus(pull(f.left, env, flip), pull(f.right, env, not flip))
        if isinstance(f, (Sup, Inf)):
            new = next(names)
            prefix.append(((Sup if isinstance(f, Inf) else Inf) if flip else type(f), new))
            return pull(f.body, {**env, f.var: Var(new)}, flip)
        raise FormulaError(f"not a formula: {f!r}")

    matrix = pull(formula, {}, False)
    return prefix, matrix


def prenex(formula: Formula) -> Formula:
    """Equivalent prenex form: the prefix of `prenex_parts` wrapped around
    its matrix."""
    prefix, out = prenex_parts(formula)
    for kind, var in reversed(prefix):
        out = kind(var, out)
    return out


def is_quantifier_free(formula: Formula) -> bool:
    return not any(isinstance(f, (Sup, Inf)) for f in subformulas(formula))


def prefix_of(formula: Formula) -> tuple[list[tuple[type, str]], Formula]:
    """Outer quantifier prefix and matrix of a prenex formula.

    Raises NotPrenex when a quantifier occurs below a connective.
    """
    prefix: list[tuple[type, str]] = []
    f = formula
    while isinstance(f, (Sup, Inf)):
        prefix.append((type(f), f.var))
        f = f.body
    if not is_quantifier_free(f):
        raise NotPrenex("quantifier below a connective")
    return prefix, f


def classify_prefix(formula: Formula) -> str:
    """Alternation-block class of a prenex formula (merged like quantifiers),
    as text matching PREFIX_CLASS_RE."""
    prefix, _ = prefix_of(formula)
    if not prefix:
        return "qf"
    blocks = 1
    for (k1, _), (k2, _) in zip(prefix, prefix[1:]):
        if k1 is not k2:
            blocks += 1
    return f"{'forall' if prefix[0][0] is Sup else 'exists'}{blocks}"

"""Budget-bounded evaluation of restricted sentences over presentations.

Quantifier-free sentences evaluate to sound rational intervals whose width is
controlled by the oracle precision.  Quantified sentences sweep rational
points up to a budget: a sup block certifies only a lower bound (sampled
points lie in the unit ball, so any sampled value is a witness), an inf block
only an upper bound, and alternations thin the certified sides out
accordingly; the other side is reported as an uncertified estimate.  This
one-sidedness is not an implementation shortcut: without density rates for
the rational points no finite sweep can certify the missing side.  One call
computes each atom and term of the prenex matrix once per assignment of the
variables it mentions, asks the oracle once per distinct atom (predicate and
argument objects), and keeps nothing after it returns.  Inside the sweep an
interval is a pair of integer numerator/denominator pairs, left unreduced and
compared by cross-multiplication; Fractions appear only in the `EvalResult`.

`TestStructure` is a finite exact-table metric structure with an exhaustive
evaluator (`eval_exact`) used as the oracle for prenex equivalence and for
soundness of the budgeted evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional

from . import formulas as F
from .coding import NotACode, decode_full
from .gaussian import ContlogicError
from .presentations import Presentation, TWO_SIDED

Interval = tuple[Fraction, Fraction]


class EvalError(ContlogicError):
    pass


class UnboundConstant(EvalError):
    pass


class WrongPrefixClass(EvalError):
    pass


@dataclass(frozen=True)
class EvalBudget:
    """Point cutoff per quantifier, oracle precision, LowerOnly search depth."""

    points: int = 8
    precision_k: int = 10
    oracle_budget: Optional[int] = None  # LowerOnly norm search depth

    def __post_init__(self):
        if self.points < 1 or self.precision_k < 0:
            raise ValueError("budget needs points >= 1 and precision_k >= 0")
        if self.oracle_budget is not None and self.oracle_budget < 1:
            raise ValueError(f"oracle budget must be >= 1, got {self.oracle_budget}")


@dataclass(frozen=True)
class EvalResult:
    certified_lower: Optional[Fraction]
    certified_upper: Optional[Fraction]
    estimate: Fraction
    witnesses: dict
    slack: Fraction

    def __post_init__(self):
        if self.certified_lower is not None and self.certified_upper is not None:
            if not self.certified_lower <= self.estimate <= self.certified_upper:
                raise _out_of_order(self.certified_lower, self.estimate, self.certified_upper)


def _out_of_order(lower, estimate, upper) -> EvalError:
    return EvalError(f"certified bounds out of order: {lower} <= {estimate} <= {upper} fails")


# ---------------------------------------------------------------------------
# finite exact test structures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestStructure:
    """Finite metric space with exact rational distances in [0,1].

    Quantifiers range over the whole point set; C-constants c_i are bound to
    point (i-1) mod size unless overridden.  Metric axioms are checked
    exactly at construction.
    """

    distances: tuple[tuple[Fraction, ...], ...]
    constants: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.distances)
        if any(len(row) != n for row in self.distances):
            raise ValueError("distance table must be square")
        # checked on the integer numerators over one common denominator
        rows = [[x if type(x) is Fraction else Fraction(x) for x in row]
                for row in self.distances]
        den = lcm(*(x.denominator for row in rows for x in row))
        table = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
        for i, row in enumerate(table):
            if row[i] != 0:
                raise ValueError("d(x,x) must be 0")
            for j, dij in enumerate(row):
                if not (0 <= dij <= den):
                    raise ValueError("distances must lie in [0,1]")
                if dij != table[j][i]:
                    raise ValueError("distance table must be symmetric")
                if any(dik > dij + djk for dik, djk in zip(row, table[j])):
                    raise ValueError("triangle inequality violated")

    @property
    def size(self) -> int:
        return len(self.distances)

    def constant_point(self, index: int) -> int:
        if index in self.constants:
            return self.constants[index]
        return (index - 1) % self.size

    def d(self, i: int, j: int) -> Fraction:
        return self.distances[i][j]


def eval_exact(formula: F.Formula, structure: TestStructure,
               env: Optional[dict] = None) -> Fraction:
    """Exact value by exhaustive quantification over the finite point set."""
    env = env or {}

    def term_point(t: F.Term) -> int:
        if isinstance(t, F.Var):
            if t.name not in env:
                raise EvalError(f"unbound variable {t.name!r}")
            return env[t.name]
        if isinstance(t, F.CConst):
            return structure.constant_point(t.index)
        raise EvalError(f"metric test structures have no term {t!r}")

    if isinstance(formula, F.Atomic):
        if formula.pred != "d":
            raise EvalError(f"unknown predicate {formula.pred!r}")
        return structure.d(term_point(formula.args[0]), term_point(formula.args[1]))
    if isinstance(formula, F.Zero):
        return Fraction(0)
    if isinstance(formula, F.One):
        return Fraction(1)
    if isinstance(formula, F.Half):
        return eval_exact(formula.body, structure, env) / 2
    if isinstance(formula, F.DotMinus):
        return F.dot_minus_value(
            eval_exact(formula.left, structure, env),
            eval_exact(formula.right, structure, env),
        )
    if isinstance(formula, (F.Sup, F.Inf)):
        values = [eval_exact(formula.body, structure, {**env, formula.var: p})
                  for p in range(structure.size)]
        return max(values) if isinstance(formula, F.Sup) else min(values)
    raise EvalError(f"not a formula: {formula!r}")


class TestStructurePresentation(Presentation):
    """A TestStructure as a TwoSided metric presentation with an exact oracle.

    Points are enumerated cyclically (rational point i = point i mod size);
    the metric signature has no function symbols, so rational points are
    exactly the special points.
    """

    mode = TWO_SIDED

    def __init__(self, structure: TestStructure):
        super().__init__()
        self.structure = structure
        self.signature = F.METRIC
        self.name = f"test({structure.size})"

    def _special(self, index: int):
        return index % self.structure.size

    def default_constant_point(self, index: int):
        return self.structure.constant_point(index)

    def atom_interval(self, pred, objs, k, budget=None):
        if pred != "d":
            raise EvalError(f"unknown predicate {pred!r}")
        value = self.structure.d(objs[0], objs[1])
        return (value, value)


# ---------------------------------------------------------------------------
# budget-bounded evaluation over presentations
# ---------------------------------------------------------------------------


class _Evaluation:
    """One call's evaluation state for the matrix of a prenexed formula.

    `env` binds each swept variable to (point index, point object).  Every
    atom and every term but a variable gets a slot, shared by value-equal
    nodes, and the variables it mentions; `value` computes a node once per
    assignment of those variables and keeps the result in `memo`, which
    hashes only point indices.  Behind it, `atoms` keys each oracle interval
    by (predicate, argument objects), so atoms whose arguments evaluate to
    equal objects (most often the zero object, which many points give) query
    the oracle once.  Precision and oracle budget are fixed per call, so
    neither key holds them; both memos die with the call.
    """

    def __init__(self, formula: F.Formula, pres: Presentation, k: int, bindings: dict,
                 budget: Optional[int]):
        self.prefix, self.matrix = F.prenex_parts(formula)
        self.pres, self.k, self.bindings, self.budget = pres, k, bindings, budget
        self.env: dict[str, tuple[int, object]] = {}
        self.memo: dict = {}
        self.atoms: dict = {}
        self.plan: dict[int, tuple[int, tuple[str, ...]]] = {}
        atoms = [f for f in F.subformulas(self.matrix) if isinstance(f, F.Atomic)]
        terms = [t for f in atoms for a in f.args for t in F.subterms(a)
                 if not isinstance(t, F.Var)]
        slots: dict = {}  # plan keys are ids: self.matrix keeps every node alive
        for node in atoms + terms:
            mentioned = F.free_vars(node) if isinstance(node, F.Atomic) else F.term_vars(node)
            self.plan[id(node)] = (slots.setdefault(node, len(slots)),
                                   tuple(v for _, v in self.prefix if v in mentioned))

    def value(self, node, compute):
        slot, names = self.plan[id(node)]
        key = (slot, tuple([self.env[v][0] for v in names]))
        out = self.memo.get(key)
        if out is None:
            out = self.memo[key] = compute(node, self)
        return out


def _term_object(term: F.Term, m: _Evaluation):
    if isinstance(term, F.Var):
        if term.name not in m.env:
            raise EvalError(f"unbound variable {term.name!r}")
        return m.env[term.name][1]
    return m.value(term, _build_term)


def _build_term(term: F.Term, m: _Evaluation):
    pres = m.pres
    if isinstance(term, F.CConst):
        point = m.bindings.get(term.index)
        if point is None:
            point = pres.default_constant_point(term.index)
        if point is None:
            raise UnboundConstant(f"constant c{term.index} is not bound to a point")
        return pres.point_object(point)
    if isinstance(term, F.App):
        args = [_term_object(a, m) for a in term.args]
        if term.func == "adj":
            return args[0].adjoint()
        if term.func == "mul":
            return args[0] * args[1]
        raise EvalError(f"unknown function {term.func!r}")
    if isinstance(term, F.Comb):
        left = _term_object(term.left, m)
        right = _term_object(term.right, m)
        return left.comb(term.lam, term.mu, right)
    raise EvalError(f"not a term: {term!r}")


def _atom_interval(formula: F.Atomic, m: _Evaluation) -> tuple[int, int, int, int]:
    objs = [_term_object(t, m) for t in formula.args]
    key = (formula.pred, *objs)
    out = m.atoms.get(key)
    if out is None:
        lo, hi = m.pres.atom_interval(formula.pred, objs, m.k, budget=m.budget)
        out = m.atoms[key] = (lo.numerator, lo.denominator, hi.numerator, hi.denominator)
    return out


def _interval_qf(formula: F.Formula, m: _Evaluation) -> tuple[int, int, int, int]:
    """(lo_num, lo_den, hi_num, hi_den) with positive, unreduced denominators."""
    if isinstance(formula, F.Atomic):
        return m.value(formula, _atom_interval)
    if isinstance(formula, F.Zero):
        return (0, 1, 0, 1)
    if isinstance(formula, F.One):
        return (1, 1, 1, 1)
    if isinstance(formula, F.Half):
        ln, ld, hn, hd = _interval_qf(formula.body, m)
        return (ln, 2 * ld, hn, 2 * hd)
    if isinstance(formula, F.DotMinus):
        aln, ald, ahn, ahd = _interval_qf(formula.left, m)
        bln, bld, bhn, bhd = _interval_qf(formula.right, m)
        # [max(alo - bhi, 0), max(ahi - blo, 0)]
        return (max(aln * bhd - bhn * ald, 0), ald * bhd, max(ahn * bld - bln * ahd, 0), ahd * bld)
    raise EvalError("quantifier below a connective in a qf evaluation")


def _beats(a: tuple[int, int], b: tuple[int, int], is_sup: bool) -> bool:
    """a > b (sup) or a < b (inf) on (num, den) pairs with positive den."""
    x, y = a[0] * b[1], b[0] * a[1]
    return x > y if is_sup else x < y


def eval_sentence(formula: F.Formula, pres: Presentation, budget: EvalBudget,
                  bindings: Optional[dict] = None) -> EvalResult:
    """Budget-bounded evaluation of a closed sentence (prenexed first).

    Certified sides follow the quantifier pattern: sampled sup blocks
    propagate lower bounds, sampled inf blocks upper bounds; a side that
    would need density rates of the rational-point enumeration is left
    uncertified and only the deterministic estimate is reported.  Every
    quantifier sweeps the same points, whose objects are built once.  Atoms
    are memoised for the call at two levels (see `_Evaluation`): per
    assignment of their variables, then per (predicate, argument objects).
    """
    if F.free_vars(formula):
        raise EvalError("eval needs a closed sentence")
    m = _Evaluation(formula, pres, budget.precision_k, bindings or {}, budget.oracle_budget)
    objects: list = []

    # a branch is (lower, upper, estimate, slack, witnesses): (num, den) pairs,
    # None for an uncertified side, witnesses a chain of (position, index)
    def sweep(position: int):
        if position == len(m.prefix):
            ln, ld, hn, hd = _interval_qf(m.matrix, m)
            lo, hi, den = ln * hd, hn * ld, ld * hd
            if lo > hi:
                raise _out_of_order(Fraction(ln, ld), Fraction(lo + hi, 2 * den), Fraction(hn, hd))
            return ((ln, ld), (hn, hd), (lo + hi, 2 * den), (hi - lo, den), ())
        kind, var = m.prefix[position]
        is_sup = kind is F.Sup
        side = 0 if is_sup else 1
        bound_at = estimate_at = None  # (index, branch), the first attaining each
        slack = (0, 1)
        for i in range(budget.points):
            if i == len(objects):
                objects.append(pres.point_object(pres.rational_point(i)))
            m.env[var] = (i, objects[i])
            branch = sweep(position + 1)
            if branch[side] is not None and (
                    bound_at is None or _beats(branch[side], bound_at[1][side], is_sup)):
                bound_at = (i, branch)
            if estimate_at is None or _beats(branch[2], estimate_at[1][2], is_sup):
                estimate_at = (i, branch)
            if _beats(branch[3], slack, True):
                slack = branch[3]
        # the witness names the branch attaining the certified bound, so
        # pinning reproduces the bound; without one it tracks the estimate.
        # The best estimate never falls short of the bound: a leaf has
        # lo <= estimate <= hi, and a certified side survives only through
        # blocks of its own kind
        index, best = estimate_at if bound_at is None else bound_at
        bound = None if bound_at is None else best[side]
        return ((bound, None) if is_sup else (None, bound)) + (
            estimate_at[1][2], slack, ((position, index),) + best[4])

    lower, upper, estimate, slack, witnesses = sweep(0)
    lower, upper = (None if q is None else Fraction(*q) for q in (lower, upper))
    return EvalResult(lower, upper, Fraction(*estimate), dict(witnesses), Fraction(*slack))


# ---------------------------------------------------------------------------
# hierarchy classifier
# ---------------------------------------------------------------------------

_LABELS = {"le": "Π_{}^d", "lt": "Σ_{}^d", "ge": "Π_{}^d", "gt": "Σ_{}^d"}
_SHIFT = {"le": 0, "lt": 1, "ge": 1, "gt": 0}
RELATION_NAMES = {"<": "lt", "<=": "le", ">": "gt", ">=": "ge"}


def classify_prefix_level(prefix_class: F.PrefixClass, relation: str, n: int) -> str:
    """Complexity label for {sentence value `relation` r} over forall_{2n}
    sentences: <= gives Pi_n, < gives Sigma_{n+1}, >= gives Pi_{n+1},
    > gives Sigma_n (all relative to the presentation oracle degree d)."""
    relation = RELATION_NAMES.get(relation, relation)
    if relation not in _LABELS:
        raise ValueError(f"unknown relation {relation!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    blocks = 2 * n
    ok = prefix_class.kind == "qf" or (
        prefix_class.kind == "forall" and prefix_class.blocks <= blocks
    ) or (prefix_class.kind == "exists" and prefix_class.blocks <= blocks - 1)
    if not ok:
        raise WrongPrefixClass(
            f"{prefix_class} is not a forall_{blocks} prefix"
        )
    return _LABELS[relation].format(n + _SHIFT[relation])


def classify(code: int, relation: str, n: int) -> str:
    """Label for a coded prenex forall_{2n} sentence (see classify_prefix_level)."""
    try:
        _, formula = decode_full(code)
    except NotACode as exc:
        raise WrongPrefixClass(f"{code} is not a sentence code") from exc
    if F.free_vars(formula):
        raise WrongPrefixClass("code must be a sentence")
    return classify_prefix_level(F.classify_prefix(formula), relation, n)

"""Budget-bounded evaluation of restricted sentences over presentations.

Quantifier-free sentences evaluate to sound rational intervals whose width is
controlled by the oracle precision.  Quantified sentences sweep rational
points up to a budget: a sup block certifies only a lower bound (sampled
points lie in the unit ball, so any sampled value is a witness), an inf block
only an upper bound, and alternations thin the certified sides out
accordingly; the other side is reported as an uncertified estimate.  This
one-sidedness is not an implementation shortcut: without density rates for
the rational points no finite sweep can certify the missing side.  One call
compiles the prenex matrix once into closures over a list of point indices,
one per prefix position; it computes each atom and term once per assignment
of the variables it mentions (a variable reads the presentation's cache of
point objects), asks the oracle once per distinct atom (predicate and
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
from .presentations import Presentation

Interval = tuple[Fraction, Fraction]


class EvalError(ContlogicError):
    pass


class UnboundConstant(EvalError):
    pass


class WrongPrefixClass(EvalError):
    pass


class SweepTooLarge(EvalError):
    pass


# points^quantifiers leaves times the matrix's atoms and connectives a sweep
# may visit: about 0.85 us each for a lone atom and 0.3 us in longer matrices
# (2 vCPUs, CPython 3.11), so about 7 s and 2.5 s at the cap
SWEEP_LEAVES_MAX = 2 ** 23


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
    """One call's evaluation state: the prenex matrix compiled into closures.

    Set-up compiles the matrix once, bottom-up, into closures that read
    `env`, a list binding each prefix position to its point's index, and
    gives each atom and term the sorted positions of its variables and a
    memo slot keyed by one int: the mixed-radix number, base `points`, of
    those variables' indices.  So a node is computed once per assignment of
    its own variables.  Value-equal nodes share a slot; a variable keeps
    none, and reads its point's object from the presentation, which builds
    it once, when an atom first asks, and keeps it by index.  Behind the
    slots, `atoms` keys each oracle interval by (predicate, argument
    objects), so atoms whose arguments evaluate to equal objects (most often
    the zero object, which many points give) query the oracle once.
    Precision and oracle budget are fixed per call, so no key holds them;
    every memo dies with the call.
    """

    def __init__(self, formula: F.Formula, pres: Presentation, budget: EvalBudget,
                 bindings: dict):
        self.prefix, matrix = F.prenex_parts(formula)
        self.env = env = [0] * len(self.prefix)
        position = {var: p for p, (_, var) in enumerate(self.prefix)}
        radix, k, oracle_budget = budget.points, budget.precision_k, budget.oracle_budget
        point_object = pres.point_object
        atoms: dict = {}
        compiled: dict = {}  # node -> (getter, positions), shared by value-equal nodes

        def slot(compute, places, memo):
            def get():
                key = 0
                for p in places:
                    key = key * radix + env[p]
                out = memo.get(key)
                if out is None:
                    out = memo[key] = compute()
                return out
            return get

        def build(node):  # an atom or a term: its slot's getter and sorted positions
            if isinstance(node, F.Var):  # the sentence is closed, so prenex binds it
                p = position[node.name]  # no slot: the presentation keeps objects by index
                return (lambda: point_object(env[p])), (p,)
            out = compiled.get(node)
            if out is not None:
                return out
            parts = [build(t) for t in ((node.left, node.right) if isinstance(node, F.Comb)
                                        else getattr(node, "args", ()))]
            args = [fn for fn, _ in parts]
            places = tuple(sorted({p for _, ps in parts for p in ps}))
            if isinstance(node, F.Atomic):
                def compute():
                    objs = [arg() for arg in args]
                    key = (node.pred, *objs)
                    out = atoms.get(key)
                    if out is None:
                        lo, hi = pres.atom_interval(node.pred, objs, k, budget=oracle_budget)
                        out = atoms[key] = (lo.numerator, lo.denominator,
                                            hi.numerator, hi.denominator)
                    return out
            elif isinstance(node, F.CConst):
                def compute():
                    point = bindings.get(node.index)
                    if point is None:
                        point = pres.default_constant_point(node.index)
                    if point is None:
                        raise UnboundConstant(f"constant c{node.index} is not bound to a point")
                    return point_object(point)
            elif isinstance(node, F.App) and node.func in ("adj", "mul"):
                compute = ((lambda: args[0]().adjoint()) if node.func == "adj" else
                           (lambda: args[0]() * args[1]()))
            elif isinstance(node, F.Comb):
                compute = lambda: args[0]().comb(node.lam, node.mu, args[1]())
            else:
                raise EvalError(f"not a term: {node!r}")
            out = compiled[node] = (slot(compute, places, {}), places)
            return out

        def qf(f):  # a connective is computed at every leaf and keeps no slot
            if isinstance(f, F.Atomic):
                return build(f)[0]
            if isinstance(f, (F.Zero, F.One)):
                value = int(isinstance(f, F.One))
                return lambda: (value, 1, value, 1)
            if isinstance(f, F.Half):
                body = qf(f.body)

                def half():
                    ln, ld, hn, hd = body()
                    return (ln, 2 * ld, hn, 2 * hd)
                return half
            if isinstance(f, F.DotMinus):
                left, right = qf(f.left), qf(f.right)

                def dot_minus():  # [max(alo - bhi, 0), max(ahi - blo, 0)]
                    aln, ald, ahn, ahd = left()
                    bln, bld, bhn, bhd = right()
                    return (max(aln * bhd - bhn * ald, 0), ald * bhd,
                            max(ahn * bld - bln * ahd, 0), ahd * bld)
                return dot_minus
            raise EvalError("quantifier below a connective in a qf evaluation")

        self.leaf = qf(matrix)
        self.width = sum(1 for _ in F.subformulas(matrix))  # atoms and connectives


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
    quantifier sweeps the same points, whose objects the presentation builds
    once, when an atom first reads them, and keeps by index.  The matrix is
    compiled once per call and its atoms memoised at two levels (see
    `_Evaluation`): per assignment of their variables, then per (predicate,
    argument objects).  A sweep whose leaves (points^quantifiers) times the
    matrix's atoms and connectives pass SWEEP_LEAVES_MAX is refused before
    any object is built.
    """
    if F.free_vars(formula):
        raise EvalError("eval needs a closed sentence")
    m = _Evaluation(formula, pres, budget, bindings or {})
    # leaves * width > MAX exactly when leaves > MAX // width, and points >= 2
    # passes that within MAX's bit length of quantifiers
    cap = SWEEP_LEAVES_MAX // m.width
    if budget.points ** min(len(m.prefix), SWEEP_LEAVES_MAX.bit_length()) > cap:
        matrix = f" of a matrix of {m.width} atoms and connectives" if m.width > 1 else ""
        raise SweepTooLarge(f"{budget.points} points over {len(m.prefix)} quantifiers "
                            f"sweep more than {cap} leaves{matrix}")
    env, leaf = m.env, m.leaf

    # a branch is (lower, upper, estimate, slack, witnesses): (num, den) pairs,
    # None for an uncertified side, witnesses a chain of (position, index)
    def sweep(position: int):
        if position == len(env):
            ln, ld, hn, hd = leaf()
            lo, hi, den = ln * hd, hn * ld, ld * hd
            if lo > hi:
                raise _out_of_order(Fraction(ln, ld), Fraction(lo + hi, 2 * den), Fraction(hn, hd))
            return ((ln, ld), (hn, hd), (lo + hi, 2 * den), (hi - lo, den), ())
        is_sup = m.prefix[position][0] is F.Sup
        side = 0 if is_sup else 1
        bound_at = estimate_at = None  # (index, branch), the first attaining each
        slack = (0, 1)
        for i in range(budget.points):
            env[position] = i
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


def classify_prefix_level(prefix_class: str, relation: str, n: int) -> str:
    """Complexity label for {sentence value `relation` r} over forall_{2n}
    sentences, given the prefix class text ("qf", "forallN" or "existsN"):
    <= gives Pi_n, < gives Sigma_{n+1}, >= gives Pi_{n+1}, > gives Sigma_n
    (all relative to the presentation oracle degree d)."""
    relation = RELATION_NAMES.get(relation, relation)
    if relation not in _LABELS:
        raise ValueError(f"unknown relation {relation!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    match = F.PREFIX_CLASS_RE.fullmatch(prefix_class)
    if not match:
        raise WrongPrefixClass(f"{prefix_class!r} is not a prefix class")
    blocks = 2 * n
    quantifier, count = match.groups()
    if quantifier and int(count) > blocks - (quantifier == "exists"):
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

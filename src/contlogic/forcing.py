"""Finite forcing over the decidable theory of [0,1]-bounded metric spaces.

Conditions are finite satisfiable sets of strict bounds (phi < r) on
quantifier-free metric sentences over the fresh constants c1, c2, ...; their
piecewise-linear structure reduces every semantic question here to exact
rational linear feasibility (one LP per truncated-subtraction branch).  On
top of that sit the two-player game engine with pluggable strategies, the
deterministic compiler from transcripts to finite rational metric spaces, and
the forcing checks, each on one instance of its question (`_instance`):

  - `forces_sup_leq` asks the limit LP first (`_above`: p's items, all
    strict, plus the instance of psi above r), whose margin optimum is
    positive iff some model of the condition carries a point with psi > r:
    a YES is that one LP, a certificate, not a timeout.  A NO sweeps the
    granularity-sliced hypothesis family of the condition (each member
    max_i(phi_i -. s_i), s_i on the dyadic grid below r_i) for a
    one-point-extension countermodel to serve as its witness.
  - `fp_estimate` brackets the forcing value F_p(phi) = inf{r : p forces
    phi < r}: where that is decidable (quantifier-free matrices and leading
    sup blocks) by one LP optimum per branch combination (`_sup_value`),
    certified one-sided instance bounds for inf blocks, unknown where only
    exhaustion over all extensions would do.

A condition keeps its margin verdict per solver instance, so a game solves
each condition at most once, exists moves certified by a model: a move that
holds strictly at the previous condition's margin point is a condition
without an LP of its own.  Compilation lex-minimizes the distances on one
tableau per branch alternative.  The engine is written against this decidable
instance; plugging in a theory whose condition set is only semi-decidable
means replacing the LP oracle.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import ceil, prod
from typing import Callable, Iterator, Optional

from . import coding
from . import formulas as F
from .dyadic import is_dyadic
from .evaluator import TestStructure, eval_exact
from .feasibility import OPTIMAL, LPResult, Row, lex_minimize_rows, maximize_rows
from .formulas import METRIC
from .gaussian import ContlogicError
from .pairing import decode_list, encode_list


class ForcingError(ContlogicError):
    pass


class NonMetricSignature(ForcingError):
    pass


class BadItem(ForcingError):
    """An item that is not a quantifier-free metric sentence under a positive
    dyadic bound, or a pre-condition code that is not its condition's code."""


class BranchOverflow(ForcingError):
    pass


class IllegalMove(ForcingError):
    def __init__(self, player: str, reason: str):
        super().__init__(f"illegal move by {player}: {reason}")
        self.player = player
        self.reason = reason


class Infeasible(ForcingError):
    pass


# ---------------------------------------------------------------------------
# conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Condition:
    """A finite set of strict bounds {phi < r}, canonically sorted.

    `keys` holds (Goedel code of phi, r) for each item, in the same order: the
    sort key, kept so that only new items are ever validated and encoded.
    `by_key` maps each key to its formula and `key_set` holds the keys; both
    are built from containers that keep the keys' hashes, so `extend` and
    `extends` hash only keys not seen before.  `mentioned` holds the
    constants of every item, likewise filled from new items only.  `verdicts`
    holds the margin verdict per MetricInstance, solved on first request
    (see `_margin_verdict`).  `code` and `from_code` are the codec of
    pre-condition codes (docs/encodings.md), over the Elias-delta `coding.pair`:

      precondition = pair(len, fold of pair over items), items sorted, each item
                     pair(sentence_code, pair(num-1, exp)) for num/2^exp in lowest terms
    """

    items: tuple[tuple[F.Formula, Fraction], ...]
    keys: tuple[tuple[int, Fraction], ...] = field(compare=False, repr=False)
    mentioned: frozenset[int] = field(compare=False, repr=False)
    by_key: dict = field(compare=False, repr=False)
    key_set: frozenset = field(compare=False, repr=False)
    verdicts: dict = field(default_factory=dict, compare=False, repr=False)

    @staticmethod
    def of(items) -> "Condition":
        return Condition.empty().extend(items)

    @staticmethod
    def empty() -> "Condition":
        return Condition((), (), frozenset(), {}, frozenset())

    def extend(self, items) -> "Condition":
        # the code determines the formula, so (code, r) identifies an item
        by_key = self.by_key.copy()
        mentioned = set(self.mentioned)
        for formula, bound in items:
            bound = Fraction(bound)
            code = coding.encode(formula, METRIC)  # validates the formula
            if not F.is_quantifier_free(formula):
                raise BadItem("condition formulas must be quantifier-free")
            if F.free_vars(formula):
                raise BadItem("condition formulas must be sentences")
            if bound <= 0 or not is_dyadic(bound):
                raise BadItem(f"bound must be a positive dyadic, got {bound}")
            by_key[code, bound] = formula
            mentioned |= F.constants_of(formula)
        if len(by_key) == len(self.keys):
            return self  # nothing new, so its verdicts still hold
        ordered = sorted(by_key.items())  # keys are distinct: formulas are never compared
        return Condition(tuple((f, k[1]) for k, f in ordered), tuple(k for k, _ in ordered),
                         frozenset(mentioned), by_key, frozenset(by_key))

    def extends(self, other: "Condition") -> bool:
        return other.key_set <= self.key_set

    def constants(self) -> list[int]:
        return sorted(self.mentioned)

    def code(self) -> int:
        # the keys are sorted and checked already, so nothing is decoded
        heads = [coding.pair(k, coding.pair(r.numerator - 1, r.denominator.bit_length() - 1))
                 for k, r in self.keys]
        return coding.pair(len(heads), encode_list(heads, coding.pair))

    @staticmethod
    def from_code(code: int) -> "Condition":
        """The condition whose `code()` is `code`: each item is read once and
        goes through `extend`, and the one check that the condition codes back
        covers item count, order, repeats and lowest terms (BadItem)."""
        length, body = coding.unpair(code)
        heads = decode_list(body, coding.unpair)[:length]
        condition = Condition.of(_read_item(head) for head in heads)
        if condition.code() != code:
            raise BadItem("not a canonical pre-condition code: the item count, "
                          "order or a bound's lowest terms differ")
        return condition


BOUND_EXP_MAX = 1 << 20  # bounds num/2^e in a pre-condition code: e above it is refused


def _read_item(head: int) -> tuple[F.Formula, Fraction]:
    """One pre-condition item: a formula coded over metric, and its bound."""
    k, bound = coding.unpair(head)
    try:
        sig, formula = coding.decode_full(k)
    except coding.NotACode as exc:
        raise BadItem(f"item code {k} is not a formula: {exc}") from None
    if sig is not METRIC:
        raise BadItem(f"item code {k} is a formula over {sig.name}, not metric")
    num, e = coding.unpair(bound)
    if e > BOUND_EXP_MAX:
        raise BadItem(f"bound exponent {e} exceeds {BOUND_EXP_MAX}")
    return formula, Fraction(num + 1, 1 << e)


@dataclass(frozen=True)
class Transcript:
    """Alternating chain of conditions; the universal player moves first."""

    moves: tuple[tuple[str, Condition], ...] = ()

    def last(self) -> Condition:
        return self.moves[-1][1] if self.moves else Condition.empty()


SWEEP_CAP = 256  # hypothesis-slice members `forces_sup_leq` tests before the limit LP


@dataclass(frozen=True)
class MetricInstance:
    """Solver configuration for the bounded-metric base theory."""

    branch_cap: int = 4096


# ---------------------------------------------------------------------------
# linear compilation of quantifier-free metric sentences
# ---------------------------------------------------------------------------


def _pair_var(i: int, j: int) -> str:
    a, b = min(i, j), max(i, j)
    return f"d_{a}_{b}"


def _term_const(term: F.Term) -> int:
    if isinstance(term, F.CConst):
        return term.index
    raise NonMetricSignature(f"metric conditions allow only constants, got {term!r}")


EPS = "__eps__"
R = "__r__"  # the threshold column of `_sup_value`

# A bound is an integer affine form (coeffs, const, den): the value
# (sum coeffs[v]*v + const)/den over the pair variables d_*, the branch
# variables z_*, the margin EPS and the threshold R.  Rows share its den.
Form = tuple[dict[str, int], int, int]


def _leaf_row(formula: F.Formula, bound: Form, sign: int) -> Optional[Row]:
    """The row sign*(value - bound) <= 0 for an atom, Zero or One, else None."""
    if isinstance(formula, F.Atomic):
        i, j = (_term_const(t) for t in formula.args)
        var, k = (None if i == j else _pair_var(i, j)), 0
    elif isinstance(formula, (F.Zero, F.One)):
        var, k = None, (1 if isinstance(formula, F.One) else 0)
    else:
        return None
    coeffs, const, den = bound
    row = {v: -sign * c for v, c in coeffs.items()}
    if var:
        row[var] = sign * den
    return row, sign * (const - k * den), den


def _alternatives(formula: F.Formula, bound: Form, sign: int,
                  fresh: list[int]) -> list[list[Row]]:
    """Disjunctive row sets equivalent to value(formula) <= bound (sign 1)
    or value(formula) >= bound (sign -1).

    Upper-side constraints on max(l - r, 0) split into l - r <= bound and
    0 <= bound, so positive polarity never branches; the lower value of the
    right operand is carried by a fresh nonnegative variable z, which enters
    the bound with the bound's denominator as coefficient.  Branching happens
    only where a truncated subtraction must be bounded from below: either
    bound <= 0, or l - r >= bound.
    """
    row = _leaf_row(formula, bound, sign)
    if row is not None:
        return [[row]]
    coeffs, const, den = bound
    if isinstance(formula, F.Half):
        doubled = ({v: 2 * c for v, c in coeffs.items()}, 2 * const, den)
        return _alternatives(formula.body, doubled, sign, fresh)
    if not isinstance(formula, F.DotMinus):
        raise ForcingError("quantifier in a qf compilation")
    zero = _leaf_row(F.Zero(), bound, sign)
    fresh[0] += 1
    z = f"z_{fresh[0]}"
    left_alts = _alternatives(formula.left, ({**coeffs, z: den}, const, den), sign, fresh)
    right_alts = _alternatives(formula.right, ({z: 1}, 0, 1), -sign, fresh)
    combos = [la + ra for la in left_alts for ra in right_alts]
    return [[zero] + c for c in combos] if sign > 0 else [[zero]] + combos


@lru_cache(maxsize=32)
def _metric_axioms(constants: tuple[int, ...]) -> tuple[Row, ...]:
    """d <= 1 per pair, then the triangle inequalities; shared by every
    caller, so never mutated."""
    out: list[Row] = []
    for idx, i in enumerate(constants):
        for j in constants[idx + 1:]:
            out.append(({_pair_var(i, j): 1}, 1, 1))
    for i in constants:
        for j in constants:
            for k in constants:
                if i < k and j != i and j != k:
                    out.append(({_pair_var(i, k): 1, _pair_var(i, j): -1,
                                 _pair_var(j, k): -1}, 0, 1))
    return tuple(out)


@dataclass(frozen=True)
class SystemVerdict:
    satisfiable: bool
    margin: Fraction
    point: Optional[dict]  # pair var -> value, on the satisfiable side


@dataclass(frozen=True)
class BoundSystem:
    """phi <= r / phi < r / phi >= r / phi > r items over metric models."""

    le: tuple = ()  # (formula, Fraction, or a Form taken as it is) nonstrict upper bounds
    lt: tuple = ()  # strict upper bounds
    ge: tuple = ()  # nonstrict lower bounds
    gt: tuple = ()  # strict lower bounds


def _system_alternatives(system: BoundSystem,
                         inst: MetricInstance) -> list[list[Row]]:
    fresh = [0]
    per_item: list[list[list[Row]]] = []
    for group, sign, eps in ((system.le, 1, 0), (system.lt, 1, -1),
                             (system.ge, -1, 0), (system.gt, -1, 1)):
        for formula, bound in group:
            if not isinstance(bound, tuple):
                q = Fraction(bound)
                bound = ({EPS: eps * q.denominator} if eps else {}, q.numerator, q.denominator)
            per_item.append(_alternatives(formula, bound, sign, fresh))
    if prod(map(len, per_item)) > inst.branch_cap:
        raise BranchOverflow(f"more than {inst.branch_cap} branch combinations")
    return [[row for alt in combo for row in alt] for combo in itertools.product(*per_item)]


def _branch_lps(system: BoundSystem, constants: list[int],
                inst: MetricInstance) -> Iterator[tuple[list[Row], LPResult]]:
    """Each branch combination's rows, metric axioms and eps <= 1 included,
    with its margin LP (maximize eps), lazily and in order."""
    base = _metric_axioms(tuple(sorted(set(constants))))
    cap_row = ({EPS: 1}, 1, 1)  # eps <= 1
    for alt in _system_alternatives(system, inst):
        rows = [*base, *alt, cap_row]
        yield rows, maximize_rows({EPS: 1}, rows)


def _solve_system(system: BoundSystem, constants: list[int],
                  inst: MetricInstance) -> SystemVerdict:
    """Decide satisfiability over [0,1]-metric assignments, exactly.

    Strict bounds are tightened by a shared margin variable; the system has a
    model iff some branch combination admits a positive margin.  The witness
    point is the margin-maximal assignment of the first such combination.
    `constants` must hold every constant the system mentions; each caller
    has them already, so the system is not walked for them again.
    """
    for _, result in _branch_lps(system, constants, inst):
        if result.status == OPTIMAL and result.value > 0:
            point = {k: v for k, v in result.point.items() if k.startswith("d_")}
            return SystemVerdict(True, result.value, point)
    return SystemVerdict(False, Fraction(0), None)


def _margin_verdict(p: Condition, inst: MetricInstance) -> SystemVerdict:
    """The margin verdict of p under inst, solved once and kept on p."""
    if inst not in p.verdicts:
        p.verdicts[inst] = _solve_system(BoundSystem(lt=p.items), p.constants(), inst)
    return p.verdicts[inst]


def is_condition(p: Condition, inst: MetricInstance = MetricInstance()) -> bool:
    """True iff some [0,1]-metric assignment satisfies every bound strictly."""
    return _margin_verdict(p, inst).satisfiable


# ---------------------------------------------------------------------------
# the granularity-sliced hypothesis family p^$
# ---------------------------------------------------------------------------


def formula_max(formulas: list[F.Formula]) -> F.Formula:
    """max as a restricted formula: max(a,b) = 1 -. ((1 -. a) -. ... ) via
    min(x,y) = x -. (x -. y); the empty max is Zero by convention."""
    if not formulas:
        return F.Zero()
    out = formulas[0]
    for nxt in formulas[1:]:
        inv_a = F.DotMinus(F.One(), out)
        inv_b = F.DotMinus(F.One(), nxt)
        minimum = F.DotMinus(inv_a, F.DotMinus(inv_a, inv_b))
        out = F.DotMinus(F.One(), minimum)
    return out


def _grid_below(bound: Fraction, g: int) -> list[Fraction]:
    """Dyadics j/2^g in [0, bound), ascending."""
    scale = 1 << g
    return [Fraction(j, scale) for j in range(ceil(bound * scale))]


def _slice_tuples(p: Condition, g: int) -> Iterator[tuple[Fraction, ...]]:
    """The grid values of each slice member, lazily, last item fastest."""
    return itertools.product(*(_grid_below(bound, g) for _, bound in p.items))


def dollar(p: Condition, g: int) -> list[F.Formula]:
    """The granularity-g finite slice of the hypothesis family of p.

    Each member is max_i(phi_i -. s_i) with s_i on the 2^-g grid below r_i;
    the slices are nested in g, their union over all g is the full family,
    and a structure models T together with p exactly when it models T with
    some member.
    """
    if g < 1:
        raise ValueError("granularity must be >= 1")
    return [formula_max([F.DotMinus(formula, F.dyadic_constant(s))
                         for (formula, _), s in zip(p.items, values)])
            for values in _slice_tuples(p, g)]


# ---------------------------------------------------------------------------
# forcing checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForcingAnswer:
    verdict: str  # "yes" | "no" | "unknown"
    witness: Optional[dict] = None
    margin: Optional[Fraction] = None
    swept: int = 0


def _fresh_constant(used: set[int], count: int = 1) -> list[int]:
    start = max(used, default=0) + 1
    return list(range(start, start + count))


def _instance(p: Condition, matrix: F.Formula, variables: list[str],
              count: int) -> tuple[F.Formula, list[int]]:
    """`matrix` with `variables` replaced by the first of `count` fresh
    constants above every constant of p and matrix, and the sorted list of
    all those constants, which shapes the LP of the instance."""
    used = set(p.constants()) | F.constants_of(matrix)
    fresh = _fresh_constant(used, count)
    sentence = F.substitute(matrix, {v: F.CConst(c) for v, c in zip(variables, fresh)})
    return sentence, sorted(used | set(fresh))


def _above(p: Condition, sentence: F.Formula, constants: list[int], r: Fraction,
           inst: MetricInstance) -> SystemVerdict:
    """The limit LP: p's items, all strict, plus sentence > r.  Satisfiable
    exactly when some model of p has sentence > r, that is when p does not
    force sentence <= r."""
    return _solve_system(BoundSystem(lt=p.items, gt=((sentence, r),)), constants, inst)


def _sup_value(p: Condition, sentence: F.Formula, constants: list[int],
               inst: MetricInstance) -> Optional[Fraction]:
    """s, the supremum of sentence over the models of p, so that p forces
    sentence <= r exactly when r >= s; None if no model makes it positive.

    The limit LP with its threshold the column R >= 0: where a branch
    combination's margin LP is positive, its strict system is nonempty, its
    closure is the non-strict system, and its sup is the LP maximum of R."""
    system = BoundSystem(lt=p.items, gt=((sentence, ({EPS: 1, R: 1}, 0, 1)),))
    s = None
    for rows, margin in _branch_lps(system, constants, inst):
        if margin.status == OPTIMAL and margin.value > 0:
            top = maximize_rows({R: 1}, rows)
            if top.status != OPTIMAL or top.value > 1:
                raise ForcingError(f"sup LP of a nonempty branch: {top.status}, {top.value}")
            s = top.value if s is None else max(s, top.value)
    return s


def _slice_members(p: Condition, budget: int) -> int:
    """min(SWEEP_CAP, the member count of slices 1..budget), unlisted; every
    slice has a member, so at most SWEEP_CAP slices are counted."""
    total = 0
    for g in range(1, budget + 1):
        total += prod(ceil(bound * (1 << g)) for _, bound in p.items)
        if total >= SWEEP_CAP:
            return SWEEP_CAP
    return total


def forces_sup_leq(p: Condition, psi: F.Formula, r: Fraction,
                   inst: MetricInstance = MetricInstance(),
                   budget: int = 4) -> ForcingAnswer:
    """Does p force sup_x psi(x) <= r over bounded metric spaces?

    Protocol: the strict-margin limit LP decides the delta -> 0 limit
    exactly, so the answer is YES or NO; UNKNOWN only on branch-cap overflow.
    A YES is that one LP; its `swept` counts the slice members a sweep would
    test, none of which can have a countermodel.  A NO sweeps the slices
    g = 1..budget of p's hypothesis family for a member with a one-point
    extension where psi(c) >= r + delta, a rational witness, else keeps the
    limit LP's.  The finest delta = 2^-budget subsumes the coarser ones.
    """
    r = Fraction(r)
    fv = F.free_vars(psi)
    if len(fv) > 1:
        raise ForcingError("psi must have at most one free variable")
    if not F.is_quantifier_free(psi):
        raise ForcingError("psi must be quantifier-free")
    if r >= 1:
        # values never exceed 1, so the bound is forced vacuously
        return ForcingAnswer("yes", margin=Fraction(0))
    psi_c, constants = _instance(p, psi, sorted(fv), 1)
    delta = Fraction(1, 1 << budget)
    try:
        limit = _above(p, psi_c, constants, r, inst)
    except BranchOverflow:  # members share its branch count: the first overflows
        return ForcingAnswer("unknown", swept=min(1, budget))
    if not limit.satisfiable:
        return ForcingAnswer("yes", margin=Fraction(0), swept=_slice_members(p, budget))
    swept = 0
    members = itertools.chain.from_iterable(_slice_tuples(p, g) for g in range(1, budget + 1))
    for swept, values in enumerate(itertools.islice(members, SWEEP_CAP), 1):
        hyp = tuple((formula, s) for (formula, _), s in zip(p.items, values))
        verdict = _solve_system(BoundSystem(le=hyp, ge=((psi_c, r + delta),)), constants, inst)
        if verdict.satisfiable:
            return ForcingAnswer("no", witness=verdict.point, margin=verdict.margin,
                                 swept=swept)
    return ForcingAnswer("no", witness=limit.point, margin=limit.margin, swept=swept)


# ---------------------------------------------------------------------------
# games
# ---------------------------------------------------------------------------

Strategy = Callable[[Transcript, MetricInstance], Condition]


def play_game(forall_strategy: Strategy, exists_strategy: Strategy,
              rounds: int, inst: MetricInstance = MetricInstance()) -> Transcript:
    """Alternating play, universal player first; every move must be a
    condition extending the previous one or the offender forfeits.  A move
    is a condition by `_model_certifies` when the previous condition's model
    satisfies it, else by its own margin LP (`is_condition`)."""
    moves: tuple[tuple[str, Condition], ...] = ()
    for i in range(rounds):
        player = "A" if i % 2 == 0 else "E"
        strategy = forall_strategy if player == "A" else exists_strategy
        transcript = Transcript(moves)
        cond = strategy(transcript, inst)
        previous = transcript.last()
        if not cond.extends(previous):
            raise IllegalMove(player, "move does not extend the previous condition")
        if not (_model_certifies(cond, previous, inst) or is_condition(cond, inst)):
            raise IllegalMove(player, "move is not a condition")
        moves = moves + ((player, cond),)
    return Transcript(moves)


def _value_at(formula: F.Formula, point: dict) -> Fraction:
    """Exact value of a quantifier-free metric sentence at the pair values
    `point`; a KeyError names a pair that the point lacks."""
    if isinstance(formula, F.Atomic):
        i, j = (_term_const(t) for t in formula.args)
        return Fraction(0) if i == j else point[_pair_var(i, j)]
    if isinstance(formula, F.Zero):
        return Fraction(0)
    if isinstance(formula, F.One):
        return Fraction(1)
    if isinstance(formula, F.Half):
        return _value_at(formula.body, point) / 2
    return F.dot_minus_value(_value_at(formula.left, point), _value_at(formula.right, point))


def _model_certifies(cond: Condition, previous: Condition, inst: MetricInstance) -> bool:
    """True when `cond` has no kept verdict under inst and every item of it
    is strictly below its bound at the point of `previous`'s kept verdict,
    read exactly; cond's own verdict is then left for `_margin_verdict` to
    solve if something reads it.

    Sound: the point satisfies the metric-axiom rows of previous's exact LP,
    so it is a [0,1]-metric on previous's constants.  The evaluation read
    only pairs in the point, so a constant of cond outside them occurs only
    in atoms d(c, c); it can sit on an existing point, or alone at distance 1
    from all, and the result is still a metric.  That metric gives every item
    the value read here, so it is a model of cond: cond is a condition."""
    verdict = previous.verdicts.get(inst)
    if inst in cond.verdicts or verdict is None or not verdict.satisfiable:
        return False
    try:
        return all(_value_at(formula, verdict.point) < bound for formula, bound in cond.items)
    except KeyError:
        return False


def _pass_move(prev: Condition) -> Condition:
    """`prev` plus the trivially satisfiable bound d(c, c) < 1/2 for a fresh c."""
    c = F.CConst(_fresh_constant(set(prev.constants()))[0])
    return prev.extend([(F.Atomic("d", (c, c)), Fraction(1, 2))])


def pass_through_strategy() -> Strategy:
    """Repeat the previous condition plus one fresh trivially satisfiable bound."""
    return lambda transcript, inst: _pass_move(transcript.last())


def random_forall_strategy(seed: int) -> Strategy:
    """Legal random universal player: tries random new strict bounds, keeps
    the first that stays a condition, falls back to a pass-through bound.
    A candidate drawn again after its rejection in a move is skipped."""
    rng = random.Random(seed)

    def move(transcript: Transcript, inst: MetricInstance) -> Condition:
        prev = transcript.last()
        constants = prev.constants()
        fresh = _fresh_constant(set(constants))[0]
        pool = constants + [fresh]
        rejected = set()
        for _ in range(8):
            i = rng.choice(pool)
            j = rng.choice(pool)
            if i == j:
                continue
            bound = rng.choice(
                [Fraction(1, 4), Fraction(3, 8), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
            )
            i, j, lower = min(i, j), max(i, j), rng.random() < 0.3
            if (i, j, bound, lower) in rejected:
                continue
            rejected.add((i, j, bound, lower))
            atom = F.Atomic("d", (F.CConst(i), F.CConst(j)))
            if lower:
                # lower bound: d > bound - 1/8 via (bound -. d) < 1/8
                candidate = prev.extend(
                    [(F.DotMinus(F.dyadic_constant(bound), atom), Fraction(1, 8))]
                )
            else:
                candidate = prev.extend([(atom, bound)])
            if is_condition(candidate, inst):
                return candidate
        return _pass_move(prev)

    return move


def exists_pinning_strategy() -> Strategy:
    """The universal-model strategy: each turn solves the current condition
    with maximal margin and pins every mentioned distance into a dyadic
    interval of width <= 2^-round around the solution, nesting over rounds.

    Every pin holds strictly at the solution, so `play_game` certifies the
    move by that point without an LP, except where a distance y = 1: its pin
    is capped to d < 1, which excludes the solution, and the move goes to
    the LP."""

    def move(transcript: Transcript, inst: MetricInstance) -> Condition:
        prev = transcript.last()
        round_no = len(transcript.moves)
        pairs = _mentioned_pairs(prev)
        if not pairs:
            return _pass_move(prev)
        verdict = _margin_verdict(prev, inst)
        if not verdict.satisfiable:
            raise Infeasible("previous condition is not satisfiable")
        grid = round_no + 3  # pin width 3*2^-grid < 2^-round
        items = []
        for i, j in pairs:
            y = verdict.point.get(_pair_var(i, j), Fraction(0))
            scale = 1 << grid
            lo = Fraction((y * scale).__floor__(), scale) - Fraction(1, scale)
            hi = lo + Fraction(3, scale)
            atom = F.Atomic("d", (F.CConst(i), F.CConst(j)))
            items.append((atom, min(hi, Fraction(1))))
            if lo > 0:
                items.append(
                    (
                        F.DotMinus(F.dyadic_constant(lo + Fraction(1, scale)), atom),
                        Fraction(1, scale),
                    )
                )
        return prev.extend(items)

    return move


def _mentioned_pairs(p: Condition) -> list[tuple[int, int]]:
    pairs: set[tuple[int, int]] = set()
    for formula, _ in p.items:
        for f in F.subformulas(formula):
            if isinstance(f, F.Atomic):
                i, j = sorted(_term_const(t) for t in f.args)
                if i != j:
                    pairs.add((i, j))
    return sorted(pairs)


# ---------------------------------------------------------------------------
# compilation of transcripts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledSpace:
    """A finite rational metric space over the mentioned constants."""

    constants: tuple[int, ...]
    distances: dict  # (i, j) with i < j -> Fraction

    def distance(self, i: int, j: int) -> Fraction:
        if i == j:
            return Fraction(0)
        return self.distances[(min(i, j), max(i, j))]

    def as_test_structure(self) -> TestStructure:
        """The space as a TestStructure, built and validated once."""
        return self._structure

    @cached_property
    def _structure(self) -> TestStructure:
        order = {c: idx for idx, c in enumerate(self.constants)}
        table = tuple(
            tuple(self.distance(a, b) for b in self.constants)
            for a in self.constants
        )
        return TestStructure(table, constants={c: order[c] for c in self.constants})


def compile_transcript(t: Transcript,
                       inst: MetricInstance = MetricInstance()) -> CompiledSpace:
    """Deterministic finite model of the final condition.

    Takes the final condition's margin verdict, fixes half the optimal
    margin as slack, then lexicographically minimizes the distances in
    sorted pair order: the least of the per-alternative lex minima, since
    the lex minimum of a union is the least of its parts'.  The result
    satisfies every played bound strictly and the metric axioms exactly
    (re-checked by exact evaluation).
    """
    final = t.last()
    constants = final.constants()
    verdict = _margin_verdict(final, inst)
    if not verdict.satisfiable:
        raise Infeasible("final condition is not satisfiable")
    slack = verdict.margin / 2
    nonstrict = tuple((formula, bound - slack) for formula, bound in final.items)
    base = _metric_axioms(tuple(constants))
    pairs = [(a, b) for idx, a in enumerate(constants) for b in constants[idx + 1:]]
    order = [_pair_var(a, b) for a, b in pairs]
    minima = [values for alt in _system_alternatives(BoundSystem(le=nonstrict), inst)
              if (values := lex_minimize_rows(order, [*base, *alt])) is not None]
    if not minima:
        raise Infeasible("no feasible branch during compilation")
    space = CompiledSpace(tuple(constants), dict(zip(pairs, min(minima))))
    _verify_compiled(space, final)
    return space


def _verify_compiled(space: CompiledSpace, condition: Condition) -> None:
    structure = space.as_test_structure()  # validates the metric axioms exactly
    for formula, bound in condition.items:
        value = eval_exact(formula, structure)
        if not value < bound:
            raise Infeasible(
                f"compiled space violates a bound: value {value} !< {bound}"
            )


# ---------------------------------------------------------------------------
# forcing-value estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FpBounds:
    lower: Optional[Fraction]
    upper: Optional[Fraction]
    estimate: Fraction


def fp_estimate(p: Condition, formula: F.Formula,
                inst: MetricInstance = MetricInstance(),
                depth: int = 2, budget: int = 8) -> FpBounds:
    """Bracket the forcing value F_p = inf{r : p forces the value < r}.

    Quantifier-free formulas and single leading sup blocks are decided
    exactly: p forces the value <= r iff r >= s (`_sup_value`), so the cell
    (lo, hi] of the 2^-budget grid holding s, or (0, 0) where s is None, is a
    certified bracket.  An inf block contributes certified upper bounds
    through instances F_p(phi(c)) >= F_p (inf_x phi <= phi(c) pointwise and
    forcing is monotone), sampling the mentioned constants plus a fresh one
    up to `depth` unrollings; its lower bound would need exhaustion over all
    extensions and is reported unknown.  Deeper sup blocks dually contribute
    certified lower bounds only.
    """
    prefix, matrix = F.prenex_parts(formula)
    return _fp_rec(p, prefix, matrix, inst, depth, budget)


def _fp_rec(p: Condition, prefix, matrix, inst, depth, budget) -> FpBounds:
    if all(kind is F.Sup for kind, _ in prefix):
        sup_vars = [v for _, v in prefix]
        sentence, constants = _instance(p, matrix, sup_vars, len(sup_vars))
        s = _sup_value(p, sentence, constants, inst)
        if s is None:
            return FpBounds(Fraction(0), Fraction(0), Fraction(0))
        hi = Fraction(ceil(s * (1 << budget)), 1 << budget)
        lo = hi - Fraction(1, 1 << budget)
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


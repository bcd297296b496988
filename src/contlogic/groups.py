"""Group kinds and exact arithmetic in the group algebra Q(i)G.

Words are tuples of (generator, exponent) runs with nonzero exponents.  A
GroupSpec is a computable presentation of a finitely generated group: a
solver for its word problem together with an effective numbering of its
normal forms.  There is one subclass per group kind (free groups, free
abelian groups, finite multiplication tables, and user-certified terminating
rewriting systems).  Algebra elements are finitely supported maps from
normal-form words to Q(i), held as Gaussian integers over one denominator D
in lowest terms on their sorted support words (a `gaussian.GaussianInts`, so
equal elements have equal fields; GaussianRational values go in through the
constructor and come out through `.coeffs`); the canonical trace reads off
the identity coefficient.

Norm bounds: `two_norm` computes sqrt(tau(a* a)) from the exact radicand,
`l1_norm` gives the certified operator-norm upper bound sum |coeff|, and
`lambda_norm_lower` produces grid-floor dyadic lower bounds from the trace
moments tau((a* a)^n)^(1/2n).  Moments are computed by generic convolution,
except that letter-supported elements of free groups use an exact first-return
excursion DP over cone types of the Cayley tree: the generic power has
exponentially many words, while the DP is polynomial in n and agrees with it
exactly.

Everything runs on the integers.  The product of elements over D1 and D2 is
convolved as integers over D1*D2; the norms read sum |c|^2 over D^2 and
sum |re|+|im| over D.  In the DP, table entry m (walks of length m) is D^m
times its value, so tau((a* a)^j) is entry 2j over D^(2j).  In the
convolution route h = a* a is an integer element over E, h^j one over E^j,
and tau(h^j) is read over E^j.  Over Z (one generator) a product of
integer elements is a product of Laurent polynomials, done as four big
integer products by Kronecker substitution (`_convolve_packed`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice
from typing import Optional

from .dyadic import nth_root_lower_grid, sqrt_interval
from .gaussian import (PARTS_MAX, ContlogicError, GaussianInts, GaussianRational, gr,
                       over_common_denominator)
from .pairing import (
    decode_list,
    decode_tuple,
    encode_list,
    encode_tuple,
    gaussian_to_nat,
    nat_to_gaussian,
    pair,
    unpair,
)

Word = tuple[tuple[str, int], ...]
IDENTITY: Word = ()


class GroupError(ContlogicError):
    pass


class UnknownGenerator(GroupError):
    pass


class RewritingDiverged(GroupError):
    pass


class NotConfluent(GroupError):
    pass


class MixedGroups(GroupError):
    pass


class ComplexMoment(GroupError):
    """A trace moment tau((a* a)^j) came out non-real.

    tau((a* a)^j) is real for every a, so the word problem (say, a rewriting
    system that is not confluent) or the moment kernel is at fault.
    """


class MomentAboveBound(GroupError):
    """A trace moment tau((a* a)^n) came out above max(l1, 1)^(2n), which
    bounds it: the word problem or the moment kernel is at fault."""


class NumberingTooLarge(GroupError):
    """A normal form past the first PARTS_MAX of a rewriting group:
    refused before more of them are numbered."""


class MomentTooLarge(GroupError):
    """A moment order above MOMENT_ORDER_MAX, or a power of a* a with more
    than PARTS_MAX words: refused before it is computed further."""


def _compress(letters: list[tuple[str, int]]) -> Word:
    """Merge adjacent runs of the same generator, dropping zero runs."""
    out: list[tuple[str, int]] = []
    for name, exp in letters:
        if exp == 0:
            continue
        if out and out[-1][0] == name:
            merged = out[-1][1] + exp
            out.pop()
            if merged != 0:
                out.append((name, merged))
        else:
            out.append((name, exp))
    return tuple(out)


# ---------------------------------------------------------------------------
# group kinds
# ---------------------------------------------------------------------------


class GroupSpec:
    """A finitely generated group with a word-problem solver.

    Each group kind defines `normal_form` and numbers its normal forms by
    `word_at(index)` and its inverse `index_of(word)` (docs/encodings.md).
    `finite_words` is the number of normal forms of a table group, whose
    algebra elements get tuple codes; it is None for the other kinds, finite
    rewriting groups included, whose elements get list codes.
    """

    name: str
    finite_words: Optional[int] = None

    def __init__(self, generators: tuple[str, ...]):
        self.generators = tuple(generators)
        if len(set(self.generators)) != len(self.generators):
            raise GroupError(f"repeated generators in {' '.join(self.generators)!r}")

    def normal_form(self, word: Word) -> Word:
        raise NotImplementedError

    def word_at(self, index: int) -> Word:
        raise NotImplementedError

    def index_of(self, word: Word) -> int:
        raise NotImplementedError

    def mul(self, a: Word, b: Word) -> Word:
        return self.normal_form(a + b)

    def inv(self, a: Word) -> Word:
        return self.normal_form(tuple((name, -exp) for name, exp in reversed(a)))

    # trusted product and inverse of normal forms; a kind may override them
    _mul_normal = mul
    _inv_normal = inv

    def _check_generators(self, word: Word) -> None:
        for name, _ in word:
            if name not in self.generators:
                raise UnknownGenerator(f"unknown generator {name!r}")


def _trivial_word_at(index: int) -> Word:
    if index:
        raise GroupError(f"word index {index} exceeds the trivial group")
    return IDENTITY


class FreeGroup(GroupSpec):
    """Free group: normal form is the freely reduced word.

    Reduced words are numbered by length, then lexicographically in the
    letter order g1, g1^-1, g2, g2^-1, ...
    """

    name = "free"

    def __init__(self, generators: tuple[str, ...]):
        super().__init__(generators)
        self.letters = [(g, step) for g in self.generators for step in (1, -1)]

    def normal_form(self, word: Word) -> Word:
        self._check_generators(word)
        return _compress(list(word))

    def _mul_normal(self, a: Word, b: Word) -> Word:
        # reduced words cancel only at the join, run against run
        while a and b and a[-1][0] == b[0][0]:
            exp = a[-1][1] + b[0][1]
            if exp:
                return a[:-1] + ((b[0][0], exp),) + b[1:]
            a, b = a[:-1], b[1:]
        return a + b

    def _inv_normal(self, a: Word) -> Word:
        return tuple((name, -exp) for name, exp in reversed(a))

    def _allowed(self, prev: Optional[tuple[str, int]]) -> list[tuple[str, int]]:
        if prev is None:
            return self.letters
        return [t for t in self.letters if t != (prev[0], -prev[1])]

    def index_of(self, word: Word) -> int:
        seq = [(name, 1 if exp > 0 else -1) for name, exp in word for _ in range(abs(exp))]
        if not seq:
            return 0
        k2 = len(self.letters)
        index = 1 + sum(k2 * (k2 - 1) ** (j - 1) for j in range(1, len(seq)))
        lex = 0
        prev = None
        for letter in seq:
            allowed = self._allowed(prev)
            lex = lex * len(allowed) + allowed.index(letter)
            prev = letter
        return index + lex

    def word_at(self, index: int) -> Word:
        if index == 0 or not self.letters:
            return _trivial_word_at(index)
        k2 = len(self.letters)
        index -= 1
        length = 1
        while index >= k2 * (k2 - 1) ** (length - 1):
            index -= k2 * (k2 - 1) ** (length - 1)
            length += 1
        digits = []
        for size in [k2 - 1] * (length - 1) + [k2]:
            index, digit = divmod(index, size)
            digits.append(digit)
        seq: list[tuple[str, int]] = []
        prev = None
        for digit in reversed(digits):
            prev = self._allowed(prev)[digit]
            seq.append(prev)
        return _compress(seq)


def _zigzag(e: int) -> int:
    return 2 * e - 1 if e > 0 else -2 * e


def _unzigzag(n: int) -> int:
    return (n + 1) // 2 if n % 2 == 1 else -(n // 2)


class FreeAbelianGroup(GroupSpec):
    """Free abelian group: normal form sorts the exponent vector.

    Normal forms are numbered by the Cantor tuple fold of the zigzagged
    exponents.
    """

    name = "free_abelian"

    def normal_form(self, word: Word) -> Word:
        self._check_generators(word)
        totals = dict.fromkeys(self.generators, 0)
        for name, exp in word:
            totals[name] += exp
        return tuple((g, totals[g]) for g in self.generators if totals[g] != 0)

    def _mul_normal(self, a: Word, b: Word) -> Word:
        # exponents add in generator order; two runs on one generator are common
        if len(a) == len(b) == 1 and a[0][0] == b[0][0]:
            exp = a[0][1] + b[0][1]
            return ((a[0][0], exp),) if exp else IDENTITY
        totals = dict(a)
        for name, exp in b:
            totals[name] = totals.get(name, 0) + exp
        return tuple([(g, e) for g in self.generators if (e := totals.get(g))])

    def _inv_normal(self, a: Word) -> Word:
        return tuple((name, -exp) for name, exp in a)

    def word_at(self, index: int) -> Word:
        if not self.generators:
            return _trivial_word_at(index)
        exps = [_unzigzag(v) for v in decode_tuple(index, len(self.generators))]
        return tuple((g, e) for g, e in zip(self.generators, exps) if e != 0)

    def index_of(self, word: Word) -> int:
        totals = dict(word)
        exps = [_zigzag(totals.get(g, 0)) for g in self.generators]
        return encode_tuple(exps) if exps else 0


class TableGroup(GroupSpec):
    """Finite group given by a multiplication table over named elements.

    The non-identity elements are the generators, though every element name
    is a legal letter.  Normal forms are the identity word () or a single
    (element_name, 1) run, numbered identity first and then in the declared
    element order.  Group axioms are verified at construction.
    """

    name = "table"

    def __init__(self, elements: tuple[str, ...], identity: str, table: list[list[str]]):
        index = {name: i for i, name in enumerate(elements)}
        if len(index) != len(elements):
            raise GroupError("duplicate element names")
        if identity not in index:
            raise GroupError(f"identity {identity!r} not among elements")
        n = len(elements)
        if len(table) != n or any(len(row) != n for row in table):
            raise GroupError("table must be square over the element list")
        stray = [name for row in table for name in row if name not in index]
        if stray:
            raise GroupError(f"table entry {stray[0]!r} not among elements")
        mul = [[index[table[i][j]] for j in range(n)] for i in range(n)]
        e = index[identity]
        for i in range(n):
            if mul[e][i] != i or mul[i][e] != i:
                raise GroupError("identity row/column mismatch")
        for i in range(n):
            if e not in mul[i]:
                raise GroupError(f"element {elements[i]!r} has no inverse")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if mul[mul[i][j]][k] != mul[i][mul[j][k]]:
                        raise GroupError("table is not associative")
        super().__init__(name for name in elements if name != identity)
        self.elements = tuple(elements)
        self.finite_words = n
        self._e = e
        self._mul = mul
        self._index = index
        self._words = [IDENTITY] + [((g, 1),) for g in self.generators]

    def normal_form(self, word: Word) -> Word:
        acc = self._e
        for name, exp in word:
            if name not in self._index:
                raise UnknownGenerator(f"unknown element {name!r}")
            x = self._index[name]
            # x^|G| is the identity (Lagrange), so the exponent counts mod |G|
            for _ in range(exp % self.finite_words):
                acc = self._mul[acc][x]
        if acc == self._e:
            return IDENTITY
        return ((self.elements[acc], 1),)

    def word_at(self, index: int) -> Word:
        return self._words[index]

    def index_of(self, word: Word) -> int:
        return self._words.index(word)


def _to_string(word: Word) -> str:
    return "".join((name if exp > 0 else name.upper()) * abs(exp) for name, exp in word)


def _to_word(s: str) -> Word:
    return _compress([(ch.lower(), 1 if ch.islower() else -1) for ch in s])


class RewritingGroup(GroupSpec):
    """String rewriting over single-letter generators (inverse = uppercase).

    Rules "lhs -> rhs" are applied together with the free-reduction rules
    until a fixed point.  Termination is the caller's certificate; a step budget
    rejects runaway systems (and words longer than it) with RewritingDiverged.
    Confluence is checked at construction (Newman's lemma; Knuth & Bendix 1970):
    a critical pair with two normal forms raises NotConfluent, one out of budget
    is left to RewritingDiverged.  Normal forms are the irreducible strings,
    numbered by length then lexicographically over the alphabet g1, G1, g2, G2, ...
    """

    name = "rewriting"

    def __init__(self, generators: tuple[str, ...], rules: list[tuple[str, str]],
                 max_steps: int = 10000):
        for g in generators:
            if len(g) != 1 or not g.islower() or not g.isalpha():
                raise GroupError(
                    f"rewriting generators must be single lowercase letters, got {g!r}"
                )
        super().__init__(generators)
        self.alphabet = [ch for g in self.generators for ch in (g, g.upper())]
        for lhs, rhs in rules:
            if not lhs:
                raise GroupError("empty rule left-hand side")
            for ch in lhs + rhs:
                if ch not in self.alphabet:
                    raise GroupError(f"rule uses letter {ch!r} outside the alphabet")
        reduction = [(g + g.upper(), "") for g in self.generators]
        reduction += [(g.upper() + g, "") for g in self.generators]
        self.rules = reduction + list(rules)
        self.max_steps = max_steps
        self._check_critical_pairs()
        # the normal forms numbered so far, and the longest ones among them;
        # every prefix of an irreducible string is irreducible, so an empty
        # level proves that no longer normal forms exist
        self._words: list[Word] = [IDENTITY]
        self._positions: dict[Word, int] = {IDENTITY: 0}
        self._level = [""]

    def _check_critical_pairs(self) -> None:
        for l1, r1 in self.rules:
            for l2, r2 in self.rules:
                # (word, its two reducts): l2 inside l1, or l1 = xy, l2 = yz
                pairs = [(l1, r1, l1[:i] + r2 + l1[i + len(l2):])
                         for i in range(len(l1) - len(l2) + 1)
                         if l1.startswith(l2, i) and (l1, r1) != (l2, r2)]
                pairs += [(l1 + l2[j:], r1 + l2[j:], l1[:-j] + r2)
                          for j in range(1, min(len(l1), len(l2))) if l1.endswith(l2[:j])]
                for word, one, two in pairs:
                    try:
                        one, two = self._reduce(one), self._reduce(two)
                    except RewritingDiverged:
                        continue
                    if one != two:
                        raise NotConfluent(f"critical pair of {l1!r} and {l2!r} on "
                                           f"{word!r} reduces to {one!r} and {two!r}")

    def _reduce(self, s: str) -> str:
        # one leftmost application of the first matching rule per step, so the
        # budget catches cyclic rule sets instead of silently accepting them
        steps = 0
        while True:
            for lhs, rhs in self.rules:
                idx = s.find(lhs)
                if idx >= 0:
                    s = s[:idx] + rhs + s[idx + len(lhs):]
                    steps += 1
                    if steps > self.max_steps:
                        raise RewritingDiverged(
                            f"no fixed point within {self.max_steps} rewrite steps"
                        )
                    break
            else:
                return s

    def normal_form(self, word: Word) -> Word:
        self._check_generators(word)
        length = sum(abs(exp) for _, exp in word)
        if length > self.max_steps:
            raise RewritingDiverged(
                f"a word of {length} letters exceeds the {self.max_steps}-step budget"
            )
        return _to_word(self._reduce(_to_string(word)))

    def _grow(self) -> None:
        """Number the irreducible strings of the next length, in lex order:
        the last level's, each extended by a letter that ends no left-hand side,
        cut where the numbering reaches PARTS_MAX."""
        if len(self._words) >= PARTS_MAX:
            raise NumberingTooLarge(f"a rewriting group numbers only its first "
                                    f"{PARTS_MAX} normal forms")
        level = (s + ch for s in self._level for ch in self.alphabet
                 if not any((s + ch).endswith(lhs) for lhs, _ in self.rules))
        self._level = list(islice(level, PARTS_MAX - len(self._words)))
        for s in self._level:
            self._positions[_to_word(s)] = len(self._words)
            self._words.append(_to_word(s))

    def word_at(self, index: int) -> Word:
        while index >= len(self._words):
            if not self._level:
                raise GroupError(
                    f"word index {index} exceeds the {len(self._words)} normal "
                    "forms of this finite rewriting group"
                )
            self._grow()
        return self._words[index]

    def index_of(self, word: Word) -> int:
        while word not in self._positions:
            if not self._level:
                raise GroupError(f"word {word!r} is not a normal form")
            self._grow()
        return self._positions[word]


def free_group(*generators: str) -> FreeGroup:
    return FreeGroup(generators)


def free_abelian(*generators: str) -> FreeAbelianGroup:
    return FreeAbelianGroup(generators)


# ---------------------------------------------------------------------------
# group algebra
# ---------------------------------------------------------------------------


GaussInt = tuple[int, int]


class AlgebraElement(GaussianInts):
    """Finitely supported map normal-form word -> Q(i): nonzero Gaussian
    integers `parts` over d on the sorted `words`, with (spec, words) as
    layout.  `AlgebraElement(spec, coeffs)` takes a dict of GaussianRational,
    refusing a key that is not a normal form, and `.coeffs` gives it back;
    `.ints` is the dict word -> integer pair that products, combinations and
    the moment kernels read.  `element` normalizes arbitrary words.
    `_moments`: see `moments_up_to`."""

    __slots__ = ("_moments",)

    def __new__(cls, spec: GroupSpec, coeffs: dict[Word, GaussianRational]):
        for w in coeffs:
            if spec.normal_form(w) != w:
                raise GroupError(f"key {w!r} is not a normal form")
        return cls._new((spec, coeffs), *over_common_denominator(coeffs.values()))

    @classmethod
    def _new(cls, layout, d: int, parts) -> "AlgebraElement":
        """The parts over d on distinct words in any order, sorted by word
        with the zero terms dropped; no moments computed yet."""
        spec, words = layout
        terms = sorted(zip(words, parts))  # by word, since the words are distinct
        if (0, 0) in parts:
            terms = [t for t in terms if t[1] != (0, 0)]
        words, parts = zip(*terms) if terms else ((), ())
        out = cls._make((spec, words), d, parts)
        out._moments = []
        return out

    spec = property(lambda self: self.layout[0])
    words = property(lambda self: self.layout[1])

    @property
    def ints(self) -> dict[Word, GaussInt]:
        return dict(zip(self.layout[1], self.parts))

    @property
    def coeffs(self) -> dict[Word, GaussianRational]:
        return dict(zip(self.layout[1], self.values()))

    # -- ring operations ------------------------------------------------------

    def _check(self, other: "AlgebraElement") -> GroupSpec:
        """The group spec both operands share."""
        spec = self.layout[0]
        if spec is not other.layout[0]:
            raise MixedGroups("elements belong to different group specs")
        return spec

    def _aligned(self, other: "AlgebraElement"):
        spec = self._check(other)
        x, y = self.ints, other.ints
        words = tuple(x.keys() | y.keys())
        return (spec, words), [(x.get(w, (0, 0)), y.get(w, (0, 0))) for w in words]

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        spec = self._check(other)
        product = _convolve(spec, self.ints, other.ints)
        return AlgebraElement._new((spec, product), self.d * other.d, product.values())

    def adjoint(self) -> "AlgebraElement":
        # inversion permutes the normal forms, so the keys stay normal and distinct
        spec, words = self.layout
        return AlgebraElement._new((spec, map(spec._inv_normal, words)), self.d,
                                   [(r, -i) for r, i in self.parts])

    # -- inspection -----------------------------------------------------------

    def trace_int(self) -> tuple[int, int, int]:
        """(D, re, im) with the canonical trace (re + i*im)/D; the identity
        word sorts first."""
        return self.d, *(self.parts[0] if self.words[:1] == (IDENTITY,) else (0, 0))

    def __repr__(self):
        if not self.parts:
            return "0"
        terms = []
        for w, c in self.coeffs.items():
            word = "*".join(f"{g}^{e}" if e != 1 else g for g, e in w) or "1"
            terms.append(f"({c})*{word}")
        return " + ".join(terms)


def element(spec: GroupSpec, terms: list[tuple[GaussianRational | Fraction | int, Word]]
            ) -> AlgebraElement:
    coeffs: dict[Word, GaussianRational] = {}
    for c, w in terms:
        if not isinstance(c, GaussianRational):
            c = gr(Fraction(c))
        nf = spec.normal_form(w)
        coeffs[nf] = coeffs.get(nf, gr(0)) + c
    # the keys are normal forms
    return AlgebraElement._new((spec, coeffs), *over_common_denominator(coeffs.values()))


def _l1_int(a: AlgebraElement) -> int:
    """The l1 norm of `a` times its denominator d."""
    return sum(abs(r) + abs(i) for r, i in a.parts)


def l1_norm(a: AlgebraElement) -> Fraction:
    """Certified rational upper bound sum |re|+|im| on the lambda-operator norm."""
    return Fraction(_l1_int(a), a.d)


def two_norm(a: AlgebraElement, k: int) -> tuple[Fraction, Fraction]:
    """Dyadic interval of width <= 2^-k around sqrt(tau(a* a)).

    tau(a* a) = sum |coeff|^2 exactly, so the radicand needs no convolution.
    """
    return sqrt_interval(Fraction(sum(r * r + i * i for r, i in a.parts), a.d * a.d), k)


# ---------------------------------------------------------------------------
# trace moments
# ---------------------------------------------------------------------------

Letter = Optional[tuple[str, int]]  # None stands for the identity self-loop


def _letter_weights(a: AlgebraElement) -> Optional[dict[Letter, GaussInt]]:
    """Weight map, a's integer coefficients over a.d, when every support word
    is a single letter or the identity."""
    weights: dict[Letter, GaussInt] = {}
    for w, c in zip(a.words, a.parts):
        if w == IDENTITY:
            weights[None] = c
        elif len(w) == 1 and abs(w[0][1]) == 1:
            weights[w[0]] = c
        else:
            return None
    return weights


def _free_walk_traces(w0: dict[Letter, GaussInt], w1: dict[Letter, GaussInt],
                      steps: int) -> list[GaussInt]:
    """Weights of root-to-root walks of every length 0..steps on the Cayley
    tree, where step i draws its letter weight from w0 (i even) or w1.

    First-return excursion DP over cone types: a walk confined below a vertex
    decomposes into self-loops and excursions into children, and every cone of
    the tree looks alike except for the blocked parent direction.  Each step
    sums the excursions into all children once; that sum less the blocked
    child's term serves every direction, so an entry is one sum over j.

    The DP runs on Gaussian integers: the weights are integers over one
    denominator D, every length-m walk weight is a product of m weights, so
    the table entry for length m is D^m times the exact weight.  Returns those
    integer (re, im) entries for m = 0..steps.
    """
    letters = sorted({s for s in w0 if s is not None} | {s for s in w1 if s is not None})
    # weight keys, and blocked parent directions (None = the root)
    contexts: list[Letter] = letters + [None]
    weight = tuple({s: w.get(s, (0, 0)) for s in contexts} for w in (w0, w1))
    inv = {s: (s[0], -s[1]) for s in letters}
    # dp[p][f][m] = D^m * weight of length-m walks v -> v below v, starting at
    # parity p with direction f blocked
    dp = [{f: [(1, 0)] for f in contexts} for _ in (0, 1)]
    # excursions[p][f][j] = sum over children t != f of the weight of an
    # excursion from parity p into t whose walk below t has length j: the
    # step down, that walk and the step back up
    excursions = [{f: [] for f in contexts} for _ in (0, 1)]
    for m in range(1, steps + 1):
        for p in (0, 1):
            q = 1 - p
            terms = []
            sr = si = 0
            for t in letters:
                xr, xi = dp[q][inv[t]][m - 1]
                br, bi = weight[(q + m - 1) % 2][inv[t]]
                er, ei = xr * br - xi * bi, xr * bi + xi * br
                tr, ti = weight[p][t]
                cr, ci = tr * er - ti * ei, tr * ei + ti * er
                terms.append((cr, ci))
                sr += cr
                si += ci
            terms.append((0, 0))  # the root blocks no child
            for (cr, ci), run in zip(terms, excursions[p].values()):
                run.append((sr - cr, si - ci))
        for p in (0, 1):
            q = 1 - p
            wr, wi = weight[p][None]
            for f, run in excursions[p].items():
                xr, xi = dp[q][f][m - 1]
                re, im = wr * xr - wi * xi, wr * xi + wi * xr
                rest = (dp[p][f], dp[q][f])  # by the parity of the remaining walk
                for j, (er, ei) in enumerate(run[: m - 1]):
                    yr, yi = rest[j % 2][m - 2 - j]
                    re += er * yr - ei * yi
                    im += er * yi + ei * yr
                dp[p][f].append((re, im))
    return dp[0][None]


def _real_trace(value: GaussInt, denominator: int) -> Fraction:
    re, im = value
    if im != 0:
        raise ComplexMoment("moment of a positive element must be real")
    return Fraction(re, denominator)


def _convolve(spec: GroupSpec, x: dict[Word, GaussInt], y: dict[Word, GaussInt],
              limit: Optional[int] = None) -> Optional[dict[Word, GaussInt]]:
    """The product x * y of integer-coefficient elements, zeros dropped.

    Over a free abelian group of rank 1 the product is one of polynomials
    in u and u^-1, taken by Kronecker substitution (`_convolve_packed`);
    every other spec, and a sparse operand there, takes the loop over pairs
    of words.  With a `limit`, the loop gives up and returns None once it
    has met more than `limit` words (cancelled ones included), so that a
    product the caller refuses is never formed in full.
    """
    if isinstance(spec, FreeAbelianGroup) and len(spec.generators) == 1:
        packed = _convolve_packed(spec.generators[0], x, y)
        if packed is not None:
            return packed
    acc: dict[Word, GaussInt] = {}
    mul = spec._mul_normal
    for w1, (r1, i1) in x.items():
        if limit is not None and len(acc) > limit:
            return None
        for w2, (r2, i2) in y.items():
            w = mul(w1, w2)
            r, i = acc.get(w, (0, 0))
            acc[w] = (r + r1 * r2 - i1 * i2, i + r1 * i2 + i1 * r2)
    return {w: c for w, c in acc.items() if c != (0, 0)}


# an operand spreading over more than this many exponents per term stays on
# the loop over pairs, so that a packed integer is at most a few times the
# size of the dict it stands for
_PACK_SPREAD = 8


def _convolve_packed(g: str, x: dict[Word, GaussInt],
                     y: dict[Word, GaussInt]) -> Optional[dict[Word, GaussInt]]:
    """x * y over the free abelian group on g, or None for a sparse operand.

    Each part of each operand becomes one integer, coefficient k of the
    polynomial (exponent less the operand's least exponent) in a signed limb
    of B bits at bit B*k (Kronecker substitution; Harvey, J. Symb. Comp. 44,
    2009); four big products give the parts of x * y.  A limb of the product
    holds at most min(|x|, |y|) products of two parts per term, twice over,
    so it stays under 2^(B-1) in size when B covers both operands' part bit
    lengths, the bit length of the shorter term count and two bits more.
    Adding 2^(B-1) to every limb makes each one a B-bit digit, from which
    the coefficient is read back by taking that bias off again.
    """
    if not x or not y:
        return {}
    ex = [w[0][1] if w else 0 for w in x]
    ey = [w[0][1] if w else 0 for w in y]
    lo_x, lo_y = min(ex), min(ey)
    span_x, span_y = max(ex) - lo_x + 1, max(ey) - lo_y + 1
    if span_x > _PACK_SPREAD * len(x) or span_y > _PACK_SPREAD * len(y):
        return None
    bits = (sum(max(map(abs, chain(*z.values()))).bit_length() for z in (x, y))
            + min(len(x), len(y)).bit_length() + 2)
    size = (bits + 7) // 8  # bytes per limb: limbs are read back as byte slices
    step = 8 * size

    def pack(z, exps, lo, part):
        return sum(c[part] << (step * (e - lo)) for e, c in zip(exps, z.values()))

    xr, xi = pack(x, ex, lo_x, 0), pack(x, ex, lo_x, 1)
    yr, yi = pack(y, ey, lo_y, 0), pack(y, ey, lo_y, 1)
    limbs = span_x + span_y - 1
    bias = int.from_bytes((b"\0" * (size - 1) + b"\x80") * limbs, "little")
    half = 1 << (step - 1)

    def unpack(v):
        data = (v + bias).to_bytes(size * limbs, "little")
        return [int.from_bytes(data[j:j + size], "little") - half
                for j in range(0, size * limbs, size)]

    re, im = unpack(xr * yr - xi * yi), unpack(xr * yi + xi * yr)
    return {((g, e),) if e else IDENTITY: (r, i)
            for e, r, i in zip(range(lo_x + lo_y, lo_x + lo_y + limbs), re, im) if r or i}


def _pair_trace(spec: GroupSpec, x: dict[Word, GaussInt],
                y: dict[Word, GaussInt]) -> GaussInt:
    """tau(x * y) = sum_w x(w) y(w^-1), without forming the product.

    Over Z (the free abelian group of rank 1) w^-1 is w at the negated
    exponent, so y is read by exponent and no word is inverted.
    """
    if isinstance(spec, FreeAbelianGroup) and len(spec.generators) == 1:
        by_exp = {w[0][1] if w else 0: c for w, c in y.items()}
        partners = [by_exp.get(-w[0][1] if w else 0, (0, 0)) for w in x]
    else:
        inv = spec._inv_normal
        partners = [y.get(inv(w), (0, 0)) for w in x]
    re = im = 0
    for (r1, i1), (r2, i2) in zip(x.values(), partners):
        re += r1 * r2 - i1 * i2
        im += r1 * i2 + i1 * r2
    return re, im


# The excursion DP takes about n^3 steps and a power over Z grows with n;
# selftest asks for order 40.  Every power that the convolution route forms
# keeps the size rule PARTS_MAX: a power of a* a over a free group can grow
# 4x per step (u*v + v + u has 2^(2j+1) - 1 words in its j-th).
MOMENT_ORDER_MAX = 64


def moments_up_to(a: AlgebraElement, n: int) -> list[Fraction]:
    """[tau((a* a)^j) for j = 1..n], exact, as a new list: a prefix of the
    longest moment list computed for `a`, which `a` keeps.

    Letter-supported elements over a free group take the excursion DP route
    (one table serves every j, tau((a* a)^j) being its entry 2j over D^(2j));
    everything else multiplies out the powers.  The generic power of a
    free-group element has exponentially many words, so the DP is the only
    practical route for large n there; both routes are exact and agree on
    their common range.

    The convolution route forms h = a* a in the algebra, puts h over the
    common denominator E of its coefficients (E divides D^2 for the common
    denominator D of a's), and convolves Gaussian-integer coefficients, so
    h^j is an integer element over E^j.  Only powers up to ceil(n/2) are
    formed: tau(h^j) = tau(h^ceil(j/2) h^floor(j/2)) is one pairing of them.
    Over Z each of those products is packed (see `_convolve`).

    An order above MOMENT_ORDER_MAX, or a power above PARTS_MAX
    words, is `MomentTooLarge`; a product is given up as soon as it meets
    more words than that (see `_convolve`).
    """
    if n < 1:
        raise ValueError("moments need n >= 1")
    if n > MOMENT_ORDER_MAX:
        raise MomentTooLarge(f"expected a moment order of at most {MOMENT_ORDER_MAX}, got {n}")
    if len(a._moments) < n:
        a._moments = _moments(a, n)
    return a._moments[:n]


def _moments(a: AlgebraElement, n: int) -> list[Fraction]:
    if isinstance(a.spec, FreeGroup):
        wa = _letter_weights(a)
        if wa is not None:
            traces = _free_walk_traces(_letter_weights(a.adjoint()), wa, 2 * n)
            return [_real_trace(traces[2 * j], a.d ** (2 * j)) for j in range(1, n + 1)]
    h = a.adjoint() * a
    e, h_int = h.d, h.ints
    powers = [{IDENTITY: (1, 0)}, h_int]
    while True:
        if powers[-1] is None or len(powers[-1]) > PARTS_MAX:
            raise MomentTooLarge(
                f"power {len(powers) - 1} of a* a has more than {PARTS_MAX} words")
        if len(powers) > (n + 1) // 2:
            break
        powers.append(_convolve(a.spec, powers[-1], powers[1], PARTS_MAX))
    return [
        _real_trace(_pair_trace(a.spec, powers[(j + 1) // 2], powers[j // 2]), e**j)
        for j in range(1, n + 1)
    ]


def moment_root_lower(a: AlgebraElement, m: Fraction, n: int, k: int) -> Fraction:
    """Grid floor of m^(1/2n) for the moment m = tau((a* a)^n) of `a`, which
    is at most |a|^(2n) <= l1^(2n); a larger m is `MomentAboveBound`."""
    return _moment_root(max(_l1_int(a), a.d), a.d, m, n, k)


def _moment_root(top: int, d: int, m: Fraction, n: int, k: int) -> Fraction:
    """`moment_root_lower` with max(l1, 1) = top/d, compared on integers."""
    if m.numerator * d ** (2 * n) > m.denominator * top ** (2 * n):
        raise MomentAboveBound(f"trace moment of order {n} exceeds max(l1, 1)^{2 * n}")
    return nth_root_lower_grid(m, 2 * n, k)


def lambda_norm_lower(a: AlgebraElement, n: int, k: int) -> Fraction:
    """Dyadic q with q <= tau((a* a)^n)^(1/2n) <= q + 2^-k (grid floor)."""
    return moment_root_lower(a, moments_up_to(a, n)[-1], n, k)


def lambda_norm_lower_sweep(a: AlgebraElement, n: int, k: int) -> list[Fraction]:
    """[lambda_norm_lower(a, j, k) for j = 1..n] from a single moment pass
    and a single l1 norm."""
    top = max(_l1_int(a), a.d)
    return [_moment_root(top, a.d, m, j, k)
            for j, m in enumerate(moments_up_to(a, n), start=1)]


# ---------------------------------------------------------------------------
# effective enumeration of the group algebra
# ---------------------------------------------------------------------------


def enumerate_group_algebra(spec: GroupSpec, index: int) -> AlgebraElement:
    """Deterministic enumeration of all finitely supported elements.

    Infinite groups: the index is a list code of (word-index gap, nonzero
    coefficient code) items with strictly increasing word indices.  Finite
    groups: the index is an iterated Cantor pair of one coefficient code per
    element (0 = absent).  Both are bijections, so the enumeration never
    repeats an element.  Index 0 is the zero element.
    """
    coeffs: dict[Word, GaussianRational] = {}
    if spec.finite_words is None:
        items = decode_list(index)
        word_index = -1
        for item in items:
            gap, coeff_code = unpair(item)
            word_index += gap + 1
            coeffs[spec.word_at(word_index)] = nat_to_gaussian(coeff_code + 1)
    else:
        codes = decode_tuple(index, spec.finite_words)
        for i, code in enumerate(codes):
            if code != 0:
                coeffs[spec.word_at(i)] = nat_to_gaussian(code)
    return AlgebraElement(spec, coeffs)


def group_algebra_index(a: AlgebraElement) -> int:
    """Inverse of `enumerate_group_algebra` (documents element positions)."""
    spec = a.spec
    if spec.finite_words is None:
        indexed = sorted((spec.index_of(w), c) for w, c in a.coeffs.items())
        items = []
        prev = -1
        for word_index, coeff in indexed:
            gap = word_index - prev - 1
            items.append(pair(gap, gaussian_to_nat(coeff) - 1))
            prev = word_index
        return encode_list(items)
    codes = [0] * spec.finite_words
    for w, c in a.coeffs.items():
        codes[spec.index_of(w)] = gaussian_to_nat(c)
    return encode_tuple(codes)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


# The keys each backend reads besides `backend:`.  A table's generators are
# its non-identity elements, so its `generators:` line is accepted, not read.
BACKEND_KEYS = {
    "free": ("generators",),
    "free_abelian": ("generators",),
    "table": ("generators", "elements", "identity", "table"),
    "rewriting": ("generators", "rules", "max_steps"),
}


def _rule(line: str) -> tuple[str, str]:
    lhs, sep, rhs = line.partition("->")
    if not sep:
        raise GroupError(f"bad rule line {line!r}")
    return lhs.strip(), rhs.strip()


def load_group_config(text: str) -> GroupSpec:
    """Parse the plain-text group description format.

    Keys: `backend:` names the group kind (free | free_abelian | table |
    rewriting), `generators:` (space-separated), plus `elements:`/`identity:`
    and `table:` rows for tables and `rules:` ("lhs -> rhs", empty rhs
    allowed) for rewriting, each row on a line after its key; optional
    `max_steps:` caps rewrite steps and word length.  A key its backend does
    not read (BACKEND_KEYS) is refused.  Rewriting needs two certificates:
    termination is the caller's, backed by the step budget, and confluence is
    checked.
    """
    fields: dict[str, str | list[str]] = {}
    rows = None  # the lines of the open `table:` or `rules:` section
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        key = key.strip()
        if sep and key in ("table", "rules"):
            if value.strip():
                raise GroupError(f"{key}: takes no value, its rows go on the lines below: {line!r}")
            rows = fields.setdefault(key, [])
        elif sep and key in ("backend", "generators", "elements", "identity", "max_steps"):
            fields[key] = value.strip()
            rows = None
        elif rows is not None:
            rows.append(line)
        else:
            raise GroupError(f"unrecognized config line {line!r}")
    kind = fields.pop("backend", None)
    if kind not in BACKEND_KEYS:
        raise GroupError(f"unknown backend {kind!r}")
    for key in fields:
        if key not in BACKEND_KEYS[kind]:
            raise GroupError(f"backend {kind} does not read {key}")
    generators = tuple(fields.get("generators", "").split())
    if kind == "free":
        return FreeGroup(generators)
    if kind == "free_abelian":
        return FreeAbelianGroup(generators)
    if kind == "table":
        if "identity" not in fields or not fields.get("elements", "").split():
            raise GroupError("table backend needs elements: and identity:")
        return TableGroup(tuple(fields["elements"].split()), fields["identity"],
                          [row.split() for row in fields.get("table", [])])
    max_steps = fields.get("max_steps", "10000")
    # int() reads every Unicode digit, a sign and underscores
    if not (max_steps.isascii() and max_steps.isdigit()):
        raise GroupError(f"max_steps must be ASCII decimal digits, got {max_steps!r}")
    return RewritingGroup(generators, [_rule(line) for line in fields.get("rules", [])],
                          int(max_steps))

"""Word-problem backends and exact arithmetic in the group algebra Q(i)G.

Words are tuples of (generator, exponent) runs with nonzero exponents.  A
GroupSpec couples generator names with a backend that solves the word problem
(free groups, free abelian groups, finite multiplication tables, and
user-certified terminating rewriting systems).  Algebra elements are finitely
supported maps from normal-form words to Gaussian rationals; the canonical
trace reads off the identity coefficient.

Norm bounds: `two_norm` computes sqrt(tau(a* a)) from the exact radicand,
`l1_norm` gives the certified operator-norm upper bound sum |coeff|, and
`lambda_norm_lower` produces grid-floor dyadic lower bounds from the trace
moments tau((a* a)^n)^(1/2n).  Moments are computed by generic convolution,
except that letter-supported elements of free groups use an exact first-return
excursion DP over cone types of the Cayley tree: the generic power has
exponentially many words, while the DP is polynomial in n and agrees with it
exactly.

Both moment routes run on Gaussian integers (re, im) over one common
denominator.  In the DP, D is the common denominator of the letter weights
and table entry m (walks of length m) is D^m times its value, so
tau((a* a)^j) is entry 2j over D^(2j).  In the convolution route, E is the
common denominator of h = a* a (a divisor of D^2 for the common denominator D
of a), h^j is an integer element over E^j, and tau(h^j) is read over E^j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .dyadic import nth_root_lower_grid, sqrt_interval
from .gaussian import ZERO, ContlogicError, GaussianRational, gr, over_common_denominator
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


class MixedGroups(GroupError):
    pass


class ComplexMoment(GroupError):
    """A trace moment tau((a* a)^j) came out non-real.

    tau((a* a)^j) is real for every a, so the word problem (say, a rewriting
    system that is not confluent) or the moment kernel is at fault.
    """


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


def invert_word(word: Word) -> Word:
    return tuple((name, -exp) for name, exp in reversed(word))


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------


class FreeBackend:
    """Free group: normal form is the freely reduced word."""

    finite_words = None  # infinitely many normal forms

    def __init__(self, generators: tuple[str, ...]):
        self.generators = generators

    def normal_form(self, word: Word, generators: tuple[str, ...]) -> Word:
        return _compress(list(word))


class FreeAbelianBackend:
    """Free abelian group: normal form sorts the exponent vector."""

    finite_words = None

    def __init__(self, generators: tuple[str, ...]):
        self.generators = generators

    def normal_form(self, word: Word, generators: tuple[str, ...]) -> Word:
        totals = {g: 0 for g in generators}
        for name, exp in word:
            totals[name] += exp
        return tuple((g, totals[g]) for g in generators if totals[g] != 0)


class TableBackend:
    """Finite group given by a multiplication table over named elements.

    Normal forms are the identity word () or a single (element_name, 1) run;
    every element name is a legal letter.  Group axioms are verified at
    construction.
    """

    def __init__(self, elements: tuple[str, ...], identity: str, table: list[list[str]]):
        self.elements = elements
        self.identity = identity
        index = {name: i for i, name in enumerate(elements)}
        if len(index) != len(elements):
            raise GroupError("duplicate element names")
        if identity not in index:
            raise GroupError(f"identity {identity!r} not among elements")
        n = len(elements)
        if len(table) != n or any(len(row) != n for row in table):
            raise GroupError("table must be square over the element list")
        self._mul = [[index[table[i][j]] for j in range(n)] for i in range(n)]
        self._index = index
        e = index[identity]
        for i in range(n):
            if self._mul[e][i] != i or self._mul[i][e] != i:
                raise GroupError("identity row/column mismatch")
        self._inv = [None] * n
        for i in range(n):
            for j in range(n):
                if self._mul[i][j] == e:
                    self._inv[i] = j
            if self._inv[i] is None:
                raise GroupError(f"element {elements[i]!r} has no inverse")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self._mul[self._mul[i][j]][k] != self._mul[i][self._mul[j][k]]:
                        raise GroupError("table is not associative")

    @property
    def finite_words(self) -> int:
        return len(self.elements)

    def normal_form(self, word: Word, generators: tuple[str, ...]) -> Word:
        e = self._index[self.identity]
        acc = e
        for name, exp in word:
            if name not in self._index:
                raise UnknownGenerator(f"unknown element {name!r}")
            x = self._index[name]
            if exp < 0:
                x = self._inv[x]
                exp = -exp
            for _ in range(exp):
                acc = self._mul[acc][x]
        if acc == e:
            return IDENTITY
        return ((self.elements[acc], 1),)


class RewritingBackend:
    """String rewriting over single-letter generators (inverse = uppercase).

    Rules "lhs -> rhs" are applied together with the free-reduction rules
    until a fixed point; termination is the caller's certificate, and a step
    budget rejects runaway systems with RewritingDiverged.
    """

    finite_words = None

    def __init__(self, generators: tuple[str, ...], rules: list[tuple[str, str]],
                 max_steps: int = 10000):
        for g in generators:
            if len(g) != 1 or not g.islower() or not g.isalpha():
                raise GroupError(
                    f"rewriting generators must be single lowercase letters, got {g!r}"
                )
        self.generators = generators
        alphabet = set(generators) | {g.upper() for g in generators}
        for lhs, rhs in rules:
            if not lhs:
                raise GroupError("empty rule left-hand side")
            for ch in lhs + rhs:
                if ch not in alphabet:
                    raise GroupError(f"rule uses letter {ch!r} outside the alphabet")
        reduction = [(g + g.upper(), "") for g in generators]
        reduction += [(g.upper() + g, "") for g in generators]
        self.rules = reduction + list(rules)
        self.max_steps = max_steps

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

    def word_to_string(self, word: Word) -> str:
        out = []
        for name, exp in word:
            letter = name if exp > 0 else name.upper()
            out.append(letter * abs(exp))
        return "".join(out)

    def string_to_word(self, s: str) -> Word:
        return _compress([(ch.lower(), 1 if ch.islower() else -1) for ch in s])

    def normal_form(self, word: Word, generators: tuple[str, ...]) -> Word:
        return self.string_to_word(self._reduce(self.word_to_string(word)))


@dataclass(frozen=True, eq=False)
class GroupSpec:
    """A finitely generated group with a word-problem solver."""

    generators: tuple[str, ...]
    backend: object
    name: str = "group"

    def normal_form(self, word: Word) -> Word:
        for name, exp in word:
            if not isinstance(self.backend, TableBackend) and name not in self.generators:
                raise UnknownGenerator(f"unknown generator {name!r}")
        return self.backend.normal_form(tuple(word), self.generators)

    def mul(self, a: Word, b: Word) -> Word:
        return self.normal_form(a + b)

    def inv(self, a: Word) -> Word:
        return self.normal_form(invert_word(a))


def free_group(*generators: str) -> GroupSpec:
    return GroupSpec(tuple(generators), FreeBackend(tuple(generators)), "free")


def free_abelian(*generators: str) -> GroupSpec:
    return GroupSpec(tuple(generators), FreeAbelianBackend(tuple(generators)), "free_abelian")


def table_group(elements: tuple[str, ...], identity: str, table: list[list[str]],
                generators: tuple[str, ...] | None = None) -> GroupSpec:
    backend = TableBackend(tuple(elements), identity, table)
    gens = tuple(generators) if generators else tuple(e for e in elements if e != identity)
    return GroupSpec(gens, backend, "table")


def rewriting_group(generators: tuple[str, ...], rules: list[tuple[str, str]],
                    max_steps: int = 10000) -> GroupSpec:
    return GroupSpec(tuple(generators), RewritingBackend(tuple(generators), rules, max_steps),
                     "rewriting")


# ---------------------------------------------------------------------------
# group algebra
# ---------------------------------------------------------------------------


class AlgebraElement:
    """Finitely supported map normal-form word -> Gaussian rational."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: GroupSpec, coeffs: dict[Word, GaussianRational],
                 *, _canonical: bool = False):
        self.spec = spec
        if _canonical:
            self.coeffs = coeffs
            return
        acc: dict[Word, GaussianRational] = {}
        for word, c in coeffs.items():
            if c.is_zero():
                continue
            nf = spec.normal_form(word)
            if nf in acc:
                total = acc[nf] + c
                if total.is_zero():
                    del acc[nf]
                else:
                    acc[nf] = total
            else:
                acc[nf] = c
        self.coeffs = acc

    # -- ring operations ------------------------------------------------------

    def _check(self, other: "AlgebraElement") -> None:
        if self.spec is not other.spec:
            raise MixedGroups("elements belong to different group specs")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        acc = dict(self.coeffs)
        for w, c in other.coeffs.items():
            total = acc.get(w, gr(0)) + c
            if total.is_zero():
                acc.pop(w, None)
            else:
                acc[w] = total
        return AlgebraElement(self.spec, acc, _canonical=True)

    def __neg__(self) -> "AlgebraElement":
        return self.scale(gr(-1))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def scale(self, lam: GaussianRational | Fraction | int) -> "AlgebraElement":
        if not isinstance(lam, GaussianRational):
            lam = gr(Fraction(lam))
        if lam.is_zero():
            return AlgebraElement(self.spec, {}, _canonical=True)
        return AlgebraElement(
            self.spec, {w: c * lam for w, c in self.coeffs.items()}, _canonical=True
        )

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        acc: dict[Word, GaussianRational] = {}
        for w1, c1 in self.coeffs.items():
            for w2, c2 in other.coeffs.items():
                w = self.spec.mul(w1, w2)
                c = c1 * c2
                total = acc.get(w, gr(0)) + c
                if total.is_zero():
                    acc.pop(w, None)
                else:
                    acc[w] = total
        return AlgebraElement(self.spec, acc, _canonical=True)

    def adjoint(self) -> "AlgebraElement":
        acc: dict[Word, GaussianRational] = {}
        for w, c in self.coeffs.items():
            acc[self.spec.inv(w)] = c.conjugate()
        return AlgebraElement(self.spec, acc)

    # -- inspection -----------------------------------------------------------

    def trace(self) -> GaussianRational:
        return self.coeffs.get(IDENTITY, gr(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> list[Word]:
        return sorted(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.spec is other.spec
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.spec), tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for w in self.support():
            word = "*".join(f"{g}^{e}" if e != 1 else g for g, e in w) or "1"
            parts.append(f"({self.coeffs[w]})*{word}")
        return " + ".join(parts)


def element(spec: GroupSpec, terms: list[tuple[GaussianRational | Fraction | int, Word]]
            ) -> AlgebraElement:
    coeffs: dict[Word, GaussianRational] = {}
    for c, w in terms:
        if not isinstance(c, GaussianRational):
            c = gr(Fraction(c))
        nf = spec.normal_form(w)
        coeffs[nf] = coeffs.get(nf, gr(0)) + c
    return AlgebraElement(spec, coeffs)


def identity_element(spec: GroupSpec) -> AlgebraElement:
    return element(spec, [(1, IDENTITY)])


def l1_norm(a: AlgebraElement) -> Fraction:
    """Certified rational upper bound on the lambda-operator norm."""
    return sum((c.abs_upper() for c in a.coeffs.values()), Fraction(0))


def two_norm(a: AlgebraElement, k: int) -> tuple[Fraction, Fraction]:
    """Dyadic interval of width <= 2^-k around sqrt(tau(a* a)).

    tau(a* a) = sum |coeff|^2 exactly, so the radicand needs no convolution.
    """
    radicand = sum((c.abs_sq() for c in a.coeffs.values()), Fraction(0))
    return sqrt_interval(radicand, k)


# ---------------------------------------------------------------------------
# trace moments
# ---------------------------------------------------------------------------

Letter = Optional[tuple[str, int]]  # None stands for the identity self-loop


def _letter_weights(a: AlgebraElement) -> Optional[dict[Letter, GaussianRational]]:
    """Weight map when every support word is a single letter or the identity."""
    weights: dict[Letter, GaussianRational] = {}
    for w, c in a.coeffs.items():
        if w == IDENTITY:
            weights[None] = c
        elif len(w) == 1 and abs(w[0][1]) == 1:
            weights[w[0]] = c
        else:
            return None
    return weights


GaussInt = tuple[int, int]


def _free_walk_traces(w0: dict[Letter, GaussianRational],
                      w1: dict[Letter, GaussianRational],
                      steps: int) -> tuple[int, list[GaussInt]]:
    """Weights of root-to-root walks of every length 0..steps on the Cayley
    tree, where step i draws its letter weight from w0 (i even) or w1.

    First-return excursion DP over cone types: a walk confined below a vertex
    decomposes into self-loops and excursions into children, and every cone of
    the tree looks alike except for the blocked parent direction.

    The DP runs on Gaussian integers: with D the common denominator of the
    letter weights, every length-m walk weight is a product of m weights, so
    the table entry for length m is D^m times the exact weight.  Returns D and
    those integer (re, im) entries for m = 0..steps.
    """
    letters = sorted(
        {s for s in w0 if s is not None} | {s for s in w1 if s is not None}
    )
    # weight keys, and blocked parent directions (None = the root)
    contexts: list[Letter] = letters + [None]
    d, parts = over_common_denominator(
        w.get(s, ZERO) for w in (w0, w1) for s in contexts
    )
    weight = (dict(zip(contexts, parts)), dict(zip(contexts, parts[len(contexts):])))
    inv = {s: (s[0], -s[1]) for s in letters}
    # dp[p][f][m] = D^m * weight of length-m walks v -> v below v, starting at
    # parity p with direction f blocked
    dp = [{f: [(1, 0)] for f in contexts} for _ in (0, 1)]
    # excursion[p][t][j] = weight of an excursion into child t from parity p
    # whose walk below the child has length j, without the step down (weight
    # [p][t], factored out of the sum over j): that walk times the step back up
    excursion: list[dict[Letter, list[GaussInt]]] = [
        {t: [] for t in letters} for _ in (0, 1)
    ]
    for m in range(1, steps + 1):
        for p in (0, 1):
            q = 1 - p
            for t in letters:
                xr, xi = dp[q][inv[t]][m - 1]
                br, bi = weight[(q + m - 1) % 2][inv[t]]
                excursion[p][t].append((xr * br - xi * bi, xr * bi + xi * br))
        for p in (0, 1):
            q = 1 - p
            wr, wi = weight[p][None]
            for f in contexts:
                xr, xi = dp[q][f][m - 1]
                re, im = wr * xr - wi * xi, wr * xi + wi * xr
                rest = (dp[p][f], dp[q][f])  # by the parity of the remaining walk
                for t in letters:
                    tr, ti = weight[p][t]
                    if t == f or not (tr or ti):
                        continue
                    sr = si = 0
                    for j, (er, ei) in enumerate(excursion[p][t][: m - 1]):
                        yr, yi = rest[j % 2][m - 2 - j]
                        sr += er * yr - ei * yi
                        si += er * yi + ei * yr
                    re += tr * sr - ti * si
                    im += tr * si + ti * sr
                dp[p][f].append((re, im))
    return d, dp[0][None]


def _real_trace(value: GaussInt, denominator: int) -> Fraction:
    re, im = value
    if im != 0:
        raise ComplexMoment("moment of a positive element must be real")
    return Fraction(re, denominator)


def _convolve(spec: GroupSpec, x: dict[Word, GaussInt],
              y: dict[Word, GaussInt]) -> dict[Word, GaussInt]:
    """The product x * y of integer-coefficient elements, zeros dropped."""
    acc: dict[Word, GaussInt] = {}
    for w1, (r1, i1) in x.items():
        for w2, (r2, i2) in y.items():
            w = spec.mul(w1, w2)
            r, i = acc.get(w, (0, 0))
            acc[w] = (r + r1 * r2 - i1 * i2, i + r1 * i2 + i1 * r2)
    return {w: c for w, c in acc.items() if c != (0, 0)}


def _pair_trace(spec: GroupSpec, x: dict[Word, GaussInt],
                y: dict[Word, GaussInt]) -> GaussInt:
    """tau(x * y) = sum_w x(w) y(w^-1), without forming the product."""
    re = im = 0
    for w, (r1, i1) in x.items():
        r2, i2 = y.get(spec.inv(w), (0, 0))
        re += r1 * r2 - i1 * i2
        im += r1 * i2 + i1 * r2
    return re, im


def moments_up_to(a: AlgebraElement, n: int) -> list[Fraction]:
    """[tau((a* a)^j) for j = 1..n], exact.

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
    """
    if n < 1:
        raise ValueError("moments need n >= 1")
    if isinstance(a.spec.backend, FreeBackend):
        wa = _letter_weights(a)
        if wa is not None:
            wstar = _letter_weights(a.adjoint())
            d, traces = _free_walk_traces(wstar, wa, 2 * n)
            return [_real_trace(traces[2 * j], d ** (2 * j)) for j in range(1, n + 1)]
    h = a.adjoint() * a
    e, parts = over_common_denominator(h.coeffs.values())
    powers = [{IDENTITY: (1, 0)}, dict(zip(h.coeffs, parts))]
    while len(powers) <= (n + 1) // 2:
        powers.append(_convolve(a.spec, powers[-1], powers[1]))
    return [
        _real_trace(_pair_trace(a.spec, powers[(j + 1) // 2], powers[j // 2]), e**j)
        for j in range(1, n + 1)
    ]


def _moment_root_lower(a: AlgebraElement, m: Fraction, n: int, k: int) -> Fraction:
    upper = max(l1_norm(a), Fraction(1))
    hi_pow2 = (upper.numerator // upper.denominator + 1).bit_length()
    return nth_root_lower_grid(m, 2 * n, k, hi_pow2=hi_pow2)


def lambda_norm_lower(a: AlgebraElement, n: int, k: int) -> Fraction:
    """Dyadic q with q <= tau((a* a)^n)^(1/2n) <= q + 2^-k (grid floor)."""
    if n < 1:
        raise ValueError("lambda_norm_lower needs n >= 1")
    return _moment_root_lower(a, moments_up_to(a, n)[-1], n, k)


def lambda_norm_lower_sweep(a: AlgebraElement, n: int, k: int) -> list[Fraction]:
    """[lambda_norm_lower(a, j, k) for j = 1..n] from a single moment pass."""
    return [
        _moment_root_lower(a, m, j, k)
        for j, m in enumerate(moments_up_to(a, n), start=1)
    ]


# ---------------------------------------------------------------------------
# effective enumeration of the group algebra
# ---------------------------------------------------------------------------


def _zigzag(e: int) -> int:
    return 2 * e - 1 if e > 0 else -2 * e


def _unzigzag(n: int) -> int:
    return (n + 1) // 2 if n % 2 == 1 else -(n // 2)


class _WordOrder:
    """Deterministic numbering of normal-form words for one GroupSpec."""

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        backend = spec.backend
        if isinstance(backend, FreeBackend):
            self.kind = "free"
            self.letters = []
            for g in spec.generators:
                self.letters.append((g, 1))
                self.letters.append((g, -1))
        elif isinstance(backend, FreeAbelianBackend):
            self.kind = "abelian"
        elif isinstance(backend, TableBackend):
            self.kind = "table"
            self.words = [IDENTITY] + [
                ((name, 1),) for name in backend.elements if name != backend.identity
            ]
        elif isinstance(backend, RewritingBackend):
            self.kind = "rewriting"
            self._cache: list[Word] = [IDENTITY]
            self._cache_index: dict[Word, int] = {IDENTITY: 0}
            self._next_length = 1
            # every substring of an irreducible string is irreducible, so a
            # length level with no new normal forms proves none longer exist
            self._exhausted = False
        else:
            raise GroupError(f"unsupported backend {backend!r}")

    @property
    def finite_count(self) -> Optional[int]:
        backend = self.spec.backend
        return backend.finite_words if isinstance(backend, TableBackend) else None

    # free group: words of length L ordered lexicographically in letter order

    def _free_letter_seq(self, word: Word) -> list[tuple[str, int]]:
        out = []
        for name, exp in word:
            step = 1 if exp > 0 else -1
            out.extend([(name, step)] * abs(exp))
        return out

    def _free_index(self, word: Word) -> int:
        seq = self._free_letter_seq(word)
        k2 = len(self.letters)
        if not seq:
            return 0
        length = len(seq)
        index = 1
        for length_j in range(1, length):
            index += k2 * (k2 - 1) ** (length_j - 1)
        lex = 0
        prev = None
        remaining = length
        for letter in seq:
            allowed = (
                self.letters
                if prev is None
                else [t for t in self.letters if t != (prev[0], -prev[1])]
            )
            lex = lex * len(allowed) + allowed.index(letter)
            prev = letter
            remaining -= 1
        return index + lex

    def _free_word(self, index: int) -> Word:
        if index == 0:
            return IDENTITY
        k2 = len(self.letters)
        index -= 1
        length = 1
        while True:
            count = k2 * (k2 - 1) ** (length - 1)
            if index < count:
                break
            index -= count
            length += 1
        seq: list[tuple[str, int]] = []
        sizes = [k2] + [k2 - 1] * (length - 1)
        digits = []
        for size in reversed(sizes):
            index, digit = divmod(index, size)
            digits.append(digit)
        digits.reverse()
        prev = None
        for digit in digits:
            allowed = (
                self.letters
                if prev is None
                else [t for t in self.letters if t != (prev[0], -prev[1])]
            )
            letter = allowed[digit]
            seq.append(letter)
            prev = letter
        return _compress(seq)

    # rewriting: irreducible strings by length then lex over the alphabet

    def _rewriting_alphabet(self) -> list[str]:
        out = []
        for g in self.spec.generators:
            out.append(g)
            out.append(g.upper())
        return out

    def _rewriting_grow(self) -> int:
        backend = self.spec.backend
        alphabet = self._rewriting_alphabet()
        length = self._next_length
        frontier = [""]
        for _ in range(length):
            frontier = [s + ch for s in frontier for ch in alphabet]
        added = 0
        for s in frontier:
            word = backend.string_to_word(s)
            if backend.normal_form(word, self.spec.generators) == word and (
                backend.word_to_string(word) == s
            ):
                if word not in self._cache_index:
                    self._cache_index[word] = len(self._cache)
                    self._cache.append(word)
                    added += 1
        self._next_length += 1
        if added == 0:
            self._exhausted = True
        return added

    def word_at(self, index: int) -> Word:
        if self.kind == "free":
            return self._free_word(index)
        if self.kind == "abelian":
            d = len(self.spec.generators)
            if d == 0:
                return IDENTITY
            exps = [_unzigzag(v) for v in decode_tuple(index, d)]
            return tuple(
                (g, e) for g, e in zip(self.spec.generators, exps) if e != 0
            )
        if self.kind == "table":
            return self.words[index]
        while index >= len(self._cache):
            if self._exhausted:
                raise GroupError(
                    f"word index {index} exceeds the {len(self._cache)} normal "
                    "forms of this finite rewriting group"
                )
            self._rewriting_grow()
        return self._cache[index]

    def index_of(self, word: Word) -> int:
        if self.kind == "free":
            return self._free_index(word)
        if self.kind == "abelian":
            totals = dict(word)
            exps = [_zigzag(totals.get(g, 0)) for g in self.spec.generators]
            return encode_tuple(exps) if exps else 0
        if self.kind == "table":
            return self.words.index(word)
        while word not in self._cache_index:
            if self._exhausted:
                raise GroupError(f"word {word!r} is not a normal form")
            self._rewriting_grow()
        return self._cache_index[word]


def _word_order(spec: GroupSpec) -> _WordOrder:
    """The spec's word order, cached on the spec so that it dies with it."""
    order = getattr(spec, "_word_order", None)
    if order is None:
        order = _WordOrder(spec)
        object.__setattr__(spec, "_word_order", order)
    return order


def enumerate_group_algebra(spec: GroupSpec, index: int) -> AlgebraElement:
    """Deterministic enumeration of all finitely supported elements.

    Infinite groups: the index is a list code of (word-index gap, nonzero
    coefficient code) items with strictly increasing word indices.  Finite
    groups: the index is an iterated Cantor pair of one coefficient code per
    element (0 = absent).  Both are bijections, so the enumeration never
    repeats an element.  Index 0 is the zero element.
    """
    order = _word_order(spec)
    finite = order.finite_count
    coeffs: dict[Word, GaussianRational] = {}
    if finite is None:
        items = decode_list(index)
        word_index = -1
        for item in items:
            gap, coeff_code = unpair(item)
            word_index += gap + 1
            coeffs[order.word_at(word_index)] = nat_to_gaussian(coeff_code + 1)
    else:
        codes = decode_tuple(index, finite)
        for i, code in enumerate(codes):
            if code != 0:
                coeffs[order.word_at(i)] = nat_to_gaussian(code)
    return AlgebraElement(spec, coeffs, _canonical=True)


def group_algebra_index(a: AlgebraElement) -> int:
    """Inverse of `enumerate_group_algebra` (documents element positions)."""
    order = _word_order(a.spec)
    finite = order.finite_count
    if finite is None:
        indexed = sorted((order.index_of(w), c) for w, c in a.coeffs.items())
        items = []
        prev = -1
        for word_index, coeff in indexed:
            gap = word_index - prev - 1
            items.append(pair(gap, gaussian_to_nat(coeff) - 1))
            prev = word_index
        return encode_list(items)
    codes = [0] * finite
    for w, c in a.coeffs.items():
        codes[order.index_of(w)] = gaussian_to_nat(c)
    return encode_tuple(codes)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def load_group_config(text: str) -> GroupSpec:
    """Parse the plain-text group description format.

    Keys: `backend:` (free | free_abelian | table | rewriting), `generators:`
    (space-separated), plus `elements:`/`identity:`/`table:` rows for tables
    and `rules:` lines ("lhs -> rhs", empty rhs allowed) for rewriting;
    optional `max_steps:` caps rewriting passes.
    """
    backend = None
    generators: tuple[str, ...] = ()
    elements: tuple[str, ...] = ()
    identity = None
    table_rows: list[list[str]] = []
    rules: list[tuple[str, str]] = []
    max_steps = 10000
    mode = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" in line and mode in (None, "table", "rules"):
            key, _, value = line.partition(":")
            key = key.strip()
            value = value.strip()
            if key in ("backend", "generators", "elements", "identity", "max_steps"):
                mode = None
                if key == "backend":
                    backend = value
                elif key == "generators":
                    generators = tuple(value.split())
                elif key == "elements":
                    elements = tuple(value.split())
                elif key == "identity":
                    identity = value
                elif key == "max_steps":
                    max_steps = int(value)
                continue
            if key == "table":
                mode = "table"
                continue
            if key == "rules":
                mode = "rules"
                continue
        if mode == "table":
            table_rows.append(line.split())
            continue
        if mode == "rules":
            lhs, sep, rhs = line.partition("->")
            if not sep:
                raise GroupError(f"bad rule line {line!r}")
            rules.append((lhs.strip(), rhs.strip()))
            continue
        raise GroupError(f"unrecognized config line {line!r}")
    if backend == "free":
        return free_group(*generators)
    if backend == "free_abelian":
        return free_abelian(*generators)
    if backend == "table":
        if identity is None or not elements:
            raise GroupError("table backend needs elements: and identity:")
        return table_group(elements, identity, table_rows,
                           generators or None)
    if backend == "rewriting":
        return rewriting_group(generators, rules, max_steps)
    raise GroupError(f"unknown backend {backend!r}")

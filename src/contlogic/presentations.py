"""Computable presentations: enumerated rational points plus norm oracles.

A presentation couples a deterministic enumeration of rational points with a
norm oracle in one of two certification modes:

  - TwoSided: every query returns an interval of width <= 2^-k around the
    true norm;
  - LowerOnly: queries return certified lower bounds, nondecreasing in the
    search budget, together with a certified global upper bound.

Concrete instances: the matrix tower presentation (tracial, 2-norm oracle),
group von Neumann algebras (2-norm), reduced group C*-algebras (moment lower
bounds under an l1 upper bound, upgraded to TwoSided over free abelian groups
via the torus sup-norm), and the commutative algebra of locally constant
functions on Cantor space (exact sup-norm).

A rational point is its natural index, which `point_object` alone decodes
(docs/encodings.md) into a term over special points, computing and caching
each object once by index.  Terms are evaluated with their objects' own `*`,
`adjoint()` and `comb()`; only the matrix tower overrides these, to bring
matrices to one size first.

Objects (`matrices.Matrix`, `groups.AlgebraElement`, `CantorFn`) are Gaussian
integers over one denominator D in lowest terms, so operations run on
integers and each norm oracle reads its radicand off them (over D^2); the `d`
atom |(a - b)/2| is one integer combination and its norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Optional

from . import groups as G
from . import matrices as M
from .dyadic import sqrt_interval
from .formulas import CSTAR, TVNA, Signature, rounded_bound_ok
from .gaussian import (ContlogicError, GaussianRational, combination, from_gaussian_int, gr,
                       over_common_denominator)
from .pairing import unpair as cantor_unpair, decode_tuple, nat_to_gaussian
from .torus import torus_sup_norm

TWO_SIDED = "two_sided"
LOWER_ONLY = "lower_only"

_TRACE_POWER_CAP = 8  # trace-squaring exponent cap for special-point bounds
_HALF, _MINUS_HALF = gr(Fraction(1, 2)), gr(Fraction(-1, 2))
_ZERO, _ONE = Fraction(0), Fraction(1)


class PresentationError(ContlogicError):
    pass


class Presentation:
    """Base class wiring point enumeration, object evaluation and oracles."""

    name: str
    signature: Signature
    mode: str

    def __init__(self):
        self._point_cache: dict[int, object] = {}

    # subclasses implement `_special` and `norm_interval`; the algebra
    # operations default to the objects' own `*`, `adjoint()` and `comb()`
    def _special(self, index: int):
        raise NotImplementedError

    def _mul(self, a, b):
        return a * b

    def _adj(self, a):
        return a.adjoint()

    def _comb(self, lam, mu, a, b):
        return a.comb(lam, mu, b)

    def norm_interval(self, obj, k: int, budget: Optional[int] = None
                      ) -> tuple[Fraction, Fraction]:
        """The norm oracle: a sound enclosure, of width <= 2^-k in TwoSided
        mode; in LowerOnly mode a lower bound nondecreasing in `budget`
        under a certified global upper bound."""
        raise NotImplementedError

    def trace_int(self, obj) -> tuple[int, int, int]:  # the trace (re + i*im)/D
        raise PresentationError(f"{self.name} has no trace")

    # -- shared machinery -----------------------------------------------------

    def rational_point(self, index: int) -> int:
        """Rational point `index`, which is its own index."""
        return index

    def default_constant_point(self, index: int) -> Optional[int]:
        """Built-in binding for the fresh constant c_index, if any."""
        return None

    def point_object(self, index: int):
        """The object of rational point `index`, decoded as docs/encodings.md
        freezes it.  On algebra signatures tag = index mod 4: 0 special point
        index//4, 1 adjoint, 2 product of the Cantor pair of factor indices,
        3 rounded combination pair(pair(lam, mu), pair(left, right)) with
        coefficient pairs violating |lam|+|mu| <= 1 collapsed to (1, 0);
        without combinations every point is special.  A negative index is a
        ValueError."""
        obj = self._point_cache.get(index)  # no object is None
        if obj is not None:
            return obj
        if index < 0:
            raise ValueError(f"point index must be >= 0, got {index}")
        tag, rest = index % 4, index // 4
        if not self.signature.allow_comb:
            obj = self._special(index)
        elif tag == 0:
            obj = self._special(rest)
        elif tag == 1:
            obj = self._adj(self.point_object(rest))
        elif tag == 2:
            a, b = cantor_unpair(rest)
            obj = self._mul(self.point_object(a), self.point_object(b))
        else:
            coeffs, sides = cantor_unpair(rest)
            lam_code, mu_code = cantor_unpair(coeffs)
            lam, mu = nat_to_gaussian(lam_code), nat_to_gaussian(mu_code)
            if not rounded_bound_ok(lam, mu):
                lam, mu = gr(1), gr(0)
            a, b = cantor_unpair(sides)
            obj = self._comb(lam, mu, self.point_object(a), self.point_object(b))
        self._point_cache[index] = obj
        return obj

    # -- atomic predicate evaluation (used by the evaluator) -------------------

    def atom_interval(self, pred: str, objs: list, k: int,
                      budget: Optional[int] = None) -> tuple[Fraction, Fraction]:
        """A function of (pred, objs by value, k, budget), which the evaluator
        relies on to ask once per distinct atom of a call."""
        if pred == "d":
            obj = self._comb(_HALF, _MINUS_HALF, objs[0], objs[1])
            lo, hi = self.norm_interval(obj, k, budget=budget)
            return (max(lo, _ZERO), min(hi, _ONE))
        if pred in ("tr_re", "tr_im"):
            d, re, im = self.trace_int(objs[0])
            # (part + 1)/2 = (D*part + D)/2D, clipped into [0, 1]
            scaled = Fraction(min(max((re if pred == "tr_re" else im) + d, 0), 2 * d), 2 * d)
            return (scaled, scaled)
        raise PresentationError(f"unknown predicate {pred!r} in {self.name}")


# ---------------------------------------------------------------------------
# matrix tower presentation (tracial model from nested matrix algebras)
# ---------------------------------------------------------------------------


class MatrixTowerPresentation(Presentation):
    """Special point (m, n) is matrix A_n scaled by its trace-power bound
    opnorm_upper(A_n, min(m, cap)), a certified member of the operator-norm
    unit ball; the oracle computes the normalized-trace 2-norm exactly."""

    name = "R"
    signature = TVNA
    mode = TWO_SIDED

    def _special(self, index: int):
        m, n = cantor_unpair(index)
        a = M.enumerate_matrices(n)
        if a.is_zero():
            return a
        bound = M.opnorm_upper(a, min(m, _TRACE_POWER_CAP))
        return a.scale(1 / bound)

    @staticmethod
    def _align(a: M.Matrix, b: M.Matrix) -> tuple[M.Matrix, M.Matrix]:
        n = max(a.n, b.n)
        return M.embed_to_size(a, n), M.embed_to_size(b, n)

    def _mul(self, a, b):
        a, b = self._align(a, b)
        return a * b

    def _comb(self, lam, mu, a, b):
        a, b = self._align(a, b)
        return a.comb(lam, mu, b)

    def norm_interval(self, obj, k, budget=None):
        return M.two_norm(obj, k)

    def trace_int(self, obj):
        return obj.normalized_trace_int()


# ---------------------------------------------------------------------------
# group algebra presentations
# ---------------------------------------------------------------------------


class GroupAlgebraPresentation(Presentation):
    """Shared by L(Gamma) and C*_lambda(Gamma): special points are enumerated
    algebra elements normalized by their l1 bound, under the algebra's own
    product, adjoint and combinations."""

    label: str

    def __init__(self, spec: G.GroupSpec):
        super().__init__()
        self.spec = spec
        self.name = f"{self.label}({spec.name})"

    def _special(self, index: int):
        g = G.enumerate_group_algebra(self.spec, index)
        bound = G.l1_norm(g)
        return g.scale(1 / bound) if bound > 1 else g


class GroupVonNeumannPresentation(GroupAlgebraPresentation):
    """L(Gamma): the 2-norm oracle is exact via the canonical trace."""

    label = "L"
    signature = TVNA
    mode = TWO_SIDED

    def norm_interval(self, obj, k, budget=None):
        return G.two_norm(obj, k)

    def trace_int(self, obj):
        return obj.trace_int()


class ReducedCstarPresentation(GroupAlgebraPresentation):
    """C*_lambda(Gamma): moment lower bounds against the l1 upper bound.

    Over free abelian groups the lambda norm is the torus sup-norm of the
    attached trigonometric polynomial, which upgrades the oracle to TwoSided.
    """

    label = "Cstar_lambda"
    signature = CSTAR
    default_budget = 8

    def __init__(self, spec: G.GroupSpec):
        super().__init__(spec)
        self.abelian = isinstance(spec, G.FreeAbelianGroup)
        self.mode = TWO_SIDED if self.abelian else LOWER_ONLY

    def _torus_support(self, obj: G.AlgebraElement):
        return {tuple(dict(word).get(g, 0) for g in self.spec.generators): coeff
                for word, coeff in obj.coeffs.items()}

    def norm_interval(self, obj, k, budget=None):
        if self.abelian:
            return torus_sup_norm(self._torus_support(obj), k)
        if budget is None:
            budget = self.default_budget
        if obj.is_zero():
            return (Fraction(0), Fraction(0))
        # tau is a state, so tau((a* a)^n)^(1/2n) is nondecreasing in n
        # (Lyapunov): the root at n = budget is the best of the sweep's
        return (G.lambda_norm_lower(obj, budget, k), G.l1_norm(obj))


# ---------------------------------------------------------------------------
# locally constant functions on Cantor space
# ---------------------------------------------------------------------------


def _is_leaf(tree) -> bool:
    return type(tree[0]) is int


def _leaf_parts(tree) -> tuple[int, ...]:
    """re, im of every leaf, left to right."""
    return tree if _is_leaf(tree) else _leaf_parts(tree[0]) + _leaf_parts(tree[1])


def _zip_leaves(a, b, op):
    """op(*leaf_a, *leaf_b) on two trees split alike, where a leaf against a
    split stands for itself on both sides; equal sibling leaves merge.  On a
    tree and itself it maps op over the leaves."""
    if _is_leaf(a) and _is_leaf(b):
        return op(*a, *b)
    al, ar = (a, a) if _is_leaf(a) else a
    bl, br = (b, b) if _is_leaf(b) else b
    left, right = _zip_leaves(al, bl, op), _zip_leaves(ar, br, op)
    return left if left == right and _is_leaf(left) else (left, right)


@dataclass(frozen=True)
class CantorFn:
    """Locally constant Q(i)-valued function on 2^omega.

    `tree` is a leaf (re, im) of ints, the value (re + i*im)/d on its
    cylinder, or a pair of subtrees (split on the next coordinate).  Equal
    sibling leaves are merged and d is in lowest terms, so equal functions
    have equal fields.  `CantorFn(d, tree)` trusts its integers; `from_tree`
    and `leaves()` take and give GaussianRational values."""

    d: int
    tree: object

    @staticmethod
    def _make(d: int, tree) -> "CantorFn":
        """tree over d, put in lowest terms."""
        g = gcd(d, *_leaf_parts(tree))
        if g > 1:
            d, tree = d // g, _zip_leaves(tree, tree, lambda r, i, *_: (r // g, i // g))
        return CantorFn(d, tree)

    @staticmethod
    def from_tree(tree) -> "CantorFn":
        if isinstance(tree, GaussianRational):
            d, (leaf,) = over_common_denominator([tree])
            return CantorFn(d, leaf)
        left, right = CantorFn.from_tree(tree[0]), CantorFn.from_tree(tree[1])
        d = lcm(left.d, right.d)  # both halves over d stay in lowest terms
        tl, tr = (_zip_leaves(f.tree, f.tree, lambda r, i, *_, c=d // f.d: (r * c, i * c))
                  for f in (left, right))
        return CantorFn(d, tl if tl == tr and _is_leaf(tl) else (tl, tr))

    def __mul__(self, other: "CantorFn") -> "CantorFn":
        return CantorFn._make(self.d * other.d, _zip_leaves(
            self.tree, other.tree, lambda a, b, c, e: (a * c - b * e, a * e + b * c)))

    def comb(self, lam, mu, other: "CantorFn") -> "CantorFn":
        """lam*self + mu*other, over the lcm of both denominators."""
        d, lr, li, mr, mi = combination(lam, mu, self.d, other.d)
        return CantorFn._make(d, _zip_leaves(
            self.tree, other.tree, lambda a, b, c, e: (lr * a - li * b + mr * c - mi * e,
                                                       li * a + lr * b + mi * c + mr * e)))

    def adjoint(self) -> "CantorFn":
        return CantorFn(self.d, _zip_leaves(self.tree, self.tree, lambda r, i, *_: (r, -i)))

    def leaves(self) -> list[GaussianRational]:
        parts = _leaf_parts(self.tree)
        return [from_gaussian_int(self.d, r, i) for r, i in zip(parts[::2], parts[1::2])]

    def sup_abs_sq(self) -> Fraction:
        sq = [x * x for x in _leaf_parts(self.tree)]
        return Fraction(max(map(add, sq[::2], sq[1::2])), self.d * self.d)


class CantorSpacePresentation(Presentation):
    """C(2^omega): special points are locally constant functions on dyadic
    cylinders with each leaf clipped into the closed unit disc; the sup-norm
    radicand max |leaf|^2 is exact."""

    name = "C2w"
    signature = CSTAR
    mode = TWO_SIDED

    def _special(self, index: int):
        n = index + 1
        depth = (n & -n).bit_length() - 1
        j = ((n >> depth) - 1) // 2
        count = 1 << depth
        codes = decode_tuple(j, count)
        leaves = []
        for code in codes:
            z = nat_to_gaussian(code)
            if z.abs_sq() > 1:
                z = z / gr(z.abs_upper())
            leaves.append(z)
        tree: list = list(leaves)
        while len(tree) > 1:
            tree = [(tree[i], tree[i + 1]) for i in range(0, len(tree), 2)]
        return CantorFn.from_tree(tree[0])

    def norm_interval(self, obj: CantorFn, k, budget=None):
        return sqrt_interval(obj.sup_abs_sq(), k)


# ---------------------------------------------------------------------------
# spec-level constructors
# ---------------------------------------------------------------------------


def presentation_R() -> MatrixTowerPresentation:
    return MatrixTowerPresentation()


def presentation_L(spec: G.GroupSpec) -> GroupVonNeumannPresentation:
    return GroupVonNeumannPresentation(spec)


def presentation_CstarLambda(spec: G.GroupSpec) -> ReducedCstarPresentation:
    return ReducedCstarPresentation(spec)


def presentation_C2w() -> CantorSpacePresentation:
    return CantorSpacePresentation()

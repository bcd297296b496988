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

A presentation only enumerates and bounds.  A rational point is its natural
index, which `point_object` alone decodes (docs/encodings.md) into a term
over special points, computing and caching each object once by index.  The
algebra is the objects' own `*`, `adjoint()`, `comb()` and `trace_int()`,
which align their own towers; no presentation overrides them.

Objects (`matrices.Matrix`, `groups.AlgebraElement`, `CantorFn`) are
`gaussian.GaussianInts`: Gaussian integers over one denominator D in lowest
terms, whose combinations and equality the base class owns, so operations
run on integers and each norm oracle reads its radicand off them (over
D^2); the `d` atom |(a - b)/2| is one integer combination and its norm.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from . import groups as G
from . import matrices as M
from .dyadic import sqrt_interval
from .formulas import CSTAR, TVNA, Signature, rounded_bound_ok
from .gaussian import (PARTS_MAX, ContlogicError, GaussianInts, GaussianRational, gr,
                       over_common_denominator)
from .pairing import unpair as cantor_unpair, decode_tuple, nat_to_gaussian
from .torus import torus_sup_norm

_TRACE_POWER_CAP = 8  # trace-squaring exponent cap for special-point bounds
_HALF, _MINUS_HALF = gr(Fraction(1, 2)), gr(Fraction(-1, 2))
_ZERO, _ONE = Fraction(0), Fraction(1)


class PresentationError(ContlogicError):
    pass


class Presentation:
    """Base class wiring point enumeration, object evaluation and oracles."""

    name: str
    signature: Signature

    def __init__(self):
        self._point_cache: dict[int, object] = {}

    # subclasses implement `_special` and `norm_interval`
    def _special(self, index: int):
        raise NotImplementedError

    def norm_interval(self, obj, k: int, budget: Optional[int] = None
                      ) -> tuple[Fraction, Fraction]:
        """The norm oracle: a sound enclosure, of width <= 2^-k in TwoSided
        mode; in LowerOnly mode a lower bound nondecreasing in `budget`
        under a certified global upper bound."""
        raise NotImplementedError

    # -- shared machinery -----------------------------------------------------

    # `perfbench/workloads.py` binds constants through this name; nothing in
    # the package calls it
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
            obj = self.point_object(rest).adjoint()
        elif tag == 2:
            a, b = cantor_unpair(rest)
            obj = self.point_object(a) * self.point_object(b)
        else:
            coeffs, sides = cantor_unpair(rest)
            lam_code, mu_code = cantor_unpair(coeffs)
            lam, mu = nat_to_gaussian(lam_code), nat_to_gaussian(mu_code)
            if not rounded_bound_ok(lam, mu):
                lam, mu = gr(1), gr(0)
            a, b = cantor_unpair(sides)
            obj = self.point_object(a).comb(lam, mu, self.point_object(b))
        self._point_cache[index] = obj
        return obj

    # -- atomic predicate evaluation (used by the evaluator) -------------------

    def atom_interval(self, pred: str, objs: list, k: int,
                      budget: Optional[int] = None) -> tuple[Fraction, Fraction]:
        """A function of (pred, objs by value, k, budget), which the evaluator
        relies on to ask once per distinct atom of a call."""
        if pred not in self.signature.predicates:
            raise PresentationError(f"unknown predicate {pred!r} in {self.name}")
        if pred == "d":
            obj = objs[0].comb(_HALF, _MINUS_HALF, objs[1])
            lo, hi = self.norm_interval(obj, k, budget=budget)
            return (max(lo, _ZERO), min(hi, _ONE))
        d, re, im = objs[0].trace_int()  # tr_re or tr_im, the other predicates
        # (part + 1)/2 = (D*part + D)/2D, clipped into [0, 1]
        scaled = Fraction(min(max((re if pred == "tr_re" else im) + d, 0), 2 * d), 2 * d)
        return (scaled, scaled)


# ---------------------------------------------------------------------------
# matrix tower presentation (tracial model from nested matrix algebras)
# ---------------------------------------------------------------------------


class MatrixTowerPresentation(Presentation):
    """Special point (m, n) is matrix A_n scaled by its trace-power bound
    opnorm_upper(A_n, min(m, cap)), a certified member of the operator-norm
    unit ball; the oracle computes the normalized-trace 2-norm exactly."""

    name = "R"
    signature = TVNA

    def _special(self, index: int):
        m, n = cantor_unpair(index)
        a = M.enumerate_matrices(n)
        if a.is_zero():
            return a
        bound = M.opnorm_upper(a, min(m, _TRACE_POWER_CAP))
        return a.scale(1 / bound)

    def norm_interval(self, obj, k, budget=None):
        return M.two_norm(obj, k)


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

    def norm_interval(self, obj, k, budget=None):
        return G.two_norm(obj, k)


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


class CantorFn(GaussianInts):
    """Locally constant Q(i)-valued function on 2^omega.

    `parts` holds its values (re + i*im)/d, as pairs of ints, on the 2^k
    cylinders of depth k, left to right, for the least k at which it is
    constant on each cylinder (the layout is None); d is in lowest terms, so
    equal functions have equal fields.  `_new` puts values in that form;
    `from_tree` takes GaussianRational values and `values()` gives them."""

    __slots__ = ()

    @classmethod
    def _new(cls, layout, d: int, parts) -> "CantorFn":
        """Values over d on the 2^k cylinders of one depth k, put at the
        least depth and in lowest terms."""
        while len(parts) > 1 and parts[::2] == parts[1::2]:
            parts = parts[::2]
        return cls._make(None, d, parts)

    @staticmethod
    def from_tree(tree) -> "CantorFn":
        """The function of a tree: a GaussianRational is constant on its
        cylinder, a pair splits it on the next coordinate."""
        level = [tree]  # the cylinders of one depth, split until all are values
        while not all(isinstance(t, GaussianRational) for t in level):
            level = [s for t in level for s in ((t, t) if isinstance(t, GaussianRational) else t)]
        return CantorFn._new(None, *over_common_denominator(level))

    def _aligned(self, other: "CantorFn"):
        """Pairs of both operands' values on the cylinders of the deeper one."""
        n = max(len(self.parts), len(other.parts))
        a, b = ([p for p in f.parts for _ in range(n // len(f.parts))] for f in (self, other))
        return None, zip(a, b)

    def __mul__(self, other: "CantorFn") -> "CantorFn":
        _, pairs = self._aligned(other)
        return CantorFn._new(None, self.d * other.d,
                             [(a * c - b * e, a * e + b * c) for (a, b), (c, e) in pairs])

    def adjoint(self) -> "CantorFn":
        return CantorFn._make(None, self.d, [(r, -i) for r, i in self.parts])

    def sup_abs_sq(self) -> Fraction:
        return Fraction(max(r * r + i * i for r, i in self.parts), self.d * self.d)


class CantorSpacePresentation(Presentation):
    """C(2^omega): special points are locally constant functions on dyadic
    cylinders with each value clipped into the closed unit disc; the sup-norm
    radicand max |value|^2 is exact."""

    name = "C2w"
    signature = CSTAR

    def _special(self, index: int):
        n = index + 1
        depth = (n & -n).bit_length() - 1
        if 1 << depth > PARTS_MAX:  # the size rule of enumerated objects
            raise PresentationError(
                f"expected a function of depth at most {PARTS_MAX.bit_length() - 1}, "
                f"got depth {depth}")
        j = ((n >> depth) - 1) // 2
        values = []
        for code in decode_tuple(j, 1 << depth):
            z = nat_to_gaussian(code)
            if z.abs_sq() > 1:
                bound = z.abs_upper()
                z = GaussianRational(z.re / bound, z.im / bound)
            values.append(z)
        return CantorFn._new(None, *over_common_denominator(values))

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

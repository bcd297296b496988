"""Computable presentations: enumerated rational points plus norm oracles.

A presentation couples a deterministic enumeration of rational points (closed
term DAGs over enumerated special points) with a norm oracle in one of two
certification modes:

  - TwoSided: every query returns an interval of width <= 2^-k around the
    true norm;
  - LowerOnly: queries return certified lower bounds, nondecreasing in the
    search budget, together with a certified global upper bound.

Concrete instances: the matrix tower presentation (tracial, 2-norm oracle),
group von Neumann algebras (2-norm), reduced group C*-algebras (moment lower
bounds under an l1 upper bound, upgraded to TwoSided over free abelian groups
via the torus sup-norm), and the commutative algebra of locally constant
functions on Cantor space (exact sup-norm).

Points are evaluated with their objects' own `*`, `adjoint()` and `comb()`;
only the matrix tower overrides these, to bring matrices to one size first.
Each presentation computes every point object, special points included, once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from . import groups as G
from . import matrices as M
from .formulas import CSTAR, TVNA, Signature, rounded_bound_ok
from .gaussian import ContlogicError, GaussianRational, gr
from .pairing import pair as cantor_pair, unpair as cantor_unpair, decode_tuple, nat_to_gaussian
from .torus import torus_sup_norm

TWO_SIDED = "two_sided"
LOWER_ONLY = "lower_only"

_TRACE_POWER_CAP = 8  # trace-squaring exponent cap for special-point bounds


class PresentationError(ContlogicError):
    pass


class ModeMismatch(PresentationError):
    pass


# ---------------------------------------------------------------------------
# rational points as term DAGs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PSpecial:
    index: int


@dataclass(frozen=True)
class PAdj:
    arg: "RationalPoint"


@dataclass(frozen=True)
class PMul:
    left: "RationalPoint"
    right: "RationalPoint"


@dataclass(frozen=True)
class PComb:
    lam: GaussianRational
    mu: GaussianRational
    left: "RationalPoint"
    right: "RationalPoint"


RationalPoint = Union[PSpecial, PAdj, PMul, PComb]


def point_rounded_bounds_ok(point: RationalPoint) -> bool:
    if isinstance(point, PSpecial):
        return True
    if isinstance(point, PAdj):
        return point_rounded_bounds_ok(point.arg)
    if isinstance(point, PMul):
        return point_rounded_bounds_ok(point.left) and point_rounded_bounds_ok(point.right)
    return (
        rounded_bound_ok(point.lam, point.mu)
        and point_rounded_bounds_ok(point.left)
        and point_rounded_bounds_ok(point.right)
    )


def algebra_point_at(index: int) -> RationalPoint:
    """Term enumeration for algebra presentations.

    tag = index mod 4: 0 special |index//4|, 1 adjoint, 2 product via a
    Cantor pair of the factor indices (so the product of points i and j
    appears at 4*pair(i,j)+2), 3 rounded combination with coefficient pair
    codes; coefficient pairs violating |lam|+|mu| <= 1 collapse to (1, 0).
    """
    tag, rest = index % 4, index // 4
    if tag == 0:
        return PSpecial(rest)
    if tag == 1:
        return PAdj(algebra_point_at(rest))
    if tag == 2:
        a, b = cantor_unpair(rest)
        return PMul(algebra_point_at(a), algebra_point_at(b))
    coeffs, sides = cantor_unpair(rest)
    lam_code, mu_code = cantor_unpair(coeffs)
    lam, mu = nat_to_gaussian(lam_code), nat_to_gaussian(mu_code)
    if not rounded_bound_ok(lam, mu):
        lam, mu = gr(1), gr(0)
    a, b = cantor_unpair(sides)
    return PComb(lam, mu, algebra_point_at(a), algebra_point_at(b))


def product_point_index(i: int, j: int) -> int:
    """Documented position of the product of points i and j."""
    return 4 * cantor_pair(i, j) + 2


@dataclass(frozen=True)
class NormResult:
    """Norm oracle output; `value` is set in TwoSided mode only."""

    mode: str
    lower: Fraction
    upper: Fraction
    value: Optional[Fraction] = None


class Presentation:
    """Base class wiring point enumeration, object evaluation and oracles."""

    name: str
    signature: Signature
    mode: str

    def __init__(self):
        self._point_cache: dict[RationalPoint, object] = {}

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
        """Sound enclosure of the norm; width <= 2^-k in TwoSided mode."""
        raise NotImplementedError

    def trace(self, obj) -> GaussianRational:
        raise PresentationError(f"{self.name} has no trace")

    # -- shared machinery -----------------------------------------------------

    def special_object(self, index: int):
        return self.point_object(PSpecial(index))

    def rational_point(self, index: int) -> RationalPoint:
        if self.signature.allow_comb:
            return algebra_point_at(index)
        return PSpecial(index)

    def default_constant_point(self, index: int) -> Optional[RationalPoint]:
        """Built-in binding for the fresh constant c_index, if any."""
        return None

    def point_object(self, point: RationalPoint):
        if point in self._point_cache:
            return self._point_cache[point]
        if isinstance(point, PSpecial):
            obj = self._special(point.index)
        elif isinstance(point, PAdj):
            obj = self._adj(self.point_object(point.arg))
        elif isinstance(point, PMul):
            obj = self._mul(self.point_object(point.left), self.point_object(point.right))
        elif isinstance(point, PComb):
            if not rounded_bound_ok(point.lam, point.mu):
                raise PresentationError("rounded-combination bound violated")
            obj = self._comb(
                point.lam, point.mu,
                self.point_object(point.left), self.point_object(point.right),
            )
        else:
            raise PresentationError(f"not a rational point: {point!r}")
        self._point_cache[point] = obj
        return obj

    def norm_oracle(self, point: RationalPoint, k: int,
                    budget: Optional[int] = None) -> NormResult:
        """Per-mode oracle: a dyadic value within 2^-k (TwoSided), or
        certified (lower, global upper) bounds (LowerOnly)."""
        obj = self.point_object(point)
        if self.mode == TWO_SIDED:
            lo, hi = self.norm_interval(obj, k + 1)
            return NormResult(TWO_SIDED, lower=lo, upper=hi, value=lo)
        lo, hi = self.norm_interval(obj, k, budget=budget)
        return NormResult(LOWER_ONLY, lower=lo, upper=hi)

    # -- atomic predicate evaluation (used by the evaluator) -------------------

    def atom_interval(self, pred: str, objs: list, k: int,
                      budget: Optional[int] = None) -> tuple[Fraction, Fraction]:
        if pred == "d":
            half = gr(Fraction(1, 2))
            obj = self._comb(half, -half, objs[0], objs[1])
            lo, hi = self.norm_interval(obj, k, budget=budget)
            return (max(lo, Fraction(0)), min(hi, Fraction(1)))
        if pred in ("tr_re", "tr_im"):
            t = self.trace(objs[0])
            part = t.re if pred == "tr_re" else t.im
            scaled = (part + 1) / 2
            scaled = min(max(scaled, Fraction(0)), Fraction(1))
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
        return a.scale(gr(Fraction(1) / bound))

    @staticmethod
    def _align(a: M.Matrix, b: M.Matrix) -> tuple[M.Matrix, M.Matrix]:
        n = max(a.n, b.n)
        return M.embed_to_size(a, n), M.embed_to_size(b, n)

    def _mul(self, a, b):
        a, b = self._align(a, b)
        return a * b

    def _adj(self, a):
        return a.conj_transpose()

    def _comb(self, lam, mu, a, b):
        a, b = self._align(a, b)
        return a.scale(lam) + b.scale(mu)

    def norm_interval(self, obj, k, budget=None):
        return M.two_norm(obj, k)

    def trace(self, obj):
        return obj.normalized_trace()


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
        if bound > 1:
            return g.scale(gr(Fraction(1) / bound))
        return g


class GroupVonNeumannPresentation(GroupAlgebraPresentation):
    """L(Gamma): the 2-norm oracle is exact via the canonical trace."""

    label = "L"
    signature = TVNA
    mode = TWO_SIDED

    def norm_interval(self, obj, k, budget=None):
        return G.two_norm(obj, k)

    def trace(self, obj):
        return obj.trace()


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
        lower = max(G.lambda_norm_lower_sweep(obj, budget, k))
        return (lower, G.l1_norm(obj))


# ---------------------------------------------------------------------------
# locally constant functions on Cantor space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CantorFn:
    """Locally constant Q(i)-valued function on 2^omega.

    `tree` is a GaussianRational (constant on the cylinder) or a pair of
    subtrees (split on the next coordinate); equal siblings are merged, so
    equality of functions is structural equality.
    """

    tree: object

    @staticmethod
    def constant(z: GaussianRational) -> "CantorFn":
        return CantorFn(z)

    @staticmethod
    def _canon(tree):
        if isinstance(tree, GaussianRational):
            return tree
        left, right = CantorFn._canon(tree[0]), CantorFn._canon(tree[1])
        if isinstance(left, GaussianRational) and left == right:
            return left
        return (left, right)

    @staticmethod
    def from_tree(tree) -> "CantorFn":
        return CantorFn(CantorFn._canon(tree))

    @staticmethod
    def indicator(cylinder: str, value: GaussianRational) -> "CantorFn":
        """`value` on the cylinder of the given bit string, 0 elsewhere."""
        tree: object = value
        for bit in reversed(cylinder):
            tree = (tree, gr(0)) if bit == "0" else (gr(0), tree)
        return CantorFn.from_tree(tree)

    @staticmethod
    def _zip(a, b, op):
        if isinstance(a, GaussianRational) and isinstance(b, GaussianRational):
            return op(a, b)
        al, ar = (a, a) if isinstance(a, GaussianRational) else a
        bl, br = (b, b) if isinstance(b, GaussianRational) else b
        return (CantorFn._zip(al, bl, op), CantorFn._zip(ar, br, op))

    def _map(self, op):
        def walk(t):
            if isinstance(t, GaussianRational):
                return op(t)
            return (walk(t[0]), walk(t[1]))

        return CantorFn.from_tree(walk(self.tree))

    def __mul__(self, other: "CantorFn") -> "CantorFn":
        return CantorFn.from_tree(CantorFn._zip(self.tree, other.tree, lambda x, y: x * y))

    def comb(self, lam, mu, other: "CantorFn") -> "CantorFn":
        return CantorFn.from_tree(
            CantorFn._zip(self.tree, other.tree, lambda x, y: x * lam + y * mu)
        )

    def adjoint(self) -> "CantorFn":
        return self._map(lambda z: z.conjugate())

    def leaves(self) -> list[GaussianRational]:
        out = []

        def walk(t):
            if isinstance(t, GaussianRational):
                out.append(t)
            else:
                walk(t[0])
                walk(t[1])

        walk(self.tree)
        return out

    def sup_abs_sq(self) -> Fraction:
        return max(z.abs_sq() for z in self.leaves())


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
        from .dyadic import sqrt_interval

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

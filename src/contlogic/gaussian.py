"""Exact arithmetic over the Gaussian rationals Q(i).

`GaussianRational` is the value type at the package's edges (parser, printer,
CLI, combination coefficients, traces, readable views of objects).  Moduli
|z| are irrational in general, so it exposes ``abs_sq`` (exact) and the
upper bound ``abs_upper`` (|re|+|im|).

Certified computation runs on integers.  Presentation objects (matrices,
group-algebra elements, Cantor functions) are `GaussianInts`: Gaussian
integers (re, im) over one denominator D > 0 with gcd(D, every part) = 1, so
D is their least common denominator and equal objects have equal fields;
``over_common_denominator`` puts values in that form.  The base class owns
that format and the linear algebra on it (lowest terms, combinations,
equality, the GaussianRational view); each object class adds only its
layout and its own product and adjoint.  Operations multiply and add
integers and reduce by one gcd, and kernels divide by powers of D once, at
the end (fraction-free in the spirit of Bareiss 1968).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Union

RationalLike = Union[int, Fraction]

# The size rule of enumerated objects: a matrix's entries, a Cantor function's
# values, a rewriting group's numbered normal forms and the words of a power
# that the moment kernel forms number at most 4,096 parts each.
PARTS_MAX = 4096


class ContlogicError(Exception):
    """Root of every typed error the package raises; the CLI reports any of
    them as one JSON error line.  It is defined in this module because every
    other module already depends on it."""


@dataclass(frozen=True)
class GaussianRational:
    """A complex number with rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        if type(self.re) is not Fraction:
            object.__setattr__(self, "re", Fraction(self.re))
        if type(self.im) is not Fraction:
            object.__setattr__(self, "im", Fraction(self.im))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "GaussianRational":
        return _coerce(other).__sub__(self)

    def __mul__(self, other) -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    # -- certified modulus bounds -------------------------------------------

    def abs_sq(self) -> Fraction:
        """Exact |z|^2."""
        return self.re * self.re + self.im * self.im

    def abs_upper(self) -> Fraction:
        """Rational upper bound |re|+|im| >= |z|."""
        return abs(self.re) + abs(self.im)

    # -- misc ----------------------------------------------------------------

    def __str__(self) -> str:
        return f"{self.re}{'+' if self.im >= 0 else ''}{self.im}i"


def _coerce(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(Fraction(value), Fraction(0))
    raise TypeError(f"cannot coerce {value!r} to GaussianRational")


def over_common_denominator(
    values: Iterable[GaussianRational],
) -> tuple[int, list[tuple[int, int]]]:
    """(D, [(D*re, D*im), ...]) with D the lcm of every part's denominator.

    Each value z is then exactly the Gaussian integer D*z over D.
    """
    ratios = [(z.re.as_integer_ratio(), z.im.as_integer_ratio()) for z in values]
    d = lcm(*(q for pair in ratios for _, q in pair))
    return d, [(a * (d // p), b * (d // q)) for (a, p), (b, q) in ratios]


def from_gaussian_int(d: int, re: int, im: int) -> GaussianRational:
    return GaussianRational(Fraction(re, d), Fraction(im, d))


def combination(lam, mu, da: int, db: int) -> tuple[int, int, int, int, int]:
    """(D, lr, li, mr, mi) such that lam*a + mu*b, for Gaussian integers a
    over da and b over db, is the Gaussian integer (lr + i*li)a + (mr + i*mi)b
    over D = lcm(da * den(lam), db * den(mu)); lam and mu may be Gaussian
    rationals, Fractions or ints."""
    lam, mu = _coerce(lam), _coerce(mu)
    (a, p), (b, q) = lam.re.as_integer_ratio(), lam.im.as_integer_ratio()
    (c, r), (e, s) = mu.re.as_integer_ratio(), mu.im.as_integer_ratio()
    dl, dm = lcm(p, q), lcm(r, s)  # lam = (a*dl/p + i*b*dl/q) / dl, likewise mu
    da, db = da * dl, db * dm
    d = lcm(da, db)
    fa, fb = d // da, d // db
    return d, a * (dl // p * fa), b * (dl // q * fa), c * (dm // r * fb), e * (dm // s * fb)


class GaussianInts:
    """Gaussian integers `parts`, pairs (re, im), over one denominator d > 0
    in lowest terms.  `layout` says what the parts are the values of (a
    matrix's size, an element's group and words, nothing for a Cantor
    function), and two objects are equal when type, d, parts and layout are.

    A subclass gives `_aligned(other)`, the layout of a result over both
    operands and the pairs of their parts in it, and `_new`, the
    constructor of an operation's raw result, which puts its layout in a
    least form of its own or begins its memo slots empty.  `_make` trusts
    its integers."""

    __slots__ = ("layout", "d", "parts")

    @classmethod
    def _make(cls, layout, d: int, parts) -> "GaussianInts":
        """The object of `parts` over d, put in lowest terms by one gcd."""
        if d > 1 and (g := gcd(d, *chain.from_iterable(parts))) > 1:
            d, parts = d // g, [(r // g, i // g) for r, i in parts]
        out = object.__new__(cls)
        out.layout, out.d, out.parts = layout, d, tuple(parts)
        return out

    def comb(self, lam, mu, other):
        """lam*self + mu*other, over the lcm of both denominators."""
        layout, pairs = self._aligned(other)
        d, lr, li, mr, mi = combination(lam, mu, self.d, other.d)
        return self._new(layout, d, [(lr * a - li * b + mr * c - mi * e,
                                      li * a + lr * b + mi * c + mr * e)
                                     for (a, b), (c, e) in pairs])

    def __add__(self, other):
        return self.comb(1, 1, other)

    def __sub__(self, other):
        return self.comb(1, -1, other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, lam):
        return self.comb(lam, 0, self)

    def is_zero(self) -> bool:
        return not any(chain.from_iterable(self.parts))

    def values(self) -> list[GaussianRational]:
        return [from_gaussian_int(self.d, r, i) for r, i in self.parts]

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.d == other.d
                and self.parts == other.parts and self.layout == other.layout)

    def __hash__(self):
        return hash((self.d, self.parts, self.layout))


def gr(re: RationalLike = 0, im: RationalLike = 0) -> GaussianRational:
    """Shorthand constructor."""
    return GaussianRational(Fraction(re), Fraction(im))


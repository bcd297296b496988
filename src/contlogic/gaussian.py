"""Exact arithmetic over the Gaussian rationals Q(i).

All certified computations in this package reduce to Fraction arithmetic on
real and imaginary parts.  Moduli |z| are irrational in general, so the module
exposes exact *bounds* instead: ``abs_sq`` (exact), ``abs_upper`` (|re|+|im|)
and ``abs_lower`` (max(|re|,|im|)).

Hot loops skip Fractions altogether: ``over_common_denominator`` puts a batch
of values over one denominator D and hands back Gaussian integers (re, im),
so products need no gcd and the division by a power of D happens once, at
the end (fraction-free in the spirit of Bareiss 1968).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Union

RationalLike = Union[int, Fraction]


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
        object.__setattr__(self, "re", Fraction(self.re))
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

    def __truediv__(self, other) -> "GaussianRational":
        other = _coerce(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        num = self * other.conjugate()
        return GaussianRational(num.re / d, num.im / d)

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

    def abs_lower(self) -> Fraction:
        """Rational lower bound max(|re|,|im|) <= |z|."""
        return max(abs(self.re), abs(self.im))

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
    values = list(values)
    d = lcm(*(part.denominator for z in values for part in (z.re, z.im)))
    return d, [
        (z.re.numerator * (d // z.re.denominator), z.im.numerator * (d // z.im.denominator))
        for z in values
    ]


def gr(re: RationalLike = 0, im: RationalLike = 0) -> GaussianRational:
    """Shorthand constructor."""
    return GaussianRational(Fraction(re), Fraction(im))


ZERO = gr(0)

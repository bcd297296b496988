"""Certified dyadic interval arithmetic for roots of exact rationals.

Every function here takes exact Fractions in and returns exact Fractions out;
no floating point is used anywhere.  Every certified root is one step,
`_grid_root`: refuse a negative precision k and a negative radicand, scale x
by 2^(k*n) with a shift of its numerator and take one integer n-th root
(`int_nth_root`) of the floored quotient.  That root c gives the grid floor
c/2^k of x^(1/n); nothing bisects.  `nth_root_lower_grid` returns it as is,
`nth_root_upper_grid` adds 1 unless c^n * den checks exact, and
`sqrt_interval` returns both ends, so each bound carries an arithmetic proof
of its own correctness (lo**n <= x <= hi**n).  The radicands are the exact
trace moments of the integer kernels: an integer trace t over D^(2^(m+1))
from `matrices` (root 2^(m+1), so the scaled numerator t * 2^(16 * 2^(m+1))
doubles in bits with each m) and over D^(2j) or E^j from `groups` (root
2j), where D and E are the kernels' common denominators.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


def is_dyadic(x: Fraction) -> bool:
    d = Fraction(x).denominator
    return d & (d - 1) == 0


def check_precision(k: int) -> None:
    """Refuse a negative precision k (the 2^-k of a certified width)."""
    if k < 0:
        raise ValueError(f"precision must be >= 0, got {k}")


def int_nth_root(x: int, n: int) -> int:
    """floor(x ** (1/n)), exact for any nonnegative int.

    Each factor 2 of n is one `isqrt`, exact since floor(sqrt(floor(y))) =
    floor(sqrt(y)); Newton iteration takes only the odd part of n.
    """
    if x < 0 or n < 1:
        raise ValueError("int_nth_root needs x >= 0, n >= 1")
    while n % 2 == 0:
        x, n = isqrt(x), n // 2
    if x == 0 or n == 1:
        return x
    # Initial guess from bit length; Newton descends monotonically from above.
    guess = 1 << -(-x.bit_length() // n)
    while True:
        nxt = ((n - 1) * guess + x // guess ** (n - 1)) // n
        if nxt >= guess:
            break
        guess = nxt
    while guess ** n > x:
        guess -= 1
    return guess


def _grid_root(x: Fraction, n: int, k: int) -> tuple[int, int, int]:
    """(c, num, den) with num/den = x * 2^(k*n), not reduced, and c =
    floor(floor(num/den) ** (1/n)) = floor(x ** (1/n) * 2^k): c/2^k is the
    grid floor of x ** (1/n), and the root itself exactly when c^n * den ==
    num."""
    check_precision(k)
    num, den = x.numerator, x.denominator
    if num < 0:
        raise ValueError("negative radicand")
    num <<= k * n
    return int_nth_root(num // den, n), num, den


def sqrt_interval(x: Fraction, k: int) -> tuple[Fraction, Fraction]:
    """Dyadic lo <= sqrt(x) <= hi with hi - lo <= 2^-k: lo is the grid floor
    of sqrt(x), and the interval is a point when sqrt(x) is on the grid."""
    c, num, den = _grid_root(x, 2, k)
    return Fraction(c, 1 << k), Fraction(c + (c * c * den != num), 1 << k)


def nth_root_upper_grid(x: Fraction, n: int, k: int) -> Fraction:
    """Smallest multiple of 2^-k that is >= x ** (1/n), for x >= 0.

    Ceiling to a fixed grid is monotone in x, which downstream code relies on
    for exact-comparison monotonicity of certified upper bounds.
    """
    c, num, den = _grid_root(x, n, k)
    return Fraction(c + (c**n * den != num), 1 << k)


def nth_root_lower_grid(x: Fraction, n: int, k: int) -> Fraction:
    """Dyadic q with q <= x ** (1/n) < q + 2^-k, for x >= 0: the grid floor
    (a root on the grid is returned as is), hence monotone in x.  It takes
    no c^n: a floor needs no exactness test."""
    return Fraction(_grid_root(x, n, k)[0], 1 << k)

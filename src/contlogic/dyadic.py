"""Certified dyadic interval arithmetic for roots of exact rationals.

Every function here takes exact Fractions in and returns exact Fractions out;
no floating point is used anywhere.  Square roots and n-th roots are bounded
by integer-root computations on scaled numerators/denominators, so each bound
carries an arithmetic proof of its own correctness (lo**n <= x <= hi**n).
Both grid roots scale x by 2^(k*n) with a shift of its numerator and take
one integer n-th root (`int_nth_root`) of the floored quotient; nothing
bisects.  Their radicands are the exact trace moments of the integer
kernels: an integer trace t over D^(2^(m+1)) from `matrices` (root
2^(m+1), so the scaled numerator t * 2^(16 * 2^(m+1)) doubles in bits with
each m) and over D^(2j) or E^j from `groups` (root 2j), where D and E are
the kernels' common denominators.
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


def sqrt_interval(x: Fraction, k: int) -> tuple[Fraction, Fraction]:
    """Dyadic lo <= sqrt(x) <= hi with hi - lo <= 2^-k, exact when possible.

    lo = floor(sqrt(x * 4^k)) / 2^k, so lo is the grid floor of sqrt(x); the
    interval collapses to a point when x is a perfect square of a grid value.
    """
    check_precision(k)
    if x.numerator < 0:
        raise ValueError("negative radicand")
    scale = 1 << k
    n, d = x.numerator << 2 * k, x.denominator  # x * 4^k, not reduced
    t = isqrt(n // d)
    lo = Fraction(t, scale)
    if t * t * d == n:
        return lo, lo
    return lo, Fraction(t + 1, scale)


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


def nth_root_upper_grid(x: Fraction, n: int, k: int) -> Fraction:
    """Smallest multiple of 2^-k that is >= x ** (1/n), for x >= 0.

    Ceiling to a fixed grid is monotone in x, which downstream code relies on
    for exact-comparison monotonicity of certified upper bounds.
    """
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return Fraction(0)
    # want least c with (c/2^k)^n >= x, i.e. c^n * den >= num * 2^(k*n)
    num = x.numerator << (k * n)
    den = x.denominator
    c = int_nth_root(num // den, n)
    while c**n * den < num:
        c += 1
    return Fraction(c, 1 << k)


def nth_root_lower_grid(x: Fraction, n: int, k: int, hi_pow2: int) -> Fraction:
    """Dyadic q with q <= x ** (1/n) <= q + 2^-k, for 0 <= x <= (2^hi_pow2)^n.

    q is the grid floor of x ** (1/n) on the 2^-k grid (ties land on the grid
    point itself), hence monotone in x, capped at 2^hi_pow2 - 2^-k: the value
    a bisection of [0, 2^hi_pow2] down to width 2^-k returns, found here by
    one integer n-th root of floor(x * 2^(k*n)).  When 2^-k is not below
    2^hi_pow2 the grid has no point under the cap and q is 0.
    """
    if x < 0:
        raise ValueError("negative radicand")
    num, den = x.numerator, x.denominator
    if hi_pow2 >= 0:
        too_big = num > den << (hi_pow2 * n)
    else:
        too_big = num << (-hi_pow2 * n) > den
    if too_big:
        raise ValueError("hi_pow2 too small for radicand")
    steps = hi_pow2 + k
    if steps <= 0:
        return Fraction(0)
    if k >= 0:
        c = int_nth_root((num << (k * n)) // den, n)
    else:
        c = int_nth_root(num // (den << (-k * n)), n)
    c = min(c, (1 << steps) - 1)
    return Fraction(c, 1 << k) if k >= 0 else Fraction(c << -k)

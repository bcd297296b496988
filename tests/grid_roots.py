"""The three certified roots of `contlogic.dyadic` as they were before one
`_grid_root` step served them all, kept verbatim as the oracle of
`tests/test_dyadic.py`.

`nth_root_lower_grid` still takes its bisection-era cap `hi_pow2`; with a cap
above the root it returns the grid floor.  A negative precision gets three
different treatments here, which the oracle test does not draw.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from contlogic.dyadic import check_precision, int_nth_root


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


def cap_above(x: Fraction) -> int:
    """A `hi_pow2` with 2^hi_pow2 > max(x, 1), hence above every root of x,
    as `groups.moment_root_lower` once computed it from the l1 norm."""
    return (x.numerator // x.denominator + 1).bit_length()

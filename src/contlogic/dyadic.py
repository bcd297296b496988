"""Certified dyadic interval arithmetic for roots of exact rationals.

Every certified root is one step, `_grid_root`, on an integer radicand
t / D^e (not reduced): it refuses a negative precision k and a negative
radicand and returns c = floor((t / D^e)^(1/n) * 2^k), the grid floor c/2^k
of the root, with whether c^n * D^e == t * 2^(k*n), i.e. whether the root is
on the grid.  `nth_root_lower_grid` returns c/2^k, `nth_root_upper_grid` adds
2^-k unless the root is on the grid, and `sqrt_interval` returns both, so
each bound carries an arithmetic proof of its own correctness
(lo**n <= x <= hi**n).  Nothing bisects and no Fraction is reduced.

c is decided from leading bits, by Ziv's rounding test: both sides of
c^n * D^e <= t * 2^(k*n) are bounded on WIDTH-bit power chains, rounded down
on one side and up on the other, for c and for c + 1.  c is guessed from a
floating-point logarithm, and a float never decides.  When the bounds cannot
decide (an exact grid power, a near-tie, or a guess off by more than one),
the exact route decides: one integer n-th root (`int_nth_root`) of
floor(t * 2^(k*n) / D^e) and the exact check of c^n * D^e.  A radicand of at
most EXACT_BITS bits takes the exact route at once: there it is the cheaper
one.  The radicands are exact trace moments: an integer trace t over
D^(2^(m+1)) from `matrices` (root 2^(m+1), so t doubles in bits with each
m), and moments over D^(2j) or E^j from `groups` (root 2j).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, log2

WIDTH = 96  # bits kept of each mantissa of the leading-bits test
EXACT_BITS = 2048  # a larger t * 2^(k*n) or D^e takes the leading-bits test
_GUESS_BITS = 48  # a root c >= 2^48 is past the float guess; it is taken exactly


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


def _power_bounds(b: int, n: int) -> tuple[int, int, int]:
    """(lo, hi, s) with lo * 2^s <= b^n <= hi * 2^s for b >= 1, n >= 1: a
    left-to-right power chain that keeps WIDTH bits of each product, the
    lower chain rounded down and the upper one up.  Exact while b^n fits."""
    s = max(b.bit_length() - WIDTH, 0)
    base_lo, base_hi, base_s = b >> s, -(-b >> s), s
    lo, hi = base_lo, base_hi
    for bit in bin(n)[3:]:
        lo, hi, s = lo * lo, hi * hi, 2 * s
        if bit == "1":
            lo, hi, s = lo * base_lo, hi * base_hi, s + base_s
        cut = hi.bit_length() - WIDTH
        if cut > 0:
            lo, hi, s = lo >> cut, -(-hi >> cut), s + cut
    return lo, hi, s


def _leading_root(t: int, d: int, e: int, n: int, k: int) -> int | None:
    """c with c^n * D^e < t * 2^(k*n) < (c + 1)^n * D^e, proved on bounded
    mantissas, or None when they cannot prove it (t >= 1).  With e = q*n + r,
    c^n * D^e is (c * D^q)^n * D^r: one power chain per candidate c."""
    cut = max(t.bit_length() - WIDTH, 0)
    x_lo, x_hi, x_s = t >> cut, -(-t >> cut), cut + k * n
    q, r = divmod(e, n)
    dq = d**q
    d_lo, d_hi, d_s = _power_bounds(d, r) if r else (1, 1, 0)
    guess = (log2(x_lo) + x_s - log2(d_hi) - d_s) / n - log2(dq)
    if guess >= _GUESS_BITS:
        return None

    def side(c: int) -> int:
        """-1 if c^n * D^e < t * 2^(k*n), 1 if above, 0 if undecided."""
        if c == 0:
            return -1
        c_lo, c_hi, c_s = _power_bounds(c * dq, n)
        shift = c_s + d_s - x_s
        y_lo, y_hi = c_lo * d_lo << max(shift, 0), c_hi * d_hi << max(shift, 0)
        lo, hi = x_lo << max(-shift, 0), x_hi << max(-shift, 0)
        return -1 if y_hi < lo else 1 if y_lo > hi else 0

    c = int(2.0 ** guess)
    below = side(c)
    if below > 0:
        c, above, below = c - 1, below, side(c - 1)
    else:
        above = side(c + 1)
        if below < 0 and above < 0:
            c, below, above = c + 1, above, side(c + 2)
    return c if below < 0 < above else None


def _grid_root(t: int, d: int, e: int, n: int, k: int) -> tuple[int, bool]:
    """(c, on_grid) for the radicand t / D^e (not reduced; D >= 1): c =
    floor((t / D^e)^(1/n) * 2^k), so c/2^k is the grid floor of the root,
    and on_grid says c^n * D^e == t * 2^(k*n), i.e. the root is c/2^k."""
    check_precision(k)
    if t < 0:
        raise ValueError("negative radicand")
    if n < 1:
        raise ValueError(f"root order must be >= 1, got {n}")
    if t and (t.bit_length() + k * n > EXACT_BITS or d.bit_length() * e > EXACT_BITS):
        c = _leading_root(t, d, e, n, k)
        if c is not None:
            return c, False
    num, den = t << k * n, d**e
    c = int_nth_root(num // den, n)
    return c, c**n * den == num


def sqrt_interval(x: Fraction, k: int) -> tuple[Fraction, Fraction]:
    """Dyadic lo <= sqrt(x) <= hi with hi - lo <= 2^-k: lo is the grid floor
    of sqrt(x), and the interval is a point when sqrt(x) is on the grid."""
    c, on_grid = _grid_root(x.numerator, x.denominator, 1, 2, k)
    return Fraction(c, 1 << k), Fraction(c + (not on_grid), 1 << k)


def nth_root_upper_grid(x: Fraction, n: int, k: int) -> Fraction:
    """Smallest multiple of 2^-k that is >= x ** (1/n), for x >= 0.

    Ceiling to a fixed grid is monotone in x, which downstream code relies on
    for exact-comparison monotonicity of certified upper bounds.
    """
    c, on_grid = _grid_root(x.numerator, x.denominator, 1, n, k)
    return Fraction(c + (not on_grid), 1 << k)


def nth_root_lower_grid(x: Fraction, n: int, k: int) -> Fraction:
    """Dyadic q with q <= x ** (1/n) < q + 2^-k, for x >= 0: the grid floor
    (a root on the grid is returned as is), hence monotone in x."""
    return Fraction(_grid_root(x.numerator, x.denominator, 1, n, k)[0], 1 << k)

"""Bijective encodings between naturals and structured data.

These pairings are the documented, frozen basis of every enumeration and
Goedel code in the package; changing them invalidates stored codes.

  - `pair`/`unpair`: the Cantor pairing (a+b)(a+b+1)/2 + b.
  - `encode_list`/`decode_list`: 0 <-> [], n+1 <-> pair(head, code(tail)).
  - `encode_tuple`/`decode_tuple`: left fold of `pair` over a tuple of known
    arity.
  - `nat_to_rat`/`rat_to_nat`: bijection N <-> Q via the Calkin-Wilf tree
    (0 -> 0; odd/even indices carry +/- signs).
  - `nat_to_gaussian`/`gaussian_to_nat`: Cantor pair of the two Q codes.

The two folds are the only ones in the package.  Each takes the pairing to
fold over, Cantor by default; Goedel codes (`contlogic.coding`) pass their
Elias-delta pairing.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Callable

from .gaussian import GaussianRational

Pair = Callable[[int, int], int]
Unpair = Callable[[int], tuple[int, int]]

CALKIN_WILF_PATH_CAP = 1 << 20  # steps, so encoded indices have at most 2^20 + 1 bits


def pair(a: int, b: int) -> int:
    if a < 0 or b < 0:
        raise ValueError("pair needs naturals")
    s = a + b
    return s * (s + 1) // 2 + b


def unpair(n: int) -> tuple[int, int]:
    if n < 0:
        raise ValueError("unpair needs a natural")
    w = (isqrt(8 * n + 1) - 1) // 2
    b = n - w * (w + 1) // 2
    return w - b, b


def encode_list(items: list[int], pair: Pair = pair) -> int:
    code = 0
    for item in reversed(items):
        code = pair(item, code) + 1
    return code


def decode_list(code: int, unpair: Unpair = unpair) -> list[int]:
    items = []
    while code > 0:
        head, code = unpair(code - 1)
        items.append(head)
    return items


def encode_tuple(items: list[int], pair: Pair = pair) -> int:
    """Left fold of `pair` over a tuple of known arity (arity >= 1)."""
    if not items:
        raise ValueError("encode_tuple needs at least one item")
    code = items[0]
    for item in items[1:]:
        code = pair(code, item)
    return code


def decode_tuple(code: int, arity: int, unpair: Unpair = unpair) -> list[int]:
    if arity < 1:
        raise ValueError("decode_tuple needs arity >= 1")
    items = []
    for _ in range(arity - 1):
        code, item = unpair(code)
        items.append(item)
    items.append(code)
    return list(reversed(items))


def _calkin_wilf(index: int) -> Fraction:
    """index >= 1 -> positive rational, breadth-first Calkin-Wilf order."""
    a = b = 1  # a bit 1 steps a/b to (a+b)/b, a bit 0 to a/(a+b): lowest terms
    for bit in bin(index)[3:]:  # drop '0b1'
        if bit == "1":
            a += b
        else:
            b += a
    return Fraction(a, b)


def _calkin_wilf_index(q: Fraction) -> int:
    """The index of q > 0, from the partial quotients of q = [a0; a1, ..., ar].

    The path from q up to 1 takes a0 steps (a, b) -> (a - b, b), each a bit 1,
    then a1 steps (a, b) -> (a, b - a), each a bit 0, and so on, the last run
    one short (ar - 1): ends at 1/1.  The index is 1 and then those bits,
    last first, so 1/N takes N - 1 steps.  The path is measured before any
    bit is built.
    """
    if q <= 0:
        raise ValueError("needs a positive rational")
    a, b = q.numerator, q.denominator
    quotients = []
    while b:
        quotient, r = divmod(a, b)
        quotients.append(quotient)
        a, b = b, r
    quotients[-1] -= 1
    if sum(quotients) > CALKIN_WILF_PATH_CAP:
        raise ValueError(f"{q} has a Calkin-Wilf path of more than "
                         f"{CALKIN_WILF_PATH_CAP} steps")
    runs = ("10"[i % 2] * run for i, run in enumerate(quotients))
    return int("1" + "".join(runs)[::-1], 2)


def nat_to_rat(n: int) -> Fraction:
    if n == 0:
        return Fraction(0)
    mag = _calkin_wilf((n + 1) // 2)
    return mag if n % 2 == 1 else -mag


def rat_to_nat(q: Fraction) -> int:
    q = Fraction(q)
    if q == 0:
        return 0
    idx = _calkin_wilf_index(abs(q))
    return 2 * idx - 1 if q > 0 else 2 * idx


def nat_to_gaussian(n: int) -> GaussianRational:
    a, b = unpair(n)
    return GaussianRational(nat_to_rat(a), nat_to_rat(b))


def gaussian_to_nat(z: GaussianRational) -> int:
    return pair(rat_to_nat(z.re), rat_to_nat(z.im))

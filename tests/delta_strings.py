"""The Goedel code pairing built from binary strings: the test oracle.

`pair` spells "1" ++ delta(a+1) ++ delta(b+1) out as a binary numeral, as
`docs/encodings.md` states it, and `unpair` parses that numeral back, the
way `contlogic.coding` did before it assembled and read the same bits with
integer shifts.  `unpair` raises the same NotACode messages.
"""

from contlogic.coding import NotACode


def delta_bits(n: int) -> str:
    """Elias delta code of n >= 1."""
    nb = n.bit_length()
    gamma = "0" * (nb.bit_length() - 1) + bin(nb)[2:]
    return gamma + bin(n)[3:]  # low bits of n, leading 1 dropped


def pair(a: int, b: int) -> int:
    if a < 0 or b < 0:
        raise ValueError("pair needs naturals")
    return int("1" + delta_bits(a + 1) + delta_bits(b + 1), 2)


def parse_delta(bits: str, i: int) -> tuple[int, int]:
    zeros = 0
    while i < len(bits) and bits[i] == "0":
        zeros += 1
        i += 1
    if i + zeros + 1 > len(bits):
        raise NotACode("truncated delta header")
    nb = int(bits[i : i + zeros + 1], 2)
    i += zeros + 1
    if nb == 0 or i + nb - 1 > len(bits):
        raise NotACode("truncated delta payload")
    n = int("1" + bits[i : i + nb - 1], 2)
    return n, i + nb - 1


def unpair(n: int) -> tuple[int, int]:
    if n <= 0:
        raise NotACode("not in the pairing image")
    bits = bin(n)[3:]  # strip '0b1' sentinel
    a, i = parse_delta(bits, 0)
    b, i = parse_delta(bits, i)
    if i != len(bits):
        raise NotACode("trailing bits after pair")
    return a - 1, b - 1

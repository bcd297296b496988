"""The Goedel code pairing built from binary strings: the test oracle.

`pair` spells "1" ++ delta(a+1) ++ delta(b+1) out as a binary numeral, as
`docs/encodings.md` states it, the way `contlogic.coding.pair` built it
before it assembled the same bits with integer shifts.
"""


def delta_bits(n: int) -> str:
    """Elias delta code of n >= 1."""
    nb = n.bit_length()
    gamma = "0" * (nb.bit_length() - 1) + bin(nb)[2:]
    return gamma + bin(n)[3:]  # low bits of n, leading 1 dropped


def pair(a: int, b: int) -> int:
    if a < 0 or b < 0:
        raise ValueError("pair needs naturals")
    return int("1" + delta_bits(a + 1) + delta_bits(b + 1), 2)

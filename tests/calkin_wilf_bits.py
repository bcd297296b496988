"""The Calkin-Wilf encoder of `contlogic.pairing` as it was before it read
the partial quotients, one subtraction per bit, kept verbatim as the oracle of
`tests/test_pairing.py`."""

from __future__ import annotations

from fractions import Fraction

from contlogic.pairing import CALKIN_WILF_PATH_CAP


def _calkin_wilf_index(q: Fraction) -> int:
    """The index of q > 0, one bit per step of its path (1/N takes N - 1)."""
    if q <= 0:
        raise ValueError("needs a positive rational")
    bits = []
    a, b = q.numerator, q.denominator
    while (a, b) != (1, 1):
        if len(bits) == CALKIN_WILF_PATH_CAP:
            raise ValueError(f"{q} has a Calkin-Wilf path of more than "
                             f"{CALKIN_WILF_PATH_CAP} steps")
        if a > b:
            bits.append("1")
            a -= b
        else:
            bits.append("0")
            b -= a
    return int("1" + "".join(reversed(bits)), 2)

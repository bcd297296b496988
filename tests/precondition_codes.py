"""The (code, r)-list codec of pre-condition codes: the tests' oracle.

`forcing.Condition.code` and `Condition.from_code` are the codec of
pre-condition codes (docs/encodings.md).  The former codec of
`contlogic.coding` is kept here verbatim: `encode_precondition` takes a list
of (sentence code, dyadic bound) pairs and `decode_precondition` gives one
back, each checking its items through `coding.code_predicates` and raising
`BadItem`.  It writes the bits on its own, so the differential tests compare
the two codecs code for code.
"""

from __future__ import annotations

from fractions import Fraction

from contlogic.coding import code_predicates, pair, unpair
from contlogic.dyadic import is_dyadic
from contlogic.gaussian import ContlogicError
from contlogic.pairing import decode_list, encode_list


class BadItem(ContlogicError):
    pass


def _encode_dyadic(r: Fraction) -> int:
    if r <= 0 or not is_dyadic(r):
        raise BadItem(f"bound must be a positive dyadic, got {r}")
    e = r.denominator.bit_length() - 1
    return pair(r.numerator - 1, e)


def _decode_dyadic(code: int) -> Fraction:
    a, e = unpair(code)
    r = Fraction(a + 1, 1 << e)
    if r.denominator != (1 << e):
        raise BadItem("non-canonical dyadic code")
    return r


def encode_precondition(items: list[tuple[int, Fraction]]) -> int:
    """Code of a finite set {formula_k < r}; canonicalized by sorting.

    Each k must code a quantifier-free sentence and each r be a positive
    dyadic; violations raise BadItem.
    """
    canon = []
    for k, r in items:
        flags = code_predicates(k)
        if not (flags.is_formula and flags.is_sentence and flags.is_qf):
            raise BadItem(f"code {k} is not a quantifier-free sentence")
        canon.append((k, Fraction(r)))
    canon = sorted(set(canon))
    body = encode_list([pair(k, _encode_dyadic(r)) for k, r in canon], pair)
    return pair(len(canon), body)


def decode_precondition(code: int) -> list[tuple[int, Fraction]]:
    length, body = unpair(code)
    heads = decode_list(body, unpair)
    items: list[tuple[int, Fraction]] = []
    for head in heads[:length]:
        k, r_code = unpair(head)
        flags = code_predicates(k)
        if not (flags.is_formula and flags.is_sentence and flags.is_qf):
            raise BadItem(f"code {k} is not a quantifier-free sentence")
        items.append((k, _decode_dyadic(r_code)))
    if len(heads) < length:
        raise BadItem("truncated pre-condition code")
    if len(heads) > length:
        raise BadItem("trailing pre-condition payload")
    if items != sorted(set(items)):
        raise BadItem("pre-condition items not canonically sorted")
    return items

import random
import time
from fractions import Fraction

import pytest

import calkin_wilf_bits

from contlogic import coding
from contlogic.gaussian import GaussianRational, gr
from contlogic.pairing import (
    CALKIN_WILF_PATH_CAP,
    decode_list,
    decode_tuple,
    encode_list,
    encode_tuple,
    gaussian_to_nat,
    nat_to_gaussian,
    nat_to_rat,
    pair,
    rat_to_nat,
    unpair,
    _calkin_wilf,
    _calkin_wilf_index,
)


def test_pair_unpair_roundtrip():
    for n in range(2000):
        a, b = unpair(n)
        assert pair(a, b) == n
    for a in range(40):
        for b in range(40):
            assert unpair(pair(a, b)) == (a, b)


# the folds run over the Cantor pairing (the default) and over the
# Elias-delta pairing of Goedel codes
PAIRINGS = [(pair, unpair), (coding.pair, coding.unpair)]


def test_list_codes():
    for fold, unfold in PAIRINGS:
        rng = random.Random(3)
        for _ in range(200):
            items = [rng.randint(0, 50) for _ in range(rng.randint(0, 6))]
            assert decode_list(encode_list(items, fold), unfold) == items
        assert encode_list([], fold) == 0
    assert encode_list([1, 2]) == pair(1, pair(2, 0) + 1) + 1
    assert encode_list([1, 2], coding.pair) == coding.pair(1, coding.pair(2, 0) + 1) + 1


def test_tuple_codes():
    for fold, unfold in PAIRINGS:
        rng = random.Random(4)
        for _ in range(200):
            arity = rng.randint(1, 5)
            items = [rng.randint(0, 30) for _ in range(arity)]
            assert decode_tuple(encode_tuple(items, fold), arity, unfold) == items
    assert encode_tuple([1, 2, 3]) == pair(pair(1, 2), 3)
    assert encode_tuple([1, 2, 3], coding.pair) == coding.pair(coding.pair(1, 2), 3)


def test_rat_bijection_small_values():
    seen = [nat_to_rat(n) for n in range(200)]
    assert seen[0] == 0
    assert seen[1] == 1
    assert len(set(seen)) == 200
    for n in range(200):
        assert rat_to_nat(seen[n]) == n


def test_rat_roundtrip_random():
    rng = random.Random(5)
    for _ in range(300):
        q = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        assert nat_to_rat(rat_to_nat(q)) == q


def _calkin_wilf_by_fractions(index: int) -> Fraction:
    """The former decoder, one Fraction per bit: the oracle."""
    bits = bin(index)[3:]  # drop '0b1'
    q = Fraction(1)
    for bit in bits:
        q = q + 1 if bit == "1" else q / (q + 1)
    return q


def test_calkin_wilf_integer_steps_match_fraction_steps():
    for n in range(1, 2**16):
        assert _calkin_wilf(n) == _calkin_wilf_by_fractions(n), n
    rng = random.Random(21)
    for bits in (100, 1_000, 5_000, 20_000):
        n = rng.getrandbits(bits) | 1 << bits - 1
        q = _calkin_wilf(n)
        assert q == _calkin_wilf_by_fractions(n), bits
        assert _calkin_wilf_index(q) == n


def test_calkin_wilf_encoder_matches_the_bitwise_encoder():
    """The encoder by partial quotients against the former one, one
    subtraction per bit: every index below 2^16, seeded codes up to 20,000
    bits, and codes of long runs (1/N, N, and quotients of both kinds)."""
    for n in range(1, 2**16):
        q = _calkin_wilf(n)
        assert _calkin_wilf_index(q) == calkin_wilf_bits._calkin_wilf_index(q) == n, n
    rng = random.Random(24)
    codes = [rng.getrandbits(bits) | 1 << bits - 1
             for bits in (17, 100, 1_000, 5_000, 20_000) for _ in range(3)]
    codes += [int("1" + "".join(str(i % 2) * rng.randint(1, 3_000) for i in range(7)), 2)
              for _ in range(5)]
    for n in codes:
        q = _calkin_wilf(n)
        assert _calkin_wilf_index(q) == calkin_wilf_bits._calkin_wilf_index(q) == n
    for q in (Fraction(1), Fraction(2**20 + 1), Fraction(1, 2**20 + 1), Fraction(2**20 + 2),
              Fraction(1, 2**20 + 2), Fraction(2**19 + 1, 2**19)):
        outcomes = []
        for encode in (_calkin_wilf_index, calkin_wilf_bits._calkin_wilf_index):
            try:
                outcomes.append(encode(q))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], q


def test_calkin_wilf_encoder_refuses_paths_past_the_cap():
    for n in range(1, 2**16):
        assert _calkin_wilf_index(_calkin_wilf(n)) == n
    assert CALKIN_WILF_PATH_CAP == 2**20
    # 1/N takes N - 1 steps, all bits 0: the longest path allowed, then one more
    assert _calkin_wilf_index(Fraction(1, 2**20 + 1)) == 1 << 2**20
    start = time.perf_counter()
    with pytest.raises(ValueError, match="Calkin-Wilf path"):
        rat_to_nat(Fraction(1, 2**20 + 2))
    assert time.perf_counter() - start < 1


def test_gaussian_roundtrip():
    rng = random.Random(6)
    for _ in range(200):
        z = GaussianRational(
            Fraction(rng.randint(-100, 100), rng.randint(1, 100)),
            Fraction(rng.randint(-100, 100), rng.randint(1, 100)),
        )
        assert nat_to_gaussian(gaussian_to_nat(z)) == z
    assert nat_to_gaussian(0) == gr(0)


def test_gaussian_arithmetic():
    a = gr(Fraction(1, 2), Fraction(1, 3))
    b = gr(Fraction(2), Fraction(-1))
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    b_inverse = gr(Fraction(2, 5), Fraction(1, 5))  # 1/(2 - i) = (2 + i)/5
    assert b * b_inverse == gr(1) and a * b * b_inverse == a
    assert (a - a).is_zero()
    assert gr(3, 4).abs_sq() == 25
    assert gr(3, 4).abs_upper() == 7

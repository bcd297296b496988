"""Golden sha256 of the group-algebra numbering of docs/encodings.md.

For each of F2, Z^2, S3 as a table, Z/4 by rewriting and Z^2 by rewriting:
`enumerate_group_algebra(spec, i)` for i = 0..299 (or the error it raises,
since a finite rewriting group is numbered by list codes whose word indices
can run past its normal forms), and `group_algebra_index` of seeded elements
built from words and coefficients directly.  The goldens in
tests/golden/enumeration.sha256 were captured before the group kinds became
classes of their own; any change in the frozen numbering changes a digest.

Run this file as a script to print the current digests.
"""

import hashlib
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from contlogic import groups as G
from contlogic.gaussian import GaussianRational

GOLDEN = Path(__file__).parent / "golden" / "enumeration.sha256"
INDICES = 300
ELEMENTS = 100


def _s3():
    perms = list(itertools.permutations(range(3)))
    names = ["e", "r", "rr", "s", "sr", "srr"]
    # any fixed naming of the six permutations will do; the identity first
    compose = {(p, q): tuple(p[q[i]] for i in range(3)) for p in perms for q in perms}
    name_of = dict(zip(perms, names))
    table = [[name_of[compose[(p, q)]] for q in perms] for p in perms]
    return G.TableGroup(tuple(names), "e", table)


def _rewriting_z2():
    rules = [("ab", "ba"), ("aB", "Ba"), ("Ab", "bA"), ("AB", "BA")]
    return G.RewritingGroup(("a", "b"), rules)


def _specs():
    return {
        "F2": (G.free_group("u", "v"), ["u", "v"]),
        "Z2": (G.free_abelian("u", "v"), ["u", "v"]),
        "S3table": (_s3(), ["r", "rr", "s", "sr", "srr"]),
        "Z4rewriting": (G.RewritingGroup(("a",), [("aaaa", ""), ("A", "aaa")]), ["a"]),
        "Z2rewriting": (_rewriting_z2(), ["a", "b"]),
    }


def _coeffs(a):
    return sorted((w, str(c.re), str(c.im)) for w, c in a.coeffs.items())


def _enumerated(spec):
    for i in range(INDICES):
        try:
            yield _coeffs(G.enumerate_group_algebra(spec, i))
        except G.GroupError as exc:
            yield type(exc).__name__


def _indexed(spec, letters, name):
    rng = random.Random(f"enumeration-golden/{name}")
    for _ in range(ELEMENTS):
        terms = []
        for _ in range(rng.randint(0, 4)):
            word = tuple((rng.choice(letters), rng.choice([-2, -1, 1, 2]))
                         for _ in range(rng.randint(0, 4)))
            c = GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                 Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            terms.append((c, word))
        a = G.element(spec, terms)
        yield _coeffs(a), G.group_algebra_index(a)


def digest(name: str) -> str:
    spec, letters = _specs()[name]
    h = hashlib.sha256()
    for out in itertools.chain(_enumerated(spec), _indexed(spec, letters, name)):
        h.update(repr(out).encode())
        h.update(b"\n")
    return h.hexdigest()


def _goldens() -> dict[str, str]:
    return dict(line.split() for line in GOLDEN.read_text().splitlines())


@pytest.mark.parametrize("name", sorted(_specs()))
def test_enumeration_matches_golden(name):
    assert digest(name) == _goldens()[name]


def test_indexed_elements_round_trip():
    for name, (spec, letters) in _specs().items():
        for _, index in _indexed(spec, letters, name):
            assert G.group_algebra_index(G.enumerate_group_algebra(spec, index)) == index


if __name__ == "__main__":
    for name in sorted(_specs()):
        print(name, digest(name))

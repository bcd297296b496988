"""Golden sha256 of the exact outputs of the trace-power kernels.

About twenty seeded inputs per route: `opnorm_upper` for m = 0..8 on
matrices of sizes 1 to 4, and `moments_up_to` plus `lambda_norm_lower_sweep`
on the excursion-DP route (letter-supported F2 elements) and on the
convolution route (Z, Z^2, F2 words, a table group and a rewriting group).
Every output is an exact rational, so any change in a certified value changes
the digest.  The goldens in tests/golden/kernels.sha256 were captured on the
Fraction kernels the integer ones replaced.

Run this file as a script to print the current digests.
"""

import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest

from contlogic import groups as G
from contlogic import matrices as M
from contlogic.gaussian import GaussianRational

GOLDEN = Path(__file__).parent / "golden" / "kernels.sha256"
INPUTS = 20


def _gaussian(rng, span, den):
    return GaussianRational(Fraction(rng.randint(-span, span), rng.randint(1, den)),
                            Fraction(rng.randint(-span, span), rng.randint(1, den)))


def _matrix_outputs():
    for i in range(INPUTS):
        rng = random.Random(f"kernel-golden/matrix/{i}")
        n = 1 + i % 4
        a = M.Matrix([[_gaussian(rng, 6, 6) for _ in range(n)] for _ in range(n)])
        yield [M.opnorm_upper(a, m) for m in range(9)]


_F2_LETTERS = [(("u", 1),), (("u", -1),), (("v", 1),), (("v", -1),), ()]


def _moment_outputs(a, n, k):
    return [G.moments_up_to(a, n), G.lambda_norm_lower_sweep(a, n, k)]


def _dp_outputs():
    f2 = G.free_group("u", "v")
    for i in range(INPUTS):
        rng = random.Random(f"kernel-golden/dp/{i}")
        words = rng.sample(_F2_LETTERS, rng.randint(1, 5))
        a = G.element(f2, [(_gaussian(rng, 4, 4), w) for w in words])
        if G._letter_weights(a) is None:
            raise AssertionError("DP-route input is not letter-supported")
        yield _moment_outputs(a, 6 + i % 7, 8 + i % 9)


def _conv_specs():
    z3 = (("e", "a", "b"), "e", [["e", "a", "b"], ["a", "b", "e"], ["b", "e", "a"]])
    return [
        (G.free_abelian("u"), [(("u", 1),), (("u", -1),), (("u", 2),), ()]),
        (G.free_abelian("u", "v"), [(("u", 1),), (("v", -1),), (("u", 1), ("v", 1)), ()]),
        (G.free_group("u", "v"), [(("u", 1), ("v", 1)), (("u", -1),), (("v", -1), ("u", 1)), ()]),
        (G.TableGroup(*z3), [(("a", 1),), (("b", 1),), ()]),
        (G.RewritingGroup(("a",), [("aaaa", ""), ("A", "aaa")]),
         [(("a", 1),), (("a", 2),), ()]),
    ]


def _conv_outputs():
    specs = _conv_specs()
    for i in range(INPUTS):
        rng = random.Random(f"kernel-golden/conv/{i}")
        spec, pool = specs[i % len(specs)]
        words = rng.sample(pool, rng.randint(2, len(pool)))
        a = G.element(spec, [(_gaussian(rng, 4, 4), w) for w in words])
        yield _moment_outputs(a, 3 + i % 4, 8 + i % 9)


ROUTES = {"matrix": _matrix_outputs, "moments_dp": _dp_outputs,
          "moments_conv": _conv_outputs}


def digest(route: str) -> str:
    h = hashlib.sha256()
    for outputs in ROUTES[route]():
        h.update(repr(outputs).encode())
        h.update(b"\n")
    return h.hexdigest()


def _goldens() -> dict[str, str]:
    return dict(line.split() for line in GOLDEN.read_text().splitlines())


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_kernel_outputs_match_golden(route):
    assert digest(route) == _goldens()[route]


if __name__ == "__main__":
    for name in sorted(ROUTES):
        print(name, digest(name))

"""The Fraction kernels: test oracles.

These are `matrices.opnorm_upper`, `matrices.opnorm_lower`,
`groups.moments_up_to` (with its excursion DP), `dyadic.nth_root_lower_grid`
and the body of `AlgebraElement.__mul__` as they were before the kernels moved
to integers over a common denominator, and `dyadic.int_nth_root` as it was
before square roots took the factors 2 of n, kept verbatim so that
differential tests can check that the new kernels return the same exact
values.  Only the imports were edited, `__mul__` became the function
`algebra_mul`, `moments_up_to` multiplies with it, and `Matrix.apply` became
the function `matrix_apply`, which `opnorm_lower` calls.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from contlogic.dyadic import nth_root_upper_grid, sqrt_interval
from contlogic.gaussian import GaussianRational, gr
from contlogic.groups import IDENTITY, AlgebraElement, FreeGroup, Word
from contlogic.matrices import Matrix, SizeMismatch, ZeroVector


def opnorm_upper(a: Matrix, m: int, prec: int = 16) -> Fraction:
    """Certified rational p >= |A| (operator norm) from m trace squarings.

    p = (tr(H^(2^m)))^(1/2^(m+1)) with H = A* A, ceiled to the 2^-prec grid.
    Since sum of the 2^m-th eigenvalue powers dominates the largest one and
    grid ceiling is monotone, p is sound and nonincreasing in m.
    """
    if m < 0:
        raise ValueError("m must be a natural")
    h = a.conj_transpose() * a
    power = h
    for _ in range(m):
        power = power * power
    t = power.trace()
    if t.im != 0 or t.re < 0:
        raise AssertionError("trace of a power of A*A must be real nonnegative")
    return nth_root_upper_grid(t.re, 2 ** (m + 1), prec)


def algebra_mul(self: AlgebraElement, other: AlgebraElement) -> AlgebraElement:
    self._check(other)
    acc: dict[Word, GaussianRational] = {}
    for w1, c1 in self.coeffs.items():
        for w2, c2 in other.coeffs.items():
            w = self.spec.mul(w1, w2)
            c = c1 * c2
            total = acc.get(w, gr(0)) + c
            if total.is_zero():
                acc.pop(w, None)
            else:
                acc[w] = total
    return AlgebraElement(self.spec, acc)


Letter = Optional[tuple[str, int]]  # None stands for the identity self-loop


def _letter_weights(a: AlgebraElement) -> Optional[dict[Letter, GaussianRational]]:
    """Weight map when every support word is a single letter or the identity."""
    weights: dict[Letter, GaussianRational] = {}
    for w, c in a.coeffs.items():
        if w == IDENTITY:
            weights[None] = c
        elif len(w) == 1 and abs(w[0][1]) == 1:
            weights[w[0]] = c
        else:
            return None
    return weights


def _free_walk_traces(w0: dict[Letter, GaussianRational],
                      w1: dict[Letter, GaussianRational],
                      steps: int) -> list[GaussianRational]:
    """Weights of root-to-root walks of every length 0..steps on the Cayley
    tree, where step i draws its letter weight from w0 (i even) or w1.

    First-return excursion DP over cone types: a walk confined below a vertex
    decomposes into self-loops and excursions into children, and every cone of
    the tree looks alike except for the blocked parent direction.
    """
    letters = sorted(
        {s for s in w0 if s is not None} | {s for s in w1 if s is not None}
    )
    weight = (
        {s: w0.get(s, gr(0)) for s in letters + [None]},
        {s: w1.get(s, gr(0)) for s in letters + [None]},
    )
    inv = {s: (s[0], -s[1]) for s in letters}
    contexts: list[Letter] = [None] + letters  # blocked parent direction; None = root
    # dp[(parity, m, blocked)] = weight of length-m walks v -> v below v
    dp: dict[tuple[int, int, Letter], GaussianRational] = {}
    for p in (0, 1):
        for f in contexts:
            dp[(p, 0, f)] = gr(1)
    for m in range(1, steps + 1):
        for p in (0, 1):
            for f in contexts:
                total = weight[p][None] * dp[((p + 1) % 2, m - 1, f)]
                for t in letters:
                    if t == f:
                        continue
                    wt = weight[p][t]
                    if wt.is_zero():
                        continue
                    for j in range(0, m - 1):
                        back = weight[(p + 1 + j) % 2][inv[t]]
                        if back.is_zero():
                            continue
                        total = total + wt * dp[((p + 1) % 2, j, inv[t])] * back * dp[
                            ((p + j) % 2, m - 2 - j, f)
                        ]
                dp[(p, m, f)] = total
    return [dp[(0, m, None)] for m in range(steps + 1)]


def _real_trace(value: GaussianRational) -> Fraction:
    if value.im != 0:
        raise AssertionError("moment of a positive element must be real")
    return value.re


def moments_up_to(a: AlgebraElement, n: int) -> list[Fraction]:
    """[tau((a* a)^j) for j = 1..n], exact.

    Letter-supported elements over a free group take the excursion DP route
    (one table serves every j); everything else multiplies out the powers.
    The generic power of a free-group element has exponentially many words,
    so the DP is the only practical route for large n there; both routes are
    exact and agree on their common range.
    """
    if n < 1:
        raise ValueError("moments need n >= 1")
    if isinstance(a.spec, FreeGroup):
        wa = _letter_weights(a)
        if wa is not None:
            wstar = _letter_weights(a.adjoint())
            traces = _free_walk_traces(wstar, wa, 2 * n)
            return [_real_trace(traces[2 * j]) for j in range(1, n + 1)]
    h = algebra_mul(a.adjoint(), a)
    out = []
    power = h
    out.append(_real_trace(power.trace()))
    for _ in range(n - 1):
        power = algebra_mul(power, h)
        out.append(_real_trace(power.trace()))
    return out


def nth_root_lower_grid(x: Fraction, n: int, k: int, hi_pow2: int) -> Fraction:
    """Dyadic q with q <= x ** (1/n) <= q + 2^-k, for 0 <= x <= (2^hi_pow2)^n.

    Bisection on the dyadic grid: endpoints stay dyadic, comparisons are exact
    rational power comparisons, and the returned value is the grid floor (ties
    land on the grid point itself), hence monotone in x.
    """
    if x < 0:
        raise ValueError("negative radicand")
    lo = Fraction(0)
    hi = Fraction(1 << hi_pow2) if hi_pow2 >= 0 else Fraction(1, 1 << -hi_pow2)
    if hi**n < x:
        raise ValueError("hi_pow2 too small for radicand")
    steps = hi_pow2 + k
    for _ in range(max(steps, 0)):
        mid = (lo + hi) / 2
        if mid**n <= x:
            lo = mid
        else:
            hi = mid
    return lo


def int_nth_root(x: int, n: int) -> int:
    """floor(x ** (1/n)) by Newton iteration, exact for any nonnegative int."""
    if x < 0 or n < 1:
        raise ValueError("int_nth_root needs x >= 0, n >= 1")
    if x == 0:
        return 0
    if n == 1:
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


def matrix_apply(self: Matrix, v: tuple[GaussianRational, ...]) -> tuple[GaussianRational, ...]:
    if len(v) != self.n:
        raise SizeMismatch(f"vector length {len(v)} vs size {self.n}")
    return tuple(sum((a * x for a, x in zip(row, v)), gr(0)) for row in self.rows)


def opnorm_lower(a: Matrix, v: tuple[GaussianRational, ...], k: int = 16) -> Fraction:
    """Certified dyadic lower bound |Av|_2 / |v|_2 <= |A| (Rayleigh witness)."""
    vv = sum((x.abs_sq() for x in v), Fraction(0))
    if vv == 0:
        raise ZeroVector("Rayleigh witness must be nonzero")
    av = matrix_apply(a, v)
    ratio = sum((x.abs_sq() for x in av), Fraction(0)) / vv
    return sqrt_interval(ratio, k)[0]

"""Certified sup-norm of trigonometric polynomials on the d-torus.

A group-algebra element over Z^d acts by f(z) = sum c_m z^m on the torus
|z_j| = 1.  Each circle is covered by the charts z = s(1+it)^2/(1+t^2),
s = +/-1, t in [-1,1], where 1/z = conj(z) = s(1-it)^2/(1+t^2).  With M_j the
largest |exponent| in coordinate j, F = f * prod_j (1+t_j^2)^M_j is a
polynomial, and |f|^2 = P/Q with P = (Re F)^2 + (Im F)^2 and
Q = prod_j (1+t_j^2)^(2 M_j), both of degree 4 M_j in t_j and built once per
chart as integer tensor polynomials over one common denominator D^2.

On a box where Q's Bernstein coefficients are positive, P/Q lies between the
least and the greatest ratio P_i/Q_i of matching Bernstein coefficients, an
overestimate of order w^2 in the box width w (Garloff, "Convergent bounds for
the range of multivariate polynomials", 1986; Narkawicz, Garloff, Smith &
Munoz, "Bounding the range of a rational function over a box", Reliable
Computing 2012).  Over [-1,1] Q's coefficients vanish at odd indices, so each
chart starts from its 2^d half-boxes split at t = 0.  Ratios at corners are
exact lower bounds.  The box of greatest upper bound is split at its midpoint
until the square roots of both bounds are pinned to width 2^-k.  Conversion
(C(n,i) b_i = sum_q C(n-q, i-q) c_q) and de Casteljau splits (scaled by
2^degree) stay in the integers.  The conversion weights of each degree are
built once per process (`_bernstein_weights`), and the sign flips of the
half-boxes once per call.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, lcm, prod
from operator import mul

from .dyadic import check_precision, sqrt_interval
from .gaussian import ContlogicError, GaussianRational, over_common_denominator

Vector = tuple[int, ...]

_MAX_BOXES = 200000


class TorusBoundFailure(ContlogicError):
    pass


def _chart_factor(m: int, e: int) -> list[tuple[int, int]]:
    """(1+it)^(m+e) (1-it)^(m-e) = z^e (1+t^2)^m / s^e, as Gaussian integers."""
    poly = [(1, 0)]
    for sign in [1] * (m + e) + [-1] * (m - e):
        # times 1 + sign*i*t, where i*(a+bi) = -b+ai
        poly = [(a - sign * pb, b + sign * pa)
                for (a, b), (pa, pb) in zip(poly + [(0, 0)], [(0, 0)] + poly)]
    return poly


@lru_cache(maxsize=16)
def _bernstein_weights(n: int) -> tuple[tuple[int, ...], ...]:
    """Row i: C(n-q, i-q) * lcm_j C(n,j) / C(n,i) for q = 0..i."""
    scale = lcm(*(comb(n, i) for i in range(n + 1)))
    return tuple(tuple(comb(n - q, i - q) * (scale // comb(n, i)) for q in range(i + 1))
                 for i in range(n + 1))


def _to_bernstein(coeffs: list[int], fibers: list[list[int]]) -> list[int]:
    """Power to Bernstein coefficients on [0,1] along one axis, times lcm_i C(n,i)."""
    weights = _bernstein_weights(len(fibers[0]) - 1)
    out = coeffs[:]
    for fiber in fibers:
        row = [coeffs[f] for f in fiber]
        for f, w in zip(fiber, weights):
            out[f] = sum(map(mul, w, row))
    return out


def _split(coeffs: list[int], fibers: list[list[int]]) -> tuple[list[int], list[int]]:
    """De Casteljau at the midpoint along one axis, both halves times 2^n."""
    left, right = coeffs[:], coeffs[:]
    for fiber in fibers:
        row = [coeffs[f] for f in fiber]
        n = len(row) - 1
        for r in range(n + 1):
            # row holds 2^r times the r-th de Casteljau level
            left[fiber[r]] = row[0] << (n - r)
            right[fiber[n - r]] = row[n - r] << (n - r)
            row = [a + b for a, b in zip(row, row[1:])]
    return left, right


def _chart_numerator(terms, degrees: list[int], signs: Vector) -> list[int]:
    """P = |F|^2 in t on the chart of `signs`, flat over shape 4M_j+1."""
    factors = [{e: _chart_factor(m, e) for e in range(-m, m + 1)} for m in degrees]
    f_re = [0] * prod(2 * m + 1 for m in degrees)
    f_im = f_re[:]
    for vec, (cr, ci) in terms:
        flip = -1 if sum(e for e, s in zip(vec, signs) if s < 0) % 2 else 1
        term = [(flip * cr, flip * ci)]
        for fac, e in zip(factors, vec):
            term = [(ar * br - ai * bi, ar * bi + ai * br)
                    for ar, ai in term for br, bi in fac[e]]
        for idx, (r, i) in enumerate(term):
            f_re[idx] += r
            f_im[idx] += i
    # F's coefficients at multi-indices a and b meet in P at offset(a) + offset(b)
    offsets = [0]
    for m in degrees:
        offsets = [o * (4 * m + 1) + i for o in offsets for i in range(2 * m + 1)]
    nonzero = [(o, r, i) for o, r, i in zip(offsets, f_re, f_im) if r or i]
    numerator = [0] * prod(4 * m + 1 for m in degrees)
    for oa, ra, ia in nonzero:
        for ob, rb, ib in nonzero:
            numerator[oa + ob] += ra * rb + ia * ib
    return numerator


def torus_sup_norm(support: dict[Vector, GaussianRational], k: int
                   ) -> tuple[Fraction, Fraction]:
    """Interval of width <= 2^-k around sup |sum c_m z^m| over the d-torus."""
    check_precision(k)
    support = {tuple(v): c for v, c in support.items() if not c.is_zero()}
    if not support:
        return (Fraction(0), Fraction(0))
    dims = len(next(iter(support)))
    if any(len(v) != dims for v in support):
        raise ValueError("support vectors have mixed dimensions")

    degrees = [max(abs(v[j]) for v in support) for j in range(dims)]
    denom, ints = over_common_denominator(support.values())
    shape = tuple(4 * m + 1 for m in degrees)
    digits = list(product(*(range(n) for n in shape)))  # flat row-major order
    # fibers[j]: the flat indices of every line along axis j
    fibers = [[[base + i * prod(shape[j + 1:]) for i in range(n)]
               for base, idx in enumerate(digits) if idx[j] == 0]
              for j, n in enumerate(shape)]
    corners = [i for i, idx in enumerate(digits)
               if all(a in (0, n - 1) for a, n in zip(idx, shape))]
    # Q is a product of one factor (1+u^2)^(2 M_j) per axis, in Bernstein form
    q_start = [_to_bernstein([comb(2 * m, i // 2) * (1 - i % 2) for i in range(n)],
                             [list(range(n))]) for m, n in zip(degrees, shape)]

    best_lb = Fraction(0)  # lower bound on sup |f|^2
    heap: list = []
    boxes = 0  # boxes bounded so far, also the heap's tie-breaker

    def push(depths: tuple[int, ...], coeffs: list[int], qs: list[list[int]]):
        nonlocal best_lb, boxes
        boxes += 1
        if boxes > _MAX_BOXES:
            raise TorusBoundFailure("subdivision budget exhausted")
        if any(c <= 0 for q in qs for c in q):
            raise TorusBoundFailure("a Bernstein coefficient of Q is not positive")
        den = [prod(c) for c in product(*qs)]
        best_lb = max(best_lb, *(Fraction(coeffs[i], den[i] * denom**2) for i in corners))
        top_p, top_q = coeffs[0], den[0]
        for p, q in zip(coeffs, den):
            if p * top_q > top_p * q:
                top_p, top_q = p, q
        ub = Fraction(top_p, top_q * denom**2)
        if ub > best_lb:  # otherwise the box holds nothing above best_lb
            heapq.heappush(heap, (-ub, boxes, depths, coeffs, qs))

    # the half t <= 0 is t = -u with u in [0,1]: a coefficient flips sign
    # when its degrees in the axes taken negative sum to an odd number
    halves = [[sum(a for a, h in zip(idx, half) if h < 0) % 2 for idx in digits]
              for half in product((1, -1), repeat=dims)]
    for signs in product((1, -1), repeat=dims):
        numerator = _chart_numerator(zip(support, ints), degrees, signs)
        for flips in halves:
            coeffs = [-c if f else c for c, f in zip(numerator, flips)]
            for fib in fibers:
                coeffs = _to_bernstein(coeffs, fib)
            push((0,) * dims, coeffs, q_start)

    while True:
        # boxes left out of the heap were bounded by an earlier best_lb
        sup_sq_ub = max(-heap[0][0], best_lb) if heap else best_lb
        root_lo = sqrt_interval(best_lb, k + 2)[0]
        root_hi = sqrt_interval(sup_sq_ub, k + 2)[1]
        if root_hi - root_lo <= Fraction(1, 2 ** k):
            return (root_lo, root_hi)
        _, _, depths, coeffs, qs = heapq.heappop(heap)
        # the widest box side among the axes of positive degree
        axis = min((j for j in range(dims) if degrees[j]), key=lambda j: depths[j])
        parts = zip(_split(coeffs, fibers[axis]), _split(qs[axis], [list(range(shape[axis]))]))
        for part, q_part in parts:
            push(tuple(d + (j == axis) for j, d in enumerate(depths)), part,
                 [q_part if j == axis else q for j, q in enumerate(qs)])

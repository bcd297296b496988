"""Interval-arithmetic torus sup-norm: the test oracle.

This is the branch-and-bound `contlogic.torus.torus_sup_norm` ran before it
moved to Bernstein enclosures, kept verbatim so that differential tests can
check the new brackets against it.  Its original description follows.

Certified sup-norm of trigonometric polynomials on the d-torus.

A group-algebra element over Z^d acts by the function f(z) = sum c_m z^m on
the torus |z_j| = 1.  Points on each circle are parametrized rationally by
z = +/-((1-t^2) + 2ti)/(1+t^2) for t in [-1,1] (two charts cover the circle,
and rational t gives an exact circle point), so |f|^2 can be bounded by exact
rational interval arithmetic and maximized by branch-and-bound: midpoints
give exact lower bounds, interval evaluation gives upper bounds, and boxes
are split until the square root of the enclosure is pinned to width 2^-k.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from contlogic.dyadic import sqrt_interval
from contlogic.gaussian import ContlogicError, GaussianRational

Vector = tuple[int, ...]
Interval = tuple[Fraction, Fraction]

_MAX_BOXES = 200000


class TorusBoundFailure(ContlogicError):
    pass


def _iadd(a: Interval, b: Interval) -> Interval:
    return (a[0] + b[0], a[1] + b[1])


def _isub(a: Interval, b: Interval) -> Interval:
    return (a[0] - b[1], a[1] - b[0])


def _imul(a: Interval, b: Interval) -> Interval:
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(products), max(products))


def _isquare(a: Interval) -> Interval:
    lo = Fraction(0) if a[0] <= 0 <= a[1] else min(a[0] * a[0], a[1] * a[1])
    return (lo, max(a[0] * a[0], a[1] * a[1]))


def _const(q: Fraction) -> Interval:
    return (q, q)


def _circle_interval(t: Interval, sign: int) -> tuple[Interval, Interval]:
    """Enclosure of (cos, sin) over the chart t |-> +/-(1-t^2, 2t)/(1+t^2)."""
    t2 = _isquare(t)
    den = _iadd(_const(Fraction(1)), t2)
    num_c = _isub(_const(Fraction(1)), t2)
    # den >= 1 > 0, so division is monotone
    c_lo = min(num_c[0] / den[0], num_c[0] / den[1])
    c_hi = max(num_c[1] / den[0], num_c[1] / den[1])
    two_t = _imul(_const(Fraction(2)), t)
    s_lo = min(two_t[0] / den[0], two_t[0] / den[1])
    s_hi = max(two_t[1] / den[0], two_t[1] / den[1])
    if sign < 0:
        c_lo, c_hi = -c_hi, -c_lo
    return (c_lo, c_hi), (s_lo, s_hi)


def _circle_point(t: Fraction, sign: int) -> tuple[Fraction, Fraction]:
    den = 1 + t * t
    c = (1 - t * t) / den
    s = 2 * t / den
    return (sign * c, s)


def _complex_mul(a, b):
    (ar, ai), (br, bi) = a, b
    return (_isub(_imul(ar, br), _imul(ai, bi)), _iadd(_imul(ar, bi), _imul(ai, br)))


def _complex_pow(z, e: int):
    if e < 0:
        z = (z[0], _isub(_const(Fraction(0)), z[1]))  # conjugate: on-circle inverse
        e = -e
    out = (_const(Fraction(1)), _const(Fraction(0)))
    base = z
    while e:
        if e & 1:
            out = _complex_mul(out, base)
        base = _complex_mul(base, base)
        e >>= 1
    return out


def _abs_sq_interval(support: dict[Vector, GaussianRational],
                     coords: list[tuple[Interval, Interval]]) -> Interval:
    total_re: Interval = _const(Fraction(0))
    total_im: Interval = _const(Fraction(0))
    for vec, coeff in support.items():
        term = (_const(coeff.re), _const(coeff.im))
        for z, e in zip(coords, vec):
            if e:
                term = _complex_mul(term, _complex_pow(z, e))
        total_re = _iadd(total_re, term[0])
        total_im = _iadd(total_im, term[1])
    return _iadd(_isquare(total_re), _isquare(total_im))


def _abs_sq_exact(support: dict[Vector, GaussianRational],
                  points: list[tuple[Fraction, Fraction]]) -> Fraction:
    total = GaussianRational(Fraction(0), Fraction(0))
    for vec, coeff in support.items():
        term = coeff
        for (c, s), e in zip(points, vec):
            z = GaussianRational(c, s)
            if e < 0:
                z = z.conjugate()
                e = -e
            for _ in range(e):
                term = term * z
        total = total + term
    return total.abs_sq()


def torus_sup_norm(support: dict[Vector, GaussianRational], k: int
                   ) -> tuple[Fraction, Fraction]:
    """Interval of width <= 2^-k around sup |sum c_m z^m| over the d-torus."""
    support = {tuple(v): c for v, c in support.items() if not c.is_zero()}
    if not support:
        return (Fraction(0), Fraction(0))
    dims = len(next(iter(support)))
    if any(len(v) != dims for v in support):
        raise ValueError("support vectors have mixed dimensions")
    tol = Fraction(1, 2 ** k)

    full: Interval = (Fraction(-1), Fraction(1))
    best_lb = Fraction(0)  # lower bound on sup |f|^2
    counter = 0
    heap: list = []
    boxes = 0

    def push(signs: tuple[int, ...], box: tuple[Interval, ...]):
        nonlocal counter, best_lb, boxes
        boxes += 1
        if boxes > _MAX_BOXES:
            raise TorusBoundFailure("subdivision budget exhausted")
        mid = [ (b[0] + b[1]) / 2 for b in box ]
        value = _abs_sq_exact(support, [
            _circle_point(m, s) for m, s in zip(mid, signs)
        ])
        best_lb = max(best_lb, value)
        coords = [_circle_interval(b, s) for b, s in zip(box, signs)]
        ub = _abs_sq_interval(support, coords)[1]
        counter += 1
        heapq.heappush(heap, (-ub, counter, signs, box))

    for chart in range(2 ** dims):
        signs = tuple(1 if (chart >> j) & 1 == 0 else -1 for j in range(dims))
        push(signs, (full,) * dims)

    while True:
        neg_ub, _, signs, box = heap[0]
        sup_sq_ub = -neg_ub
        sup_sq_lb = best_lb
        root_lo = sqrt_interval(sup_sq_lb, k + 2)[0]
        root_hi = sqrt_interval(sup_sq_ub, k + 2)[1]
        if root_hi - root_lo <= tol:
            return (root_lo, root_hi)
        heapq.heappop(heap)
        if sup_sq_ub <= best_lb:
            # stale bound; re-push nothing, the next box carries the sup
            continue
        widths = [b[1] - b[0] for b in box]
        axis = widths.index(max(widths))
        lo, hi = box[axis]
        mid = (lo + hi) / 2
        for part in ((lo, mid), (mid, hi)):
            new_box = tuple(
                part if j == axis else box[j] for j in range(dims)
            )
            push(signs, new_box)

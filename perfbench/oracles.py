"""Independent oracles for the benchmark's output checks.

Nothing here calls into contlogic's arithmetic: complex numbers are pairs of
Fractions, group-algebra moments come from a plain convolution written for
this file, and metric formulas are evaluated by a separate recursive walk.
Only the formula classes are shared, because they are the input format.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from contlogic import formulas as F

ZERO = Fraction(0)


# -- complex pairs --------------------------------------------------------------


def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def cabs_sq(a) -> Fraction:
    return a[0] * a[0] + a[1] * a[1]


def abs_upper(a) -> Fraction:
    """|re| + |im|, a rational upper bound on |a|."""
    return abs(a[0]) + abs(a[1])


# -- finite metric spaces -------------------------------------------------------


def metric_violation(points: list, dist) -> str | None:
    """Why dist is not a [0,1]-valued metric on `points`, or None."""
    for i in points:
        if dist(i, i) != 0:
            return f"d({i},{i}) != 0"
        for j in points:
            dij = dist(i, j)
            if not 0 <= dij <= 1:
                return f"d({i},{j}) = {dij} outside [0,1]"
            if dij != dist(j, i):
                return f"d({i},{j}) is not symmetric"
            for k in points:
                if dist(i, k) > dij + dist(j, k):
                    return f"triangle inequality fails at ({i},{j},{k})"
    return None


def metric_value(formula, dist) -> Fraction:
    """Exact value of a quantifier-free metric sentence over constants."""
    if isinstance(formula, F.Atomic):
        return dist(*(term.index for term in formula.args))
    if isinstance(formula, F.Zero):
        return ZERO
    if isinstance(formula, F.One):
        return Fraction(1)
    if isinstance(formula, F.Half):
        return metric_value(formula.body, dist) / 2
    if isinstance(formula, F.DotMinus):
        return max(metric_value(formula.left, dist) - metric_value(formula.right, dist),
                   ZERO)
    raise ValueError(f"not a quantifier-free metric sentence: {formula!r}")


# -- group-algebra moments by plain convolution ---------------------------------


def free_mul(u: tuple, v: tuple) -> tuple:
    """Product of freely reduced words given as tuples of (generator, +-1)."""
    u = list(u)
    i = 0
    while u and i < len(v) and u[-1] == (v[i][0], -v[i][1]):
        u.pop()
        i += 1
    return tuple(u) + tuple(v[i:])


def free_inv(u: tuple) -> tuple:
    return tuple((g, -e) for g, e in reversed(u))


def abelian_mul(u: tuple, v: tuple) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def abelian_inv(u: tuple) -> tuple:
    return tuple(-a for a in u)


def moments(element: dict, n: int, mul, inv, identity) -> list[Fraction]:
    """[tau((a* a)^j) for j = 1..n] for a finitely supported element."""
    star = {inv(w): (c[0], -c[1]) for w, c in element.items()}

    def conv(a, b):
        out: dict = {}
        for w1, c1 in a.items():
            for w2, c2 in b.items():
                w = mul(w1, w2)
                c = cmul(c1, c2)
                old = out.get(w, (ZERO, ZERO))
                out[w] = (old[0] + c[0], old[1] + c[1])
        return {w: c for w, c in out.items() if c != (ZERO, ZERO)}

    h = conv(star, element)
    power = h
    out = []
    for _ in range(n):
        trace = power.get(identity, (ZERO, ZERO))
        if trace[1] != 0:
            raise ValueError("moment of a positive element has an imaginary part")
        out.append(trace[0])
        power = conv(power, h)
    return out


# -- trigonometric polynomials at rational circle points -------------------------


def circle_points() -> list:
    """Exact points ((1-t^2) + 2ti)/(1+t^2) and their negatives, t = j/4."""
    out = []
    for j in range(-4, 5):
        t = Fraction(j, 4)
        den = 1 + t * t
        z = ((1 - t * t) / den, 2 * t / den)
        out += [z, (-z[0], z[1])]
    return out


def torus_lower_sq(support: dict) -> Fraction:
    """max |f(z)|^2 over the grid of rational circle points, exactly."""
    dims = len(next(iter(support)))
    circle = circle_points()
    best = ZERO
    for zs in product(circle, repeat=dims):
        total = (ZERO, ZERO)
        for exps, c in support.items():
            term = c
            for z, e in zip(zs, exps):
                base = z if e >= 0 else (z[0], -z[1])  # on the circle, 1/z = conj(z)
                for _ in range(abs(e)):
                    term = cmul(term, base)
            total = (total[0] + term[0], total[1] + term[1])
        best = max(best, cabs_sq(total))
    return best


def root_floor_ok(q: Fraction, x: Fraction, n: int, k: int) -> bool:
    """q <= x^(1/n) <= q + 2^-k, decided by exact powers."""
    return q >= 0 and q ** n <= x <= (q + Fraction(1, 2 ** k)) ** n

"""The Fraction kernels: test oracles.

These are `matrices.opnorm_upper`, `matrices.opnorm_lower`,
`groups.moments_up_to` (with its excursion DP), `dyadic.nth_root_lower_grid`
and the body of `AlgebraElement.__mul__` as they were before the kernels moved
to integers over a common denominator, and `dyadic.int_nth_root` as it was
before square roots took the factors 2 of n, kept verbatim so that
differential tests can check that the new kernels return the same exact
values.  Only the imports were edited, `__mul__` became the function
`algebra_mul`, `moments_up_to` multiplies with it, and `Matrix.apply` became
the function `matrix_apply`, which `opnorm_lower` calls.  `opnorm_upper`
squares with the Fraction `matrix_mul` below, not with `Matrix.__mul__`.

The second half holds the presentation objects' operations as they were
while objects held GaussianRational values, before they moved to Gaussian
integers over one denominator, rewritten as functions on plain data: a
matrix is a tuple of rows of GaussianRational, a group-algebra element a
dict word -> GaussianRational (nonzero values), a function on Cantor space
a tree whose leaves are GaussianRational and whose splits are pairs.  The
bodies are the old methods' bodies; so are `rounded_bound_ok` and the `d`
atom, whose norms are the old oracles' radicands.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from contlogic.dyadic import nth_root_upper_grid, sqrt_interval
from contlogic.gaussian import GaussianRational, from_gaussian_int, gr
from contlogic.groups import IDENTITY, AlgebraElement, FreeGroup, GroupSpec, Word
from contlogic.matrices import Matrix, NotDyadicSize, SizeMismatch, ZeroVector
from contlogic.torus import torus_sup_norm


def opnorm_upper(a: Matrix, m: int, prec: int = 16) -> Fraction:
    """Certified rational p >= |A| (operator norm) from m trace squarings.

    p = (tr(H^(2^m)))^(1/2^(m+1)) with H = A* A, ceiled to the 2^-prec grid.
    Since sum of the 2^m-th eigenvalue powers dominates the largest one and
    grid ceiling is monotone, p is sound and nonincreasing in m.
    """
    if m < 0:
        raise ValueError("m must be a natural")
    h = matrix_mul(matrix_conj_transpose(a.rows), a.rows)
    power = h
    for _ in range(m):
        power = matrix_mul(power, power)
    t = matrix_trace(power)
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
    out.append(_real_trace(from_gaussian_int(*power.trace_int())))
    for _ in range(n - 1):
        power = algebra_mul(power, h)
        out.append(_real_trace(from_gaussian_int(*power.trace_int())))
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


# ---------------------------------------------------------------------------
# presentation objects on GaussianRational values
# ---------------------------------------------------------------------------

Rows = tuple[tuple[GaussianRational, ...], ...]


def matrix_add(a: Rows, b: Rows) -> Rows:
    if len(a) != len(b):
        raise SizeMismatch(f"{len(a)} vs {len(b)}")
    return tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(a, b))


def matrix_mul(a: Rows, b: Rows) -> Rows:
    if len(a) != len(b):
        raise SizeMismatch(f"{len(a)} vs {len(b)}")
    cols = list(zip(*b))
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), gr(0)) for col in cols)
                 for row in a)


def matrix_scale(a: Rows, lam: GaussianRational) -> Rows:
    return tuple(tuple(e * lam for e in row) for row in a)


def matrix_conj_transpose(a: Rows) -> Rows:
    n = len(a)
    return tuple(tuple(a[j][i].conjugate() for j in range(n)) for i in range(n))


def matrix_trace(a: Rows) -> GaussianRational:
    return sum((a[i][i] for i in range(len(a))), gr(0))


def matrix_embed_dyadic(a: Rows) -> Rows:
    if len(a) & (len(a) - 1) != 0:
        raise NotDyadicSize(f"size {len(a)} is not a power of two")
    z = gr(0)
    out = []
    for row in a:
        expanded0 = []
        expanded1 = []
        for e in row:
            expanded0.extend([e, z])
            expanded1.extend([z, e])
        out.append(tuple(expanded0))
        out.append(tuple(expanded1))
    return tuple(out)


def matrix_embed_to_size(a: Rows, n: int) -> Rows:
    out = a
    while len(out) < n:
        out = matrix_embed_dyadic(out)
    if len(out) != n:
        raise NotDyadicSize(f"cannot reach size {n} from {len(a)}")
    return out


def _align(a: Rows, b: Rows) -> tuple[Rows, Rows]:
    n = max(len(a), len(b))
    return matrix_embed_to_size(a, n), matrix_embed_to_size(b, n)


def tower_mul(a: Rows, b: Rows) -> Rows:
    """The matrix tower's product: both factors embedded to one size first."""
    return matrix_mul(*_align(a, b))


def tower_comb(lam, mu, a: Rows, b: Rows) -> Rows:
    a, b = _align(a, b)
    return matrix_add(matrix_scale(a, lam), matrix_scale(b, mu))


def matrix_two_norm(a: Rows, k: int) -> tuple[Fraction, Fraction]:
    radicand = sum((e.abs_sq() for row in a for e in row), Fraction(0)) / len(a)
    return sqrt_interval(radicand, k)


Coeffs = dict[Word, GaussianRational]


def algebra_add(a: Coeffs, b: Coeffs) -> Coeffs:
    acc = dict(a)
    for w, c in b.items():
        total = acc.get(w, gr(0)) + c
        if total.is_zero():
            acc.pop(w, None)
        else:
            acc[w] = total
    return acc


def algebra_scale(a: Coeffs, lam: GaussianRational) -> Coeffs:
    if lam.is_zero():
        return {}
    return {w: c * lam for w, c in a.items()}


def algebra_comb(lam, mu, a: Coeffs, b: Coeffs) -> Coeffs:
    return algebra_add(algebra_scale(a, lam), algebra_scale(b, mu))


def algebra_adjoint(spec: GroupSpec, a: Coeffs) -> Coeffs:
    return {spec.inv(w): c.conjugate() for w, c in a.items()}


def l1_norm(a: Coeffs) -> Fraction:
    return sum((c.abs_upper() for c in a.values()), Fraction(0))


def algebra_two_norm(a: Coeffs, k: int) -> tuple[Fraction, Fraction]:
    return sqrt_interval(sum((c.abs_sq() for c in a.values()), Fraction(0)), k)


def cantor_canon(tree):
    if isinstance(tree, GaussianRational):
        return tree
    left, right = cantor_canon(tree[0]), cantor_canon(tree[1])
    if isinstance(left, GaussianRational) and left == right:
        return left
    return (left, right)


def _cantor_zip(a, b, op):
    if isinstance(a, GaussianRational) and isinstance(b, GaussianRational):
        return op(a, b)
    al, ar = (a, a) if isinstance(a, GaussianRational) else a
    bl, br = (b, b) if isinstance(b, GaussianRational) else b
    return (_cantor_zip(al, bl, op), _cantor_zip(ar, br, op))


def _cantor_map(tree, op):
    if isinstance(tree, GaussianRational):
        return op(tree)
    return (_cantor_map(tree[0], op), _cantor_map(tree[1], op))


def cantor_mul(a, b):
    return cantor_canon(_cantor_zip(a, b, lambda x, y: x * y))


def cantor_comb(lam, mu, a, b):
    return cantor_canon(_cantor_zip(a, b, lambda x, y: x * lam + y * mu))


def cantor_adjoint(a):
    return cantor_canon(_cantor_map(a, lambda z: z.conjugate()))


def cantor_leaves(tree) -> list[GaussianRational]:
    if isinstance(tree, GaussianRational):
        return [tree]
    return cantor_leaves(tree[0]) + cantor_leaves(tree[1])


def cantor_sup_abs_sq(a) -> Fraction:
    return max(z.abs_sq() for z in cantor_leaves(a))


def rounded_bound_ok(lam: GaussianRational, mu: GaussianRational) -> bool:
    """Decide |lam| + |mu| <= 1 exactly (one nested square root, squared away)."""
    x, y = lam.abs_sq(), mu.abs_sq()
    if x > 1 or y > 1:
        return False
    rest = 1 - x - y
    if rest < 0:
        return False
    # sqrt(x)+sqrt(y) <= 1  <=>  2 sqrt(xy) <= 1-x-y  <=>  4xy <= (1-x-y)^2
    return 4 * x * y <= rest * rest


def _cstar_free_norm(spec: GroupSpec, a: Coeffs, k: int, budget: int):
    """The non-abelian C*_lambda oracle: the best moment root against l1."""
    if not a:
        return (Fraction(0), Fraction(0))
    upper = max(l1_norm(a), Fraction(1))
    hi_pow2 = (upper.numerator // upper.denominator + 1).bit_length()
    moments = moments_up_to(AlgebraElement(spec, a), budget)
    lower = max(nth_root_lower_grid(m, 2 * j, k, hi_pow2)
                for j, m in enumerate(moments, start=1))
    return (lower, l1_norm(a))


def d_atom(kind: str, a, b, k: int, spec: Optional[GroupSpec] = None,
           budget: int = 8) -> tuple[Fraction, Fraction]:
    """d(a, b) = |a/2 - b/2| in presentation `kind` (R, L, C2w, CstarZ or
    CstarF2), clipped into [0, 1]."""
    half = gr(Fraction(1, 2))
    if kind == "R":
        lo, hi = matrix_two_norm(tower_comb(half, -half, a, b), k)
    elif kind == "C2w":
        lo, hi = sqrt_interval(cantor_sup_abs_sq(cantor_comb(half, -half, a, b)), k)
    else:
        obj = algebra_comb(half, -half, a, b)
        if kind == "L":
            lo, hi = algebra_two_norm(obj, k)
        elif kind == "CstarZ":
            lo, hi = torus_sup_norm({tuple(dict(w).get(g, 0) for g in spec.generators): c
                                     for w, c in obj.items()}, k)
        else:
            lo, hi = _cstar_free_norm(spec, obj, k, budget)
    return (max(lo, Fraction(0)), min(hi, Fraction(1)))

"""Exact Gaussian-rational matrix arithmetic with certified norm bounds.

The normalized trace tr(A)/n makes matrix algebras of dyadic sizes 2^k (with
the trace-preserving inclusions A -> A (x) I_2) a single tracial tower whose
2-norms are exactly computable.  Certified operator-norm upper bounds come
from trace powers: |A|^2 = |A* A| <= (tr((A* A)^(2^m)))^(1/2^m), with the
root ceiled onto a fixed dyadic grid so bounds are monotone in m by exact
comparison.  No floating point appears in any certified path.

A matrix A is held as B = DA over its least common denominator D, entry by
entry row by row (a `gaussian.GaussianInts` of layout n), so equal matrices
have equal fields; operations run on B with one gcd per result.
Operands of two sizes meet in the tower: `*` and `comb` first bring the
smaller one up to the larger size by A -> A (x) I_r (`embed_to_size`).
H = B B* has the trace powers of B* B = D^2 A* A (by cyclicity,
tr((B B*)^k) = tr((B* B)^k)), so tr((A* A)^(2^m)) is the integer
tr(H^(2^m)) over D^(2^(m+1)); that is the only division.

One chain serves every m, and it switches once, at a point that depends on
n alone.  While the powers are small it squares P_0 = H, P_j = P_(j-1)^2,
and the last squaring is never done: each P_j is Hermitian, so by the
Frobenius identity tr(P_j^2) = sum_ik P_ik conj(P_ik) = sum_ik |P_ik|^2,
and tr(H^(2^m)) = |P_(m-1)|_F^2 for m >= 1 (tr H = |B|_F^2 for m = 0).
Each squaring takes three integer dot products per entry above the
diagonal (Gauss's complex product), about 1.5 n^3 big products, and
`_trace_product(P_j, P_j)` reads |P_j|_F^2 off P_j's upper triangle; only
the first trace, of B itself, sums every entry (`_frobenius_sq`).  Once
2^j passes h^2, h = ceil(n/2), the chain turns to Cayley-Hamilton:
H^N = r(H) for r = x^N mod chi_H, so
tr(H^N) = sum_i r_i p_i with the power sums p_i = tr(H^i), and
x^(2N) mod chi_H is r^2 reduced by chi_H's small integer coefficients,
n(n+1)/2 big products (the linear-recurrence trick of Fiduccia, SIAM J.
Comput. 14(1), 1985).  At the switch it fills in H^a for a <= h from the
powers of two it squared, reads p_k = tr(H^floor(k/2) H^ceil(k/2)) for
k <= n, and gets chi_H from Newton's identities, each of whose divisions
must be exact (`InexactNewtonStep` otherwise).  Below h^2 those n/2 power
products cost more than the squarings they would save.

The matrix keeps its chain for all its later bounds in two slots:
`_traces`, the traces so far, and `_power`, which holds the squared powers
before the switch (the P_j with 2^j <= h, and the last) and
(chi_H's reduction coefficients, [p_0, ..., p_(n-1)], the last remainder)
after it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from math import isqrt
from operator import add, mul, sub

# nth_root_upper_grid stays importable here, where perfbench/tracing.py wraps
# it, although the matrix roots call the kernel under it on integers
from .dyadic import _grid_root, nth_root_upper_grid, sqrt_interval  # noqa: F401
from .gaussian import (PARTS_MAX, ContlogicError, GaussianInts, GaussianRational,
                       over_common_denominator)
from .pairing import decode_tuple, encode_tuple, gaussian_to_nat, nat_to_gaussian


class MatrixError(ContlogicError):
    pass


class SizeMismatch(MatrixError):
    pass


class ZeroVector(MatrixError):
    pass


class NotDyadicSize(MatrixError):
    pass


class NegativeTrace(MatrixError):
    """A trace power of A* A came out negative, so the trace kernel is at fault."""


class InexactNewtonStep(MatrixError):
    """A Newton step for chi_H left a remainder, so a power sum is at fault."""


class MatrixTooLarge(MatrixError):
    """An enumerated matrix of more than PARTS_MAX entries."""


IntRows = tuple[tuple[int, ...], ...]


class Matrix(GaussianInts):
    """A square matrix over Q(i): Gaussian-integer entries over d, row by
    row in `parts`, with the size n as layout.  `Matrix(rows)` takes rows of
    GaussianRational and `.rows` gives them back; `.re` and `.im` are the
    integer rows the kernels read, built at each read.  `_traces`,
    `_power`: the trace chain (`_trace_chain`), begun empty by `_new`."""

    __slots__ = ("_traces", "_power")

    def __new__(cls, rows):
        rows = [tuple(row) for row in rows]
        if any(len(row) != len(rows) for row in rows):
            raise SizeMismatch("matrix must be square")
        return cls._new(len(rows), *over_common_denominator(chain.from_iterable(rows)))

    @classmethod
    def _new(cls, layout, d: int, parts) -> "Matrix":
        out = cls._make(layout, d, parts)  # with the trace chain not yet begun
        out._traces, out._power = [], []
        return out

    n = property(lambda self: self.layout)

    def _part_rows(self, j: int) -> IntRows:
        n, flat = self.layout, tuple([z[j] for z in self.parts])
        return tuple([flat[i:i + n] for i in range(0, n * n, n)])

    re = property(lambda self: self._part_rows(0))
    im = property(lambda self: self._part_rows(1))

    @property
    def rows(self) -> tuple[tuple[GaussianRational, ...], ...]:
        n, values = self.n, self.values()
        return tuple(tuple(values[i:i + n]) for i in range(0, n * n, n))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._new(n, 1, [(int(i == j), 0) for i in range(n) for j in range(n)])

    def __repr__(self):
        return f"Matrix({self.n}x{self.n})"

    def _aligned(self, other: "Matrix"):
        n = max(self.n, other.n)
        return n, zip(embed_to_size(self, n).parts, embed_to_size(other, n).parts)

    def __mul__(self, other: "Matrix") -> "Matrix":
        n = max(self.n, other.n)
        a, b = embed_to_size(self, n), embed_to_size(other, n)
        (ar, ai), (br, bi) = zip(*a.parts), zip(*b.parts)  # the parts, flat
        cols = [(br[j::n], bi[j::n]) for j in range(n)]
        return Matrix._new(n, a.d * b.d, [
            (sum(map(mul, r, c)) - sum(map(mul, s, e)), sum(map(mul, r, e)) + sum(map(mul, s, c)))
            for r, s in [(ar[i:i + n], ai[i:i + n]) for i in range(0, n * n, n)] for c, e in cols])

    def adjoint(self) -> "Matrix":
        n = self.n
        return Matrix._new(n, self.d, [(r, -i) for j in range(n) for r, i in self.parts[j::n]])

    def trace_int(self) -> tuple[int, int, int]:
        """(D, re, im) with tr(A)/n = (re + i*im)/D."""
        diagonal = self.parts[::self.n + 1]
        return self.d * self.n, sum(z[0] for z in diagonal), sum(z[1] for z in diagonal)


def two_norm(a: Matrix, k: int) -> tuple[Fraction, Fraction]:
    """Dyadic interval of width <= 2^-k around sqrt(tr(A* A)/n).

    The radicand is sum |a_ij|^2 / n, the integer |DA|_F^2 over D^2 n.
    """
    return sqrt_interval(Fraction(_trace_chain(a, 1)[0], a.d * a.d * a.n), k)


def _gram(re: IntRows, im: IntRows, other=None) -> tuple[IntRows, IntRows]:
    """G = R S* for the Gaussian-integer rows R = re + i*im and S = other
    (R when other is None).

    G_ij = sum_k R_ik conj(S_jk).  Only i <= j is computed, so G must be
    Hermitian: R R* always is, and so is R S* = R S for two commuting
    Hermitian R and S (two powers of H).  Each off-diagonal entry takes
    three dot products (Gauss's product, Knuth, TAOCP vol. 2, 4.6.4): with
    A = ri.sj, B = ii.tj and X = (ri + ii).(sj - tj) for S = s + i*t,
    Re G_ij = A + B and Im G_ij = X - A + B.  For Hermitian R this is R^2.
    """
    n = len(re)
    s_re, s_im = other or (re, im)
    sums = [list(map(add, r, s)) for r, s in zip(re, im)]
    diffs = [list(map(sub, r, s)) for r, s in zip(s_re, s_im)]
    g_re = [[0] * n for _ in range(n)]
    g_im = [[0] * n for _ in range(n)]
    for i in range(n):
        ri, ii, si = re[i], im[i], sums[i]
        g_re[i][i] = sum(map(mul, ri, s_re[i])) + sum(map(mul, ii, s_im[i]))
        for j in range(i + 1, n):
            a = sum(map(mul, ri, s_re[j]))
            b = sum(map(mul, ii, s_im[j]))
            g_re[i][j] = g_re[j][i] = a + b
            imag = sum(map(mul, si, diffs[j])) - a + b
            g_im[i][j], g_im[j][i] = imag, -imag
    return g_re, g_im


def _frobenius_sq(re: IntRows, im: IntRows) -> int:
    """sum_ik |R_ik|^2 = tr(R R*), read from every entry."""
    return sum(sum(map(mul, r, r)) + sum(map(mul, s, s)) for r, s in zip(re, im))


def _trace_product(x: tuple[IntRows, IntRows], y: tuple[IntRows, IntRows]) -> int:
    """tr(X Y) = Re sum_ik X_ik conj(Y_ik) for Hermitian `_gram` results X
    and Y: the diagonal plus twice the upper triangle.  With Y = X this is
    |X|_F^2 = tr(X^2), the trace a squaring step reads.
    """
    (xr, xi), (yr, yi) = x, y
    upper = sum(sum(map(mul, r[i + 1:], t[i + 1:])) + sum(map(mul, s[i + 1:], u[i + 1:]))
                for i, (r, s, t, u) in enumerate(zip(xr, xi, yr, yi)))
    return sum(r[i] * t[i] for i, (r, t) in enumerate(zip(xr, yr))) + 2 * upper


def _charpoly(sums: list[int]) -> list[int]:
    """[c_0, ..., c_(n-1)] with x^n = sum_i c_i x^i mod chi_H, from the
    power sums [n, p_1, ..., p_n], p_k = tr(H^k), by Newton's identities
    k e_k = sum_(i=1..k) (-1)^(i-1) e_(k-i) p_i (Cohen, A Course in
    Computational Algebraic Number Theory, 2.2); chi_H = sum_k (-1)^k e_k x^(n-k).

    H has integer entries, so every e_k is an integer; a step that leaves a
    remainder means a power sum is wrong and raises `InexactNewtonStep`.
    """
    n, e = len(sums) - 1, [1]
    for k in range(1, n + 1):
        s = sum(e[k - i] * sums[i] if i % 2 else -e[k - i] * sums[i] for i in range(1, k + 1))
        q, rem = divmod(s, k)
        if rem:
            raise InexactNewtonStep(f"Newton step e_{k} = {s}/{k} is not an integer")
        e.append(q)
    return [e[n - i] if (n - i) % 2 else -e[n - i] for i in range(n)]


def _square_mod(r: list[int], c: list[int]) -> list[int]:
    """r^2 mod chi_H for r of degree < n, with x^n = sum_i c_i x^i mod chi_H.

    The square takes n(n+1)/2 products of r's coefficients; reducing its
    terms of degree n..2n-2 from the top multiplies them by the c_i only.
    """
    n = len(r)
    rev = r[::-1]
    s = []
    for k in range(2 * n - 1):
        lo, mid = max(0, k - n + 1), (k + 1) // 2  # pairs i < k - i with i >= lo
        cross = sum(map(mul, r[lo:mid], rev[n - 1 - k + lo:n - 1 - k + mid]))
        s.append(2 * cross + (r[k // 2] ** 2 if k % 2 == 0 else 0))
    for d in range(2 * n - 2, n - 1, -1):
        if top := s.pop():
            s[d - n:] = [x + top * y for x, y in zip(s[d - n:], c)]
    return s


def _trace_chain(a: Matrix, ms: int) -> list[int]:
    """a's [tr(H^(2^m)) for m in range(ms)] or more, H = (DA)(DA)*.

    tr H = |DA|_F^2.  While 2^(m-1) <= ceil(n/2)^2, tr(H^(2^m)) = |P|_F^2 with
    the Hermitian P = H^(2^(m-1)) squared by `_gram`, so the squaring stops
    one short of the last power.  Past that, the chain switches once to the
    remainder x^(2^m) mod chi_H (see the module docstring).  The chain grows
    on `a` (a's own list is returned); new traces are checked, and a failed
    step leaves `a` as it was.
    """
    traces, h = a._traces, (a.n + 1) // 2
    while len(traces) < ms:
        m, state = len(traces), a._power
        if m == 0:
            t = _frobenius_sq(a.re, a.im)
        elif isinstance(state, list) and 1 << (m - 1) <= h * h:
            power = _gram(*state[-1]) if state else _gram(a.re, a.im)
            t = _trace_product(power, power)
            # keep the H^(2^j) with 2^j <= h, which a switch reads, and the last
            state = state[:h.bit_length()] + [power]
        else:
            if isinstance(state, list):
                state = _switch(a, state, traces, m - 1)
            c, sums, r = state
            r = _square_mod(r, c)
            t = sum(map(mul, r, sums))
            state = c, sums, r
        if t < 0:
            raise NegativeTrace(f"tr((A*A)^{2 ** m}) came out negative")
        a._power = state
        traces.append(t)
    return traces


def _switch(a: Matrix, squares: list, traces: list[int], m: int) -> tuple[list, list, list]:
    """(c, [p_0, ..., p_(n-1)], x^(2^m) mod chi_H) from the chain so far:
    squares[j] = H^(2^j) for 2^j <= ceil(n/2) and traces[j] = p_(2^j), with
    c as in `_charpoly`.

    The chain has passed 2^j = n/2, so it holds every p_k with k a power of
    two; each other p_k, k <= n, is tr(H^floor(k/2) H^ceil(k/2)).  Each
    power H^e the chain did not make is the product of H^top and H^(e-top)
    for the largest power of two top < e.  The remainder squares up from
    x^(2^i), 2^i the largest power of two <= n (x^n = sum c_i x^i).
    """
    n = a.n
    powers = {1 << j: p for j, p in enumerate(squares[:((n + 1) // 2).bit_length()])}

    def power(e: int):
        if e not in powers:
            top = 1 << (e.bit_length() - 1)
            powers[e] = _gram(*power(top), power(e - top))
        return powers[e]

    sums = [n] + [traces[k.bit_length() - 1] if k & (k - 1) == 0
                  else _trace_product(power(k // 2), power((k + 1) // 2))
                  for k in range(1, n + 1)]
    c = _charpoly(sums)
    i = n.bit_length() - 1
    r = c[:] if 1 << i == n else [int(k == 1 << i) for k in range(n)]
    for _ in range(m - i):
        r = _square_mod(r, c)
    return c, sums[:n], r


def _root_bound(t: int, d: int, m: int) -> Fraction:
    """(t / D^(2^(m+1)))^(1/2^(m+1)), ceiled to the 2^-16 grid: the
    `nth_root_upper_grid` of the unreduced radicand, so no gcd is taken."""
    root = 2 ** (m + 1)
    c, on_grid = _grid_root(t, d, root, root, 16)
    return Fraction(c + (not on_grid), 1 << 16)


def opnorm_upper(a: Matrix, m: int) -> Fraction:
    """Certified rational p >= |A| (operator norm) from m trace squarings.

    p = (tr(H^(2^m)))^(1/2^(m+1)) with H = A* A, ceiled to the 2^-16 grid.
    Since sum of the 2^m-th eigenvalue powers dominates the largest one and
    grid ceiling is monotone, p is sound and nonincreasing in m.  It extends
    a's trace chain to m and takes one root.
    """
    if m < 0:
        raise ValueError("m must be a natural")
    return _root_bound(_trace_chain(a, m + 1)[m], a.d, m)


def opnorm_lower(a: Matrix, v: tuple[GaussianRational, ...], k: int = 16) -> Fraction:
    """Certified dyadic lower bound |Av|_2 / |v|_2 <= |A| (Rayleigh witness).

    With A = B/D and v = w/E over common denominators, the squared ratio is
    the integer |Bw|^2 over D^2 |w|^2.
    """
    _, w = over_common_denominator(v)
    ww = sum(p * p + q * q for p, q in w)
    if ww == 0:
        raise ZeroVector("Rayleigh witness must be nonzero")
    if len(v) != a.n:
        raise SizeMismatch(f"vector length {len(v)} vs size {a.n}")
    n, bw = a.n, 0
    for i in range(0, n * n, n):  # entry i/n of Bw, from row i/n of B
        x = y = 0
        for (r, s), (p, q) in zip(a.parts[i:i + n], w):
            x += r * p - s * q
            y += r * q + s * p
        bw += x * x + y * y
    return sqrt_interval(Fraction(bw, a.d * a.d * ww), k)[0]


def embed_to_size(a: Matrix, n: int) -> Matrix:
    """The dyadic embedding A -> A (x) I_r into size n = r * a.n, in one step.

    Entry (r*i + s, r*j + t) of A (x) I_r is a_ij if s == t and 0 otherwise,
    so repeated doubling A (x) I_2 (x) ... (x) I_2 gives the same matrix.
    """
    if n == a.n:
        return a
    if a.n & (a.n - 1) != 0:
        raise NotDyadicSize(f"size {a.n} is not a power of two")
    r = n // a.n
    if r * a.n != n or r & (r - 1) != 0:
        raise NotDyadicSize(f"cannot reach size {n} from {a.n}")
    parts = []
    for i, s in product(range(0, a.n * a.n, a.n), range(r)):
        wide = [(0, 0)] * n
        wide[s::r] = a.parts[i:i + a.n]
        parts += wide
    return Matrix._new(n, a.d, parts)


# ---------------------------------------------------------------------------
# enumeration of union over k of M_{2^k}(Q(i))
# ---------------------------------------------------------------------------
#
# index + 1 = 2^k * (2j + 1): the 2-adic valuation selects the size 2^k, and
# j is an iterated Cantor pair of the 4^k row-major entry codes (Gaussian
# rationals via contlogic.pairing).  This is a bijection, so the enumeration
# is injective and every dyadic-size matrix appears exactly once.
# Decoding the 4^k entries takes about 4x the time per step of k (2^20 - 1 would
# fill memory), so 4^k is held to the size rule PARTS_MAX: at most 64 rows.


def enumerate_matrices(index: int) -> Matrix:
    if index < 0:
        raise ValueError("index must be a natural")
    n = index + 1
    k = (n & -n).bit_length() - 1
    if 4**k > PARTS_MAX:
        raise MatrixTooLarge(
            f"expected a matrix of size at most {isqrt(PARTS_MAX)}, got size 2^{k}")
    j = ((n >> k) - 1) // 2
    size = 1 << k
    count = size * size
    codes = decode_tuple(j, count)
    entries = [nat_to_gaussian(c) for c in codes]
    rows = [entries[i * size : (i + 1) * size] for i in range(size)]
    return Matrix(rows)


def matrix_index(a: Matrix) -> int:
    """Inverse of `enumerate_matrices` (documents matrix positions)."""
    if a.n & (a.n - 1) != 0:
        raise NotDyadicSize(f"size {a.n} is not a power of two")
    k = a.n.bit_length() - 1
    codes = [gaussian_to_nat(e) for row in a.rows for e in row]
    j = encode_tuple(codes)
    return (1 << k) * (2 * j + 1) - 1

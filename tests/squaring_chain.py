"""The squaring chain of `matrices._trace_chain`: a test oracle.

This is the trace-power chain as it was before it switched to remainders
x^(2^m) mod chi_H: every tr(H^(2^m)) is the Frobenius square of the
Hermitian power H^(2^(m-1)), squared by the three-product `_gram`.  The
class and the three functions are kept verbatim; only the imports and the
holder `squaring_traces` were added, which gives the chain a fresh state
object in place of the matrix's own slots.
"""

from __future__ import annotations

from operator import add, mul, sub
from types import SimpleNamespace

from contlogic.matrices import IntRows, Matrix, NegativeTrace


def squaring_traces(a: Matrix, ms: int) -> list[int]:
    """[tr(H^(2^m)) for m in range(ms)], H = (DA)(DA)*, by squaring alone."""
    holder = SimpleNamespace(_traces=[], _power=(a.re, a.im))
    return _trace_chain(holder, ms)[:ms]


class _HermitianRows(list):
    """The real rows of a Hermitian `_gram` result, marked so that
    `_frobenius_sq` may read only its upper triangle."""

    __slots__ = ()


def _gram(re: IntRows, im: IntRows) -> tuple[IntRows, IntRows]:
    """G = R R* for the Gaussian-integer rows R = re + i*im.

    G_ij = sum_k R_ik conj(R_jk) is Hermitian, so only i <= j is computed,
    from three dot products per off-diagonal entry (Gauss's product, Knuth,
    TAOCP vol. 2, 4.6.4): with A = ri.rj, B = ii.ij and
    S = (ri + ii).(rj - ij), Re G_ij = A + B and Im G_ij = S - A + B.
    For Hermitian R this is R^2.
    """
    n = len(re)
    sums = [list(map(add, r, s)) for r, s in zip(re, im)]
    diffs = [list(map(sub, r, s)) for r, s in zip(re, im)]
    g_re = _HermitianRows([0] * n for _ in range(n))
    g_im = [[0] * n for _ in range(n)]
    for i in range(n):
        ri, ii, si = re[i], im[i], sums[i]
        g_re[i][i] = sum(map(mul, ri, ri)) + sum(map(mul, ii, ii))
        for j in range(i + 1, n):
            a = sum(map(mul, ri, re[j]))
            b = sum(map(mul, ii, im[j]))
            g_re[i][j] = g_re[j][i] = a + b
            imag = sum(map(mul, si, diffs[j])) - a + b
            g_im[i][j], g_im[j][i] = imag, -imag
    return g_re, g_im


def _frobenius_sq(re: IntRows, im: IntRows) -> int:
    """sum_ik |R_ik|^2 = tr(R R*).

    For a Hermitian `_gram` result P this is sum_i P_ii^2 plus twice the
    sum over i < k of |P_ik|^2, which reads the upper triangle only.
    """
    if isinstance(re, _HermitianRows):
        upper = sum(sum(map(mul, r[i + 1:], r[i + 1:])) + sum(map(mul, s[i + 1:], s[i + 1:]))
                    for i, (r, s) in enumerate(zip(re, im)))
        return sum(r[i] * r[i] for i, r in enumerate(re)) + 2 * upper
    return sum(sum(map(mul, r, r)) + sum(map(mul, s, s)) for r, s in zip(re, im))


def _trace_chain(a: Matrix, ms: int) -> list[int]:
    """a's [tr(H^(2^m)) for m in range(ms)] or more, H = (DA)(DA)*.

    tr H = |DA|_F^2; for m >= 1, tr(H^(2^m)) = |P|_F^2 with the Hermitian
    P = H^(2^(m-1)), so the chain stops one squaring short of the last power.
    The chain grows on `a` (a's own list is returned); new traces are checked.
    """
    traces = a._traces
    while len(traces) < ms:
        power = _gram(*a._power) if traces else a._power
        t = _frobenius_sq(*power)
        if t < 0:
            raise NegativeTrace(f"tr((A*A)^{2 ** len(traces)}) came out negative")
        a._power = power
        traces.append(t)
    return traces

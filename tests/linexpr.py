"""The LinExpr front end of the integer simplex: the tests' LP language.

`contlogic.feasibility` takes integer rows only, since `forcing` compiles its
bound systems straight to them.  Its former front end is kept here verbatim:
`LinExpr` is an affine expression over named variables, and `maximize` takes
LinExpr <= LinExpr constraints, puts each over the lcm of its denominators
(`_over_lcm`) and solves them with `feasibility.maximize_rows`.  The
feasibility tests and the oracles `dense_simplex` and `linexpr_forcing`
write their LPs in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from contlogic.feasibility import OPTIMAL, LPResult, Row, maximize_rows


@dataclass(frozen=True)
class LinExpr:
    """Affine expression sum coeffs[v]*v + const over named variables."""

    coeffs: tuple[tuple[str, Fraction], ...] = ()
    const: Fraction = Fraction(0)

    @staticmethod
    def constant(q) -> "LinExpr":
        return LinExpr((), Fraction(q))

    @staticmethod
    def var(name: str, coeff=1) -> "LinExpr":
        return LinExpr(((name, Fraction(coeff)),), Fraction(0))

    def as_dict(self) -> dict[str, Fraction]:
        out: dict[str, Fraction] = {}
        for name, c in self.coeffs:
            out[name] = out[name] + c if name in out else c
        return {k: v for k, v in out.items() if v}

    def __add__(self, other: "LinExpr") -> "LinExpr":
        return LinExpr(self.coeffs + other.coeffs, self.const + other.const)

    def __sub__(self, other: "LinExpr") -> "LinExpr":
        return self + other.scale(-1)

    def scale(self, q) -> "LinExpr":
        q = Fraction(q)
        return LinExpr(
            tuple((name, c * q) for name, c in self.coeffs), self.const * q
        )

    def value_at(self, point: dict[str, Fraction]) -> Fraction:
        return self.const + sum(
            (c * point.get(name, Fraction(0)) for name, c in self.coeffs),
            Fraction(0),
        )


def _over_lcm(coeffs: dict[str, Fraction], b: Fraction) -> Row:
    den = lcm(b.denominator, *(c.denominator for c in coeffs.values()))
    return ({name: c.numerator * (den // c.denominator) for name, c in coeffs.items()},
            b.numerator * (den // b.denominator), den)


def maximize(objective: LinExpr,
             constraints: list[tuple[LinExpr, LinExpr]]) -> LPResult:
    """Maximize `objective` subject to lhs <= rhs constraints, variables >= 0."""
    rows = []
    for lhs, rhs in constraints:
        # a variable on both sides keeps its (possibly zero) column
        coeffs = lhs.as_dict()
        for name, c in rhs.as_dict().items():
            coeffs[name] = coeffs.get(name, 0) - c
        rows.append(_over_lcm(coeffs, rhs.const - lhs.const))
    cost, _, _ = _over_lcm(objective.as_dict(), Fraction(0))
    result = maximize_rows(cost, rows)
    if result.status != OPTIMAL:
        return result
    return LPResult(OPTIMAL, objective.value_at(result.point), result.point)

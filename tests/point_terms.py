"""Rational points as term DAGs: the test oracle for `point_object`.

`PSpecial`, `PAdj`, `PMul`, `PComb` and `algebra_point_at` are kept verbatim
as `contlogic.presentations` had them when it turned every index into a
tree of frozen dataclasses and keyed its point cache by those trees; only
the imports were edited.  `walk` evaluates such a tree with a presentation's
own `_special` and the objects' own `adjoint()`, `*` and `comb()`, as the
former `point_object` did, so that tests can check that decoding the index
itself gives the same object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from contlogic.formulas import rounded_bound_ok
from contlogic.gaussian import GaussianRational, gr
from contlogic.pairing import nat_to_gaussian, unpair as cantor_unpair


@dataclass(frozen=True)
class PSpecial:
    index: int


@dataclass(frozen=True)
class PAdj:
    arg: "RationalPoint"


@dataclass(frozen=True)
class PMul:
    left: "RationalPoint"
    right: "RationalPoint"


@dataclass(frozen=True)
class PComb:
    lam: GaussianRational
    mu: GaussianRational
    left: "RationalPoint"
    right: "RationalPoint"


RationalPoint = Union[PSpecial, PAdj, PMul, PComb]


def algebra_point_at(index: int) -> RationalPoint:
    """Term enumeration for algebra presentations.

    tag = index mod 4: 0 special |index//4|, 1 adjoint, 2 product via a
    Cantor pair of the factor indices (so the product of points i and j
    appears at 4*pair(i,j)+2), 3 rounded combination with coefficient pair
    codes; coefficient pairs violating |lam|+|mu| <= 1 collapse to (1, 0).
    """
    tag, rest = index % 4, index // 4
    if tag == 0:
        return PSpecial(rest)
    if tag == 1:
        return PAdj(algebra_point_at(rest))
    if tag == 2:
        a, b = cantor_unpair(rest)
        return PMul(algebra_point_at(a), algebra_point_at(b))
    coeffs, sides = cantor_unpair(rest)
    lam_code, mu_code = cantor_unpair(coeffs)
    lam, mu = nat_to_gaussian(lam_code), nat_to_gaussian(mu_code)
    if not rounded_bound_ok(lam, mu):
        lam, mu = gr(1), gr(0)
    a, b = cantor_unpair(sides)
    return PComb(lam, mu, algebra_point_at(a), algebra_point_at(b))


def walk(pres, point: RationalPoint, cache: dict):
    """The object of the tree `point`, each subtree computed once per cache."""
    if point in cache:
        return cache[point]
    if isinstance(point, PSpecial):
        obj = pres._special(point.index)
    elif isinstance(point, PAdj):
        obj = walk(pres, point.arg, cache).adjoint()
    elif isinstance(point, PMul):
        obj = walk(pres, point.left, cache) * walk(pres, point.right, cache)
    else:
        obj = walk(pres, point.left, cache).comb(point.lam, point.mu,
                                                 walk(pres, point.right, cache))
    cache[point] = obj
    return obj

import random
from fractions import Fraction

import pytest

from contlogic import feasibility
from contlogic.feasibility import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    PhaseOneUnbounded,
    lex_minimize_rows,
    maximize_rows,
)
from linexpr import LinExpr, maximize

C = LinExpr.constant
V = LinExpr.var
EPS = V("__eps__")


def margin_lp(nonstrict, strict):
    """The strict-margin LP that forcing solves inline: maximize eps subject
    to the nonstrict rows, each strict lhs < rhs as lhs + eps <= rhs, and
    eps <= 1.  The strict system is solvable iff the optimum is positive."""
    rows = list(nonstrict) + [(lhs + EPS, rhs) for lhs, rhs in strict]
    return maximize(EPS, rows + [(EPS, C(1))])


def test_simple_maximum():
    # max x + y s.t. x <= 2, y <= 3
    res = maximize(V("x") + V("y"), [(V("x"), C(2)), (V("y"), C(3))])
    assert res.status == OPTIMAL
    assert res.value == 5
    assert res.point == {"x": Fraction(2), "y": Fraction(3)}


def test_binding_combination():
    # max 6x + 4y s.t. 6x + 8y <= 12, 10x + 5y <= 10: both constraints bind
    # at the vertex (2/5, 6/5) with value 36/5
    res = maximize(
        V("x").scale(6) + V("y").scale(4),
        [
            (V("x").scale(6) + V("y").scale(8), C(12)),
            (V("x").scale(10) + V("y").scale(5), C(10)),
        ],
    )
    assert res.status == OPTIMAL
    assert res.value == Fraction(36, 5)
    assert res.point == {"x": Fraction(2, 5), "y": Fraction(6, 5)}


def test_infeasible_detected():
    # x <= 1 and x >= 2 (written as 2 - x <= 0)
    res = maximize(V("x"), [(V("x"), C(1)), (C(2) - V("x"), C(0))])
    assert res.status == INFEASIBLE


def test_unbounded_detected():
    res = maximize(V("x"), [(V("y"), C(1))])
    assert res.status == UNBOUNDED


def test_negative_rhs_phase1():
    # x >= 1/2 via -x <= -1/2; max -x: optimum -1/2
    res = maximize(V("x").scale(-1), [(V("x").scale(-1), C(Fraction(-1, 2)))])
    assert res.status == OPTIMAL
    assert res.value == Fraction(-1, 2)
    assert res.point["x"] == Fraction(1, 2)


def test_lex_minimize_rows_in_each_order():
    # x + y >= 1 as -x - y <= -1, y <= 3/4
    rows = [({"x": -1, "y": -1}, -1, 1), ({"y": 4}, 3, 4)]
    assert lex_minimize_rows(["x", "y"], rows) == [Fraction(1, 4), Fraction(3, 4)]
    assert lex_minimize_rows(["y", "x"], rows) == [0, 1]
    assert lex_minimize_rows(["w", "x"], rows) == [0, Fraction(1, 4)]
    assert lex_minimize_rows(["x"], rows + [({"x": 1}, 0, 1)]) is None


def test_lex_minimize_rows_unbounded_phase_one_is_typed(monkeypatch):
    def unbounded(*args):
        raise feasibility._Unbounded()

    monkeypatch.setattr(feasibility, "_run_simplex", unbounded)
    # x >= 1 has a negative right-hand side, so phase 1 runs
    with pytest.raises(PhaseOneUnbounded):
        lex_minimize_rows(["x"], [({"x": -1}, -1, 1)])


def test_rows_with_a_denominator_and_negative_rhs_take_the_artificial_path():
    # -2/3 x <= -1/3, i.e. x >= 1/2, over den 3; max -x + y with y <= 5/2
    rows = [({"x": -2}, -1, 3), ({"y": 2}, 5, 2)]
    res = maximize_rows({"x": -1, "y": 1}, rows)
    assert res.status == OPTIMAL
    assert res.value == 2
    assert res.point == {"x": Fraction(1, 2), "y": Fraction(5, 2)}
    assert res == maximize(
        V("y") - V("x"),
        [(V("x").scale(Fraction(-2, 3)), C(Fraction(-1, 3))), (V("y"), C(Fraction(5, 2)))])
    assert lex_minimize_rows(["x", "y"], rows) == [Fraction(1, 2), 0]


def test_cost_variable_in_no_row_keeps_its_column():
    rows = [({"y": 1}, 1, 1)]
    up = maximize_rows({"x": 1}, rows)
    assert up.status == UNBOUNDED
    assert up == maximize(V("x"), [(V("y"), C(1))])
    down = maximize_rows({"x": -1}, rows)
    assert down.status == OPTIMAL
    assert down.value == 0
    assert down.point == {"x": 0, "y": 0}
    assert down == maximize(V("x").scale(-1), [(V("y"), C(1))])


def test_lex_minimize_rows_empty_order_and_infeasible_rows():
    feasible = [({"x": -1}, -1, 2), ({"x": 1}, 1, 1)]  # 1/2 <= x <= 1
    infeasible = feasible + [({"x": 2}, 1, 3)]  # and x <= 1/6
    assert lex_minimize_rows([], feasible) == []
    assert lex_minimize_rows([], infeasible) is None
    assert lex_minimize_rows(["x"], infeasible) is None
    x = V("x")
    written = [(x.scale(Fraction(-1, 2)), C(Fraction(-1, 2))), (x, C(1))]
    assert maximize(C(0), written).status == OPTIMAL
    assert maximize(C(0), written + [(x.scale(Fraction(2, 3)), C(Fraction(1, 3)))]).status == INFEASIBLE


def test_equality_via_two_inequalities():
    res = maximize(
        V("y"),
        [
            (V("x") + V("y"), C(1)),
            (C(1) - V("x") - V("y"), C(0)),
            (V("y"), C(Fraction(3, 4))),
        ],
    )
    assert res.status == OPTIMAL
    assert res.value == Fraction(3, 4)
    assert res.point["x"] + res.point["y"] == 1


def test_degenerate_cycling_guard():
    # classic degenerate LP; Bland's rule must terminate
    res = maximize(
        V("x1").scale(Fraction(3, 4)) - V("x2").scale(150)
        + V("x3").scale(Fraction(1, 50)) - V("x4").scale(6),
        [
            (
                V("x1").scale(Fraction(1, 4)) - V("x2").scale(60)
                - V("x3").scale(Fraction(1, 25)) + V("x4").scale(9),
                C(0),
            ),
            (
                V("x1").scale(Fraction(1, 2)) - V("x2").scale(90)
                - V("x3").scale(Fraction(1, 50)) + V("x4").scale(3),
                C(0),
            ),
            (V("x3"), C(1)),
        ],
    )
    assert res.status == OPTIMAL
    assert res.value == Fraction(1, 20)


def test_feasible_margin_positive():
    # 0 < x < 1 has margin 1/2
    res = margin_lp([], [(C(0), V("x")), (V("x"), C(1))])
    assert res.status == OPTIMAL
    assert res.value == Fraction(1, 2)
    assert 0 < res.point["x"] < 1


def test_feasible_margin_zero_boundary():
    # x <= 0 and x > 0 is unsolvable: margin 0
    res = margin_lp([(V("x"), C(0))], [(C(0), V("x"))])
    assert res.status == OPTIMAL
    assert res.value == 0


def test_margin_point_satisfies_strictly():
    nonstrict = [(V("x") + V("y"), C(1))]
    strict = [(V("y"), V("x")), (C(Fraction(1, 8)), V("y"))]
    res = margin_lp(nonstrict, strict)
    assert res.status == OPTIMAL and res.value > 0
    x, y = res.point["x"], res.point["y"]
    assert x + y <= 1 and y < x and y > Fraction(1, 8)


def test_random_cross_check_against_float_solver():
    scipy = pytest.importorskip("scipy.optimize")
    rng = random.Random(99)
    for _ in range(25):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        names = [f"x{i}" for i in range(n)]
        c = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        b = [Fraction(rng.randint(0, 8)) for _ in range(m)]
        obj = LinExpr(tuple(zip(names, c)))
        cons = [
            (LinExpr(tuple(zip(names, row))), C(bi)) for row, bi in zip(rows, b)
        ]
        # keep the region bounded
        cons += [(V(name), C(10)) for name in names]
        res = maximize(obj, cons)
        assert res.status == OPTIMAL
        ref = scipy.linprog(
            [-float(ci) for ci in c],
            A_ub=[[float(v) for v in row] for row in rows] + [
                [1.0 if j == i else 0.0 for j in range(n)] for i in range(n)
            ],
            b_ub=[float(bi) for bi in b] + [10.0] * n,
            bounds=[(0, None)] * n,
            method="highs",
        )
        assert ref.status == 0
        assert abs(float(res.value) + ref.fun) < 1e-7
        # exact point satisfies every constraint exactly
        for lhs, rhs in cons:
            assert lhs.value_at(res.point) <= rhs.value_at(res.point)

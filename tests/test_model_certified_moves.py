"""Moves that the referee certifies by the previous condition's model.

`play_game` accepts a move without an LP when every item holds strictly at
the point of the previous condition's kept verdict and the evaluation reads
only pairs of that point.  Each such move is checked here against two
independent sides: the margin LP on the same condition, and `eval_exact` on
the point written out as a `TestStructure` (which validates the metric
axioms exactly), with every constant the point lacks placed alone at
distance 1 from all others.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contlogic import evaluator as E
from contlogic import forcing as FC
from contlogic import formulas as F

INST = FC.MetricInstance()


def d(i, j):
    return F.Atomic("d", (F.CConst(i), F.CConst(j)))


def structure_at(point: dict, constants: list[int]) -> E.TestStructure:
    """The pair values `point` over `constants`; a pair it lacks is 1."""
    def dist(a, b):
        if a == b:
            return Fraction(0)
        return point.get(FC._pair_var(a, b), Fraction(1))
    table = tuple(tuple(dist(a, b) for b in constants) for a in constants)
    return E.TestStructure(table, constants={c: k for k, c in enumerate(constants)})


def record_certified(monkeypatch) -> list:
    """Every (move, previous) pair that `_model_certifies` accepts."""
    accepted = []
    certifies = FC._model_certifies

    def wrapper(cond, previous, inst):
        ok = certifies(cond, previous, inst)
        if ok:
            accepted.append((cond, previous))
        return ok

    monkeypatch.setattr(FC, "_model_certifies", wrapper)
    return accepted


def check_certified(cond: FC.Condition, previous: FC.Condition) -> None:
    assert INST not in cond.verdicts  # left for `_margin_verdict`
    verdict = FC._solve_system(FC.BoundSystem(lt=cond.items), cond.constants(), INST)
    assert verdict.satisfiable
    point = previous.verdicts[INST].point
    # the evaluation read only pairs of the point
    for i, j in FC._mentioned_pairs(cond):
        assert FC._pair_var(i, j) in point
    structure = structure_at(point, cond.constants())
    for formula, bound in cond.items:
        assert E.eval_exact(formula, structure) < bound


def pinning_with_a_fresh_pair() -> FC.Strategy:
    """Pinning plus d(c1, c) < 1 for a fresh c: a pair no earlier point has."""
    pin = FC.exists_pinning_strategy()

    def move(transcript, inst):
        cond = pin(transcript, inst)
        return cond.extend([(d(1, max(cond.constants()) + 1), Fraction(1))])

    return move


GAMES = ([("random", seed, "pinning") for seed in range(12)]
         + [("pass", 0, "pinning"), ("random", 0, "fresh-pair"), ("random", 1, "fresh-pair")])


@pytest.mark.parametrize("forall,seed,exists", GAMES)
def test_moves_certified_by_a_model_are_conditions(monkeypatch, forall, seed, exists):
    # seeds 9 and 11 pin a distance at y = 1 (d < 1, not strict at the point)
    accepted = record_certified(monkeypatch)
    for rounds in range(1, 9):
        accepted.clear()
        t = FC.play_game(
            FC.random_forall_strategy(seed) if forall == "random" else FC.pass_through_strategy(),
            FC.exists_pinning_strategy() if exists == "pinning" else pinning_with_a_fresh_pair(),
            rounds, INST)
        moves = [cond for _, cond in t.moves]
        for cond, previous in accepted:
            assert cond in moves
            check_certified(cond, previous)
        if exists == "fresh-pair":
            assert accepted == []
        elif forall == "pass":  # every exists move has the forall move's model
            assert len(accepted) == rounds // 2
        FC.compile_transcript(t, INST)


def test_pinning_moves_are_mostly_certified(monkeypatch):
    accepted = record_certified(monkeypatch)
    for seed in range(10):
        FC.play_game(FC.random_forall_strategy(seed), FC.exists_pinning_strategy(), 6, INST)
    # 3 exists moves a game; only a pin at y = 1 sends one to the LP
    assert len(accepted) >= 30 * 3 // 4


def pinned_previous() -> FC.Condition:
    """1/4 < d(1, 2) < 1/2, whose margin point has d(1, 2) = 3/8."""
    return FC.Condition.of([(d(1, 2), Fraction(1, 2)),
                            (F.DotMinus(F.One(), d(1, 2)), Fraction(3, 4))])


def play_against(previous: FC.Condition, new_items) -> FC.Transcript:
    return FC.play_game(lambda t, inst: previous,
                        lambda t, inst: t.last().extend(new_items), 2, INST)


def test_previous_point_is_the_one_the_moves_below_are_built_on():
    p = pinned_previous()
    assert FC._margin_verdict(p, INST).point == {"d_1_2": Fraction(3, 8)}


@pytest.mark.parametrize("new_items", [
    # no model at all: d(1, 2) < 1/4 against d(1, 2) > 1/4
    [(d(1, 2), Fraction(1, 4))],
    # every item sits exactly on its bound at the point, and the bounds meet there
    [(d(1, 2), Fraction(3, 8)), (F.DotMinus(F.One(), d(1, 2)), Fraction(5, 8))],
    # pairs the point lacks: read as 0 they would pass, but the triangle
    # inequality puts d(1, 3) + d(2, 3) >= d(1, 2) > 1/4
    [(d(1, 3), Fraction(1, 8)), (d(2, 3), Fraction(1, 8))],
], ids=["contradiction", "on-the-bound", "missing-pairs"])
def test_exists_move_without_a_model_is_illegal(monkeypatch, new_items):
    accepted = record_certified(monkeypatch)
    with pytest.raises(FC.IllegalMove) as info:
        play_against(pinned_previous(), new_items)
    assert info.value.player == "E"
    assert accepted == []


@pytest.mark.parametrize("new_items", [
    # holds at d(1, 2) = 3/8 only with equality, and on (3/8, 1/2) strictly
    [(F.DotMinus(F.dyadic_constant(Fraction(7, 8)), d(1, 2)), Fraction(1, 2))],
    # fails at the point: d(1, 2) > 7/16
    [(F.DotMinus(F.One(), d(1, 2)), Fraction(9, 16))],
    # reads a pair the point lacks
    [(d(1, 3), Fraction(1, 2))],
], ids=["on-the-bound", "below-the-point", "missing-pair"])
def test_move_that_fails_at_the_point_falls_back_to_the_lp(monkeypatch, new_items):
    accepted = record_certified(monkeypatch)
    solved = []
    solve = FC._solve_system
    monkeypatch.setattr(FC, "_solve_system", lambda system, constants, inst: (
        solved.append(system) or solve(system, constants, inst)))
    t = play_against(pinned_previous(), new_items)
    final = t.last()
    assert accepted == []
    assert solved == [FC.BoundSystem(lt=pinned_previous().items),
                      FC.BoundSystem(lt=final.items)]
    assert final.verdicts[INST].satisfiable


def test_pass_move_is_certified_with_its_fresh_constant_alone(monkeypatch):
    accepted = record_certified(monkeypatch)
    t = FC.play_game(lambda t, inst: pinned_previous(), FC.pass_through_strategy(), 2, INST)
    assert [cond for cond, _ in accepted] == [t.last()]
    assert t.last().constants() == [1, 2, 3]
    check_certified(*accepted[0])


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_compilation_solves_a_certified_final_condition_once(monkeypatch, seed):
    accepted = record_certified(monkeypatch)
    solved = []
    solve = FC._solve_system
    monkeypatch.setattr(FC, "_solve_system", lambda system, constants, inst: (
        solved.append(system) or solve(system, constants, inst)))
    t = FC.play_game(FC.random_forall_strategy(seed), FC.exists_pinning_strategy(), 4, INST)
    final = t.last()
    assert t.moves[-1][0] == "E" and accepted[-1][0] is final
    final_system = FC.BoundSystem(lt=final.items)
    assert final_system not in solved
    space = FC.compile_transcript(t, INST)
    FC.compile_transcript(t, INST)
    assert solved.count(final_system) == 1
    assert space.constants == tuple(final.constants())


def qf_formulas(constants):
    atoms = st.builds(d, st.sampled_from(constants), st.sampled_from(constants))
    pins = st.builds(lambda c, atom: F.DotMinus(F.dyadic_constant(c), atom),
                     st.sampled_from([Fraction(1, 4), Fraction(5, 16)]), atoms)
    leaves = st.one_of(atoms, atoms, pins, st.just(F.Zero()), st.just(F.One()))
    return st.recursive(
        leaves, lambda inner: st.one_of(st.builds(F.Half, inner),
                                        st.builds(F.DotMinus, inner, inner)),
        max_leaves=6)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from([Fraction(k, 16) for k in range(8, 17)]),
                min_size=3, max_size=3),
       qf_formulas([1, 2, 3]))
def test_value_at_matches_eval_exact(sides, formula):
    # distances 1/2..1 on three points always satisfy the triangle inequality
    point = dict(zip(["d_1_2", "d_1_3", "d_2_3"], sides))
    assert FC._value_at(formula, point) == E.eval_exact(formula, structure_at(point, [1, 2, 3]))

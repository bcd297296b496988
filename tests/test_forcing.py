import hashlib
import random
from fractions import Fraction

import pytest

from contlogic import coding, feasibility
from contlogic import forcing as FC
from contlogic import formulas as F
from contlogic import selftest
from contlogic.evaluator import eval_exact
from contlogic.pairing import encode_list

import precondition_codes as oracle

d = lambda i, j: F.Atomic("d", (F.CConst(i), F.CConst(j)))
x = F.Var("x")
INST = FC.MetricInstance()


def triangle_violating_triple() -> FC.Condition:
    return FC.Condition.of(
        [
            (d(1, 2), Fraction(1, 4)),
            (d(2, 3), Fraction(1, 4)),
            (F.DotMinus(F.One(), d(1, 3)), Fraction(1, 4)),
        ]
    )


def test_empty_condition_satisfiable():
    assert FC.is_condition(FC.Condition.empty(), INST)


def test_simple_condition_satisfiable():
    p = FC.Condition.of([(d(1, 2), Fraction(1))])
    assert FC.is_condition(p, INST)


def test_triangle_violation_rejected():
    assert not FC.is_condition(triangle_violating_triple(), INST)


def test_condition_canonicalization_and_code():
    a = FC.Condition.of([(d(1, 2), Fraction(1, 2)), (d(2, 3), Fraction(1, 4))])
    b = FC.Condition.of([(d(2, 3), Fraction(1, 4)), (d(1, 2), Fraction(1, 2))])
    assert a == b
    assert a.code() == b.code()
    assert FC.Condition.from_code(a.code()) == a


def test_is_condition_walks_no_formula_for_its_constants(monkeypatch):
    # a condition keeps the constants of its items, filled from new items only
    p = triangle_violating_triple()
    calls = []
    walk = F.constants_of
    monkeypatch.setattr(F, "constants_of", lambda f: calls.append(f) or walk(f))
    assert not FC.is_condition(p, INST)
    assert calls == []
    q = p.extend([(d(3, 4), Fraction(1, 2)), (d(1, 2), Fraction(1, 4))])
    assert len(calls) == 2
    assert q.constants() == [1, 2, 3, 4]
    assert FC.Condition.empty().constants() == []


def test_condition_validation():
    with pytest.raises(FC.ForcingError):
        FC.Condition.of([(F.Sup("x", d(1, 2)), Fraction(1, 2))])
    with pytest.raises(FC.ForcingError):
        FC.Condition.of([(d(1, 2), Fraction(1, 3))])
    with pytest.raises(FC.ForcingError):
        FC.Condition.of([(F.Atomic("d", (x, F.CConst(1))), Fraction(1, 2))])


def test_each_item_is_validated_once(monkeypatch):
    calls = []
    validate = F.validate
    monkeypatch.setattr(F, "validate", lambda f, sig: calls.append(f) or validate(f, sig))
    p = FC.Condition.of([(d(1, 2), Fraction(1, 2)), (d(2, 3), Fraction(1, 4))])
    assert calls == [d(1, 2), d(2, 3)]
    p.extend([(d(3, 4), Fraction(1, 2))])
    assert calls[2:] == [d(3, 4)]
    # an ill-formed item still raises the formula error, before the item checks
    for item, error in (((F.Atomic("d", (F.CConst(0), F.CConst(1))), 1), F.FormulaError),
                        ((F.Atomic("d", (F.CConst(1),)), Fraction(1, 3)), F.ArityMismatch),
                        ((F.Atomic("tr_re", (F.CConst(1),)), 1), F.UnknownSymbol)):
        with pytest.raises(error):
            p.extend([item])


def test_precondition_roundtrip():
    p = FC.Condition.of([(d(1, 2), Fraction(1, 2))])
    assert p.keys == ((coding.encode(d(1, 2), F.METRIC), Fraction(1, 2)),)
    assert FC.Condition.from_code(p.code()) == p
    assert FC.Condition.empty().code() == FC.Condition.of([]).code()
    assert FC.Condition.from_code(FC.Condition.empty().code()) == FC.Condition.empty()


def test_precondition_canonicalizes_order():
    a = FC.Condition.of([(d(1, 2), Fraction(1, 2)), (d(1, 1), Fraction(1, 4))])
    b = FC.Condition.of([(d(1, 1), Fraction(1, 4)), (d(1, 2), Fraction(1, 2))])
    assert a.code() == b.code()


def test_precondition_rejects_bad_items():
    for item in ((F.Atomic("d", (x, x)), Fraction(1, 2)), (d(1, 2), Fraction(1, 3)),
                 (d(1, 2), Fraction(-1, 2)), (F.Sup("x", F.Atomic("d", (x, x))), Fraction(1, 2))):
        with pytest.raises(FC.BadItem):
            FC.Condition.of([item])


def _precondition(heads, length=None):
    """A pre-condition code from (item code, num - 1, e) heads, in the order given."""
    body = encode_list([coding.pair(k, coding.pair(a, e)) for k, a, e in heads], coding.pair)
    return coding.pair(len(heads) if length is None else length, body)


def _random_condition(rng):
    items = [(random_qf_formula(rng, [1, 2, 3, 4], 3),
              Fraction(rng.randint(1, 9), 2 ** rng.randint(0, 6))) for _ in range(rng.randint(0, 5))]
    return FC.Condition.of(items)


def test_precondition_codec_matches_the_list_codec():
    # final conditions of seeded short games, and random ones: `code` writes
    # the bits the list codec writes, and each decodes the other's code
    conditions = [FC.play_game(FC.random_forall_strategy(seed), FC.exists_pinning_strategy(),
                               3, INST).last() for seed in range(8)]
    rng = random.Random(27)
    conditions += [_random_condition(rng) for _ in range(40)]
    for p in conditions:
        code = p.code()
        assert code == oracle.encode_precondition(list(p.keys))
        assert oracle.decode_precondition(code) == list(p.keys)
        q = FC.Condition.from_code(code)
        assert q == p and q.keys == p.keys


def test_hand_built_metric_codes_decode_as_the_list_codec_reads_them():
    rng = random.Random(28)
    for _ in range(40):
        # odd numerators, so every bound is in lowest terms
        heads = sorted({(coding.encode(random_qf_formula(rng, [1, 2, 3], 2), F.METRIC),
                         2 * rng.randint(0, 4), rng.randint(0, 8)) for _ in range(rng.randint(0, 4))},
                       key=lambda h: (h[0], Fraction(h[1] + 1, 2 ** h[2])))
        code = _precondition(heads)
        items = oracle.decode_precondition(code)
        p = FC.Condition.from_code(code)
        assert list(p.keys) == items
        assert p.code() == code == oracle.encode_precondition(items)


def test_precondition_refusals_are_bad_items():
    k12, k23 = (coding.encode(d(i, j), F.METRIC) for i, j in ((1, 2), (2, 3)))
    ka, kb = sorted((k12, k23))
    cstar = coding.encode(F.Atomic("d", (F.CConst(1), F.CConst(2))), F.CSTAR)
    tvna = coding.encode(F.Atomic("tr_re", (F.CConst(1),)), F.TVNA)
    refused = {
        "cstar item": _precondition([(cstar, 0, 1)]),
        "tvna item": _precondition([(tvna, 0, 1)]),
        "bound out of lowest terms": _precondition([(k12, 1, 1)]),
        "unsorted": _precondition([(kb, 0, 1), (ka, 0, 1)]),
        "repeated": _precondition([(ka, 0, 1), (ka, 0, 1)]),
        "count one high": _precondition([(ka, 0, 1)], length=2),
        "count one low": _precondition([(ka, 0, 1), (kb, 0, 1)], length=1),
        "item not a formula": _precondition([(5, 0, 1)]),
        "open item": _precondition([(coding.encode(F.Atomic("d", (x, x)), F.METRIC), 0, 1)]),
        "bound exponent past the cap": _precondition([(k12, 0, FC.BOUND_EXP_MAX + 1)]),
    }
    for name, code in refused.items():
        with pytest.raises(FC.BadItem):
            FC.Condition.from_code(code)
        if name not in ("cstar item", "tvna item", "bound exponent past the cap"):
            with pytest.raises(oracle.BadItem):
                oracle.decode_precondition(code)
    # the cstar item decoded at the parent, to a condition with another code
    assert oracle.decode_precondition(refused["cstar item"]) == [(cstar, Fraction(1, 2))]
    # the largest exponent still decodes, without the list codec's checks
    top = FC.Condition.from_code(_precondition([(k12, 0, FC.BOUND_EXP_MAX)]))
    assert top.keys == ((k12, Fraction(1, 2 ** FC.BOUND_EXP_MAX)),)
    # codes outside the pairing's image stay NotACode
    for code in (0, _precondition([(k12, 0, 1)]) * 2):
        with pytest.raises(coding.NotACode):
            FC.Condition.from_code(code)


def test_precondition_refusal_kinds_match_the_list_codec():
    # one bit flipped in a valid code: both codecs accept it or refuse it,
    # with the same kind, except for items over another signature
    def kind(decode, code):
        try:
            decode(code)
        except coding.NotACode:
            return "not-a-code"
        except (FC.BadItem, oracle.BadItem):
            return "bad-item"
        return "ok"

    rng = random.Random(29)
    for _ in range(30):
        code = _random_condition(rng).code()
        for bit in rng.sample(range(code.bit_length()), min(12, code.bit_length())):
            flipped = code ^ (1 << bit)
            try:
                items = oracle.decode_precondition(flipped)
            except (coding.NotACode, oracle.BadItem):
                items = []
            if any(coding.decode_full(k)[0] is not F.METRIC for k, _ in items):
                continue
            assert kind(FC.Condition.from_code, flipped) == kind(oracle.decode_precondition, flipped)


def test_dollar_single_item_granularity_one():
    p = FC.Condition.of([(d(1, 2), Fraction(1, 2))])
    family = FC.dollar(p, 1)
    # only s = 0 lies on the half-grid below 1/2
    assert len(family) == 1
    # the member is phi -. 0, semantically phi
    from contlogic.evaluator import TestStructure

    t = TestStructure(
        ((Fraction(0), Fraction(1, 3)), (Fraction(1, 3), Fraction(0))),
        constants={1: 0, 2: 1},
    )
    assert eval_exact(family[0], t) == Fraction(1, 3)


def test_dollar_empty_condition():
    family = FC.dollar(FC.Condition.empty(), 3)
    assert family == [F.Zero()]


def test_dollar_count_is_grid_product():
    p = FC.Condition.of([(d(1, 2), Fraction(1, 2)), (d(2, 3), Fraction(3, 4))])
    for g in (1, 2, 3):
        grid_sizes = [
            len(list(FC._slice_tuples(FC.Condition.of([(f, r)]), g)))
            for f, r in p.items
        ]
        assert len(FC.dollar(p, g)) == grid_sizes[0] * grid_sizes[1]


def test_dollar_members_valid_formulas():
    p = FC.Condition.of([(d(1, 2), Fraction(3, 8))])
    for member in FC.dollar(p, 3):
        F.validate(member, F.METRIC)
        assert F.is_quantifier_free(member)


def test_dollar_max_semantics():
    # max(a, b) encoding agrees with the pointwise maximum
    from contlogic.evaluator import TestStructure

    t = TestStructure(
        (
            (Fraction(0), Fraction(1, 2), Fraction(3, 4)),
            (Fraction(1, 2), Fraction(0), Fraction(1, 4)),
            (Fraction(3, 4), Fraction(1, 4), Fraction(0)),
        ),
        constants={1: 0, 2: 1, 3: 2},
    )
    a, b = d(1, 2), d(1, 3)
    combined = FC.formula_max([a, b])
    assert eval_exact(combined, t) == max(eval_exact(a, t), eval_exact(b, t))


def random_qf_formula(rng, constants, depth):
    if depth <= 0 or rng.random() < 0.35:
        kind = rng.choice(["atom", "zero", "one"])
        if kind == "atom":
            i, j = rng.choice(constants), rng.choice(constants)
            return d(i, j)
        return F.Zero() if kind == "zero" else F.One()
    kind = rng.choice(["half", "dm", "dm"])
    if kind == "half":
        return F.Half(random_qf_formula(rng, constants, depth - 1))
    return F.DotMinus(
        random_qf_formula(rng, constants, depth - 1),
        random_qf_formula(rng, constants, depth - 1),
    )


def test_linear_compiler_sound_and_complete():
    # the polarity-directed LP compilation must agree with exact evaluation:
    # witnesses re-evaluate inside the bound (soundness), and any sampled
    # metric assignment satisfying the bound forces satisfiability
    from contlogic.evaluator import TestStructure
    from contlogic.forcing import BoundSystem, _solve_system

    rng = random.Random(271)
    constants = [1, 2, 3]
    for trial in range(120):
        formula = random_qf_formula(rng, constants, 3)
        bound = Fraction(rng.randint(0, 8), 8)
        pts = sorted(Fraction(rng.randint(0, 8), 8) for _ in range(3))
        table = tuple(tuple(abs(p - q) for q in pts) for p in pts)
        structure = TestStructure(table, constants={1: 0, 2: 1, 3: 2})
        value = eval_exact(formula, structure)
        direction = rng.choice(["le", "ge"])
        system = (
            BoundSystem(le=((formula, bound),))
            if direction == "le"
            else BoundSystem(ge=((formula, bound),))
        )
        verdict = _solve_system(system, constants, INST)
        holds = value <= bound if direction == "le" else value >= bound
        if holds:
            assert verdict.satisfiable, (trial, direction, formula, bound)
        if verdict.satisfiable:
            assignment = {
                (i, j): verdict.point.get(f"d_{i}_{j}", Fraction(0))
                for i in constants
                for j in constants
                if i < j
            }
            witness_table = tuple(
                tuple(
                    Fraction(0) if a == b else assignment[(min(a, b), max(a, b))]
                    for b in constants
                )
                for a in constants
            )
            witness = TestStructure(witness_table, constants={1: 0, 2: 1, 3: 2})
            got = eval_exact(formula, witness)
            if direction == "le":
                assert got <= bound, (trial, formula, bound, got)
            else:
                assert got >= bound, (trial, formula, bound, got)


def test_dollar_monotone_in_granularity():
    # grids nest, so every slice member reappears verbatim one level finer,
    # and members with finer offsets are pointwise dominated
    p = FC.Condition.of([(d(1, 2), Fraction(1, 2)), (d(1, 3), Fraction(3, 4))])
    for g in (1, 2):
        coarse = set(FC._slice_tuples(p, g))
        fine = set(FC._slice_tuples(p, g + 1))
        assert coarse <= fine
    from contlogic.evaluator import TestStructure

    t = TestStructure(
        (
            (Fraction(0), Fraction(3, 8), Fraction(5, 8)),
            (Fraction(3, 8), Fraction(0), Fraction(1, 4)),
            (Fraction(5, 8), Fraction(1, 4), Fraction(0)),
        ),
        constants={1: 0, 2: 1, 3: 2},
    )
    coarse_members = FC.dollar(p, 1)
    fine_members = FC.dollar(p, 2)
    for theta in coarse_members:
        value = eval_exact(theta, t)
        assert any(eval_exact(theta2, t) <= value for theta2 in fine_members)


def test_forces_reflexivity_yes():
    ans = FC.forces_sup_leq(FC.Condition.empty(), F.Atomic("d", (x, x)), Fraction(0))
    assert ans.verdict == "yes"


def test_forces_distance_bound_no_with_witness():
    psi = F.Atomic("d", (x, F.CConst(1)))
    ans = FC.forces_sup_leq(FC.Condition.empty(), psi, Fraction(1, 2))
    assert ans.verdict == "no"
    assert ans.witness is not None
    # the witness places the fresh point strictly above 1/2 from c1
    far = [v for k, v in ans.witness.items() if k.startswith("d_")]
    assert any(v > Fraction(1, 2) for v in far)


def test_forces_pinned_constant_yes():
    # p pins d(c1,c2) < 1/8; psi constant in x equal to d(c1,c2)
    p = FC.Condition.of([(d(1, 2), Fraction(1, 8))])
    ans = FC.forces_sup_leq(p, d(1, 2), Fraction(1, 8))
    assert ans.verdict == "yes"
    # but it does not force a smaller bound
    ans2 = FC.forces_sup_leq(p, d(1, 2), Fraction(1, 16))
    assert ans2.verdict == "no"


def test_forces_vacuous_bound():
    ans = FC.forces_sup_leq(FC.Condition.empty(), F.One(), Fraction(1))
    assert ans.verdict == "yes"


def test_forces_epsilon_chain_implies_closed_bound():
    rng = random.Random(61)
    cases = [
        (FC.Condition.empty(), F.Atomic("d", (x, F.CConst(1))), Fraction(1, 2)),
        (
            FC.Condition.of([(d(1, 2), Fraction(1, 4))]),
            F.DotMinus(d(1, 2), F.Atomic("d", (x, F.CConst(1)))),
            Fraction(1, 4),
        ),
        (FC.Condition.empty(), F.Half(F.One()), Fraction(1, 2)),
        (FC.Condition.empty(), F.Atomic("d", (x, x)), Fraction(0)),
    ]
    for p, psi, r in cases:
        all_eps_yes = all(
            FC.forces_sup_leq(p, psi, r + Fraction(1, 1 << n)).verdict == "yes"
            for n in range(1, 6)
        )
        if all_eps_yes:
            assert FC.forces_sup_leq(p, psi, r).verdict != "no"


def test_forces_monotone_in_condition():
    psi = F.Atomic("d", (x, F.CConst(1)))
    p = FC.Condition.of([(d(1, 2), Fraction(1, 2))])
    q = p.extend([(d(2, 3), Fraction(1, 4))])
    for r in (Fraction(1, 2), Fraction(3, 4)):
        if FC.forces_sup_leq(p, psi, r).verdict == "yes":
            assert FC.forces_sup_leq(q, psi, r).verdict != "no"
    # a genuinely forced instance: q extends p and keeps the YES
    pinned = FC.Condition.of([(d(1, 2), Fraction(1, 8))])
    extended = pinned.extend([(d(1, 3), Fraction(1, 2))])
    assert FC.forces_sup_leq(pinned, d(1, 2), Fraction(1, 8)).verdict == "yes"
    assert FC.forces_sup_leq(extended, d(1, 2), Fraction(1, 8)).verdict == "yes"


def test_sweep_builds_only_the_members_it_tests():
    # 40 distinct bounds in (1/2, 1] give 2^40 members at granularity 1; the
    # first already has a countermodel, and the sweep must not list the rest
    p = FC.Condition.of([(d(1, 2), Fraction(1, 2) + Fraction(k, 128)) for k in range(1, 41)])
    assert len(p.items) == 40
    ans = FC.forces_sup_leq(p, F.Atomic("d", (x, F.CConst(1))), Fraction(1, 4), INST, budget=1)
    assert (ans.verdict, ans.swept) == ("no", 1)


def test_sweep_stops_at_the_cap(monkeypatch):
    # a YES instance: none of the 1 + 2 + 4 + 16 members of slices 1-4 has a
    # countermodel, so the sweep tests min(cap, 23) of them, then the limit LP
    p = FC.Condition.of([(d(1, 2), Fraction(1, 8)), (d(1, 3), Fraction(1, 2))])
    assert [len(list(FC._slice_tuples(p, g))) for g in range(1, 5)] == [1, 2, 4, 16]
    for cap in (1, 2, 3, 7, 22, 23, 24):
        monkeypatch.setattr(FC, "SWEEP_CAP", cap)
        ans = FC.forces_sup_leq(p, d(1, 2), Fraction(1, 8), INST, budget=4)
        assert (ans.verdict, ans.swept, ans.witness) == ("yes", min(cap, 23), None)


def test_play_game_pass_through():
    t = FC.play_game(
        FC.pass_through_strategy(), FC.pass_through_strategy(), 4, INST
    )
    assert len(t.moves) == 4
    players = [p for p, _ in t.moves]
    assert players == ["A", "E", "A", "E"]
    for (_, c1), (_, c2) in zip(t.moves, t.moves[1:]):
        assert c2.extends(c1)


def test_play_game_rejects_illegal_move():
    def bad_forall(transcript, inst):
        return triangle_violating_triple()

    with pytest.raises(FC.IllegalMove) as info:
        FC.play_game(bad_forall, FC.pass_through_strategy(), 2, INST)
    assert info.value.player == "A"


def test_play_game_rejects_non_extension():
    first = FC.Condition.of([(d(1, 2), Fraction(1, 2))])
    other = FC.Condition.of([(d(1, 3), Fraction(1, 2))])

    def forall(transcript, inst):
        return first

    def exists(transcript, inst):
        return other

    with pytest.raises(FC.IllegalMove) as info:
        FC.play_game(forall, exists, 2, INST)
    assert info.value.player == "E"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_game_and_compilation_solve_each_system_once(monkeypatch, seed):
    solved = []
    solve = FC._solve_system
    monkeypatch.setattr(FC, "_solve_system", lambda system, constants, inst: (
        solved.append((system, tuple(constants))) or solve(system, constants, inst)))
    t = FC.play_game(FC.random_forall_strategy(seed), FC.exists_pinning_strategy(), 5, INST)
    alternatives, tableaux = [], []
    expand, phase_one = FC._system_alternatives, feasibility._phase_one
    monkeypatch.setattr(FC, "_system_alternatives", lambda *args: (
        alternatives.append(expand(*args)) or alternatives[-1]))
    monkeypatch.setattr(feasibility, "_phase_one", lambda *args: (
        tableaux.append(args) or phase_one(*args)))
    FC.compile_transcript(t, INST)
    assert solved and len(set(solved)) == len(solved)
    # the final condition's verdict is read, not solved again
    assert len(alternatives) == 1
    assert len(tableaux) == len(alternatives[0])


def test_kept_verdict_is_per_instance():
    # one strict bound whose right operand is bounded below: 2 combinations
    p = FC.Condition.of([(F.DotMinus(d(1, 2), F.DotMinus(d(2, 3), d(1, 3))), Fraction(1, 2))])
    assert len(FC._system_alternatives(FC.BoundSystem(lt=p.items), INST)) == 2
    assert FC.is_condition(p, INST)
    with pytest.raises(FC.BranchOverflow):
        FC.is_condition(p, FC.MetricInstance(branch_cap=1))
    assert p.extend([(d(1, 2), Fraction(1, 2))]) is not p
    assert p.extend(p.items) is p


CANNED_TRANSCRIPT = [
    ("A", "6650440305364506628883906634361237935"),
    ("E", "19003627592131154527413857948446688007660123386929471446913088689595564575153"),
    ("A", "433449575135154055996464147785288175975745418971560418327025335559852279596001232106955852478958020675635865350459829"),
    ("E", "9654440075593194765517331485912653089782511373161776914077138307266290579163748693744582984792063834977853650848731451450718761181581258391418466374731321783"),
]


def test_transcript_regression_bytes():
    # the canned transcript reproduces code-for-code, and every stored code
    # decodes back into a condition of the replayed game
    t = FC.play_game(
        FC.random_forall_strategy(7), FC.exists_pinning_strategy(), 4, INST
    )
    got = [(player, str(c.code())) for player, c in t.moves]
    assert got == CANNED_TRANSCRIPT
    for (_, code), (_, cond) in zip(CANNED_TRANSCRIPT, t.moves):
        assert FC.Condition.from_code(int(code)) == cond


def test_exists_pinning_widths():
    t = FC.play_game(
        FC.random_forall_strategy(3), FC.exists_pinning_strategy(), 6, INST
    )
    # after 6 rounds the exists player has pinned every mentioned distance
    final = t.last()
    space = FC.compile_transcript(t, INST)
    # compiled distances satisfy every bound and the metric axioms exactly
    structure = space.as_test_structure()
    for formula, bound in final.items:
        assert eval_exact(formula, structure) < bound


def test_compiled_space_builds_one_test_structure(monkeypatch):
    from contlogic.evaluator import TestStructure

    built = []

    class Counting(TestStructure):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    t = FC.play_game(
        FC.random_forall_strategy(3), FC.exists_pinning_strategy(), 4, INST
    )
    monkeypatch.setattr(FC, "TestStructure", Counting)
    space = FC.compile_transcript(t, INST)  # validates through the structure
    structure = space.as_test_structure()
    assert len(built) == 1 and built[0] is structure
    assert space.as_test_structure() is structure


def test_exists_pinning_nested_regions():
    t = FC.play_game(
        FC.random_forall_strategy(11), FC.exists_pinning_strategy(), 6, INST
    )
    exists_moves = [c for player, c in t.moves if player == "E"]
    assert len(exists_moves) == 3
    for earlier, later in zip(exists_moves, exists_moves[1:]):
        assert later.extends(earlier)


def test_compile_empty_transcript():
    space = FC.compile_transcript(FC.Transcript(), INST)
    assert space.constants == ()


def test_compile_checks_a_final_condition_without_constants():
    false = FC.Transcript((("A", FC.Condition.of([(F.One(), Fraction(1, 2))])),))
    with pytest.raises(FC.Infeasible):
        FC.compile_transcript(false, INST)
    true = FC.Transcript((("A", FC.Condition.of([(F.Zero(), Fraction(1, 2))])),))
    assert FC.compile_transcript(true, INST) == FC.CompiledSpace((), {})


def test_compile_two_bound_condition():
    first = FC.Condition.of([(d(1, 2), Fraction(1, 4))])

    def forall(transcript, inst):
        if not transcript.moves:
            return first
        return transcript.last().extend([(d(2, 3), Fraction(1, 4))])

    t = FC.play_game(forall, FC.pass_through_strategy(), 3, INST)
    space = FC.compile_transcript(t, INST)
    assert space.distance(1, 2) < Fraction(1, 4)
    assert space.distance(2, 3) < Fraction(1, 4)
    # triangle holds exactly
    assert space.distance(1, 3) <= space.distance(1, 2) + space.distance(2, 3)
    space.as_test_structure()


def test_compile_deterministic():
    first = FC.Condition.of([(d(1, 2), Fraction(1, 2))])

    def forall(transcript, inst):
        return first

    t = FC.play_game(forall, FC.pass_through_strategy(), 2, INST)
    s1 = FC.compile_transcript(t, INST)
    s2 = FC.compile_transcript(t, INST)
    assert s1 == s2


def test_fp_estimate_qf_examples():
    bounds = FC.fp_estimate(FC.Condition.empty(), d(1, 1), budget=6)
    assert bounds.lower == 0 and bounds.upper == 0
    bounds = FC.fp_estimate(FC.Condition.empty(), F.One(), budget=8)
    assert bounds.upper == 1
    assert bounds.lower >= 1 - Fraction(1, 2**8)
    p = FC.Condition.of([(d(1, 2), Fraction(1, 8))])
    bounds = FC.fp_estimate(p, d(1, 2), budget=8)
    assert bounds.upper <= Fraction(1, 8)


def test_fp_estimate_sup_block():
    f = F.Sup("x", F.Atomic("d", (x, F.CConst(1))))
    bounds = FC.fp_estimate(FC.Condition.empty(), f, budget=6)
    # a fresh point may sit at distance 1
    assert bounds.upper == 1
    assert bounds.lower >= 1 - Fraction(1, 2**6)


def test_fp_estimate_instantiates_a_sup_block_once(monkeypatch):
    calls = []
    substitute = F.substitute
    monkeypatch.setattr(F, "substitute", lambda *args: calls.append(args) or substitute(*args))
    f = F.Sup("x", F.Atomic("d", (x, F.CConst(1))))
    bounds = FC.fp_estimate(FC.Condition.empty(), f, budget=8)
    assert bounds.upper == 1 and bounds.lower == 1 - Fraction(1, 2**8)
    assert len(calls) == 1  # not once per bisection step


def test_fp_costs_the_same_lps_at_every_budget(monkeypatch):
    # one branch combination: its margin LP, then its sup LP, whatever the budget
    costs = []
    maximize = FC.maximize_rows
    monkeypatch.setattr(FC, "maximize_rows", lambda cost, rows: (
        costs.append(cost) or maximize(cost, rows)))
    f = F.Sup("x", F.Atomic("d", (x, F.CConst(1))))
    for budget in (1, 8, 4096):
        costs.clear()
        bounds = FC.fp_estimate(FC.Condition.empty(), f, INST, budget=budget)
        assert bounds.upper == 1 and bounds.lower == 1 - Fraction(1, 2**budget)
        assert costs == [{FC.EPS: 1}, {FC.R: 1}]


def test_sup_leq_yes_is_one_lp(monkeypatch):
    # the 23 members of slices 1-4 (and 256 of slices 1-4096) are counted, not solved
    solved = []
    solve = FC._solve_system
    monkeypatch.setattr(FC, "_solve_system", lambda *args: solved.append(args) or solve(*args))
    p = FC.Condition.of([(d(1, 2), Fraction(1, 8)), (d(1, 3), Fraction(1, 2))])
    for budget, swept in ((0, 0), (1, 1), (4, 23), (4096, FC.SWEEP_CAP)):
        solved.clear()
        ans = FC.forces_sup_leq(p, d(1, 2), Fraction(1, 8), INST, budget=budget)
        assert (ans.verdict, ans.swept, len(solved)) == ("yes", swept, 1)


def test_sup_leq_says_no_exactly_when_the_limit_lp_is_satisfiable():
    # a satisfiable sweep member is a model of the limit system at a smaller
    # margin, so the sweep never answers NO where the limit LP says YES
    outcomes = []
    for seed in range(8):
        t = FC.play_game(FC.random_forall_strategy(seed), FC.exists_pinning_strategy(), 3, INST)
        p = t.last()
        i, j = p.constants()[:2]
        dx = lambda c: F.Atomic("d", (x, F.CConst(c)))
        shapes = [dx(i), F.Half(dx(i)), F.DotMinus(dx(i), dx(j)),
                  F.DotMinus(d(i, j), dx(j)), F.Half(F.DotMinus(dx(i), dx(j)))]
        for psi in shapes:
            sentence, constants = FC._instance(p, psi, ["x"], 1)
            for r in (Fraction(k, 8) for k in range(1, 8)):
                limit = FC._above(p, sentence, constants, r, INST).satisfiable
                for budget in (1, 2, 3):
                    answer = FC.forces_sup_leq(p, psi, r, INST, budget=budget)
                    assert (answer.verdict == "no") == limit, (seed, psi, r, budget)
                    outcomes.append(limit)
    assert len(outcomes) == 840 and 0 < sum(outcomes) < 840


def test_fp_estimate_inf_block_upper_only():
    f = F.Inf("x", F.Atomic("d", (x, F.CConst(1))))
    bounds = FC.fp_estimate(FC.Condition.empty(), f, budget=6)
    # instance x := c1 gives upper 0; the lower side needs exhaustion
    assert bounds.lower is None
    assert bounds.upper == 0


# sha256 of the fp_estimate brackets below, captured before `_fp_rec` stopped
# re-prenexing each instance; the benchmark and the other tests never reach
# mixed prefixes or inf blocks below the first quantifier
FP_PIN_DIGEST = "b14cc390a56762904b7b15803497bd1ee341e426e8404c6baa83f9e1cd3a793e"


def _fp_pin_sentences():
    """20 seeded random sentences each with 1, 2 and 3 quantifiers."""
    rng = random.Random("fp-pin")
    quota = {1: 20, 2: 20, 3: 20}
    out = []
    while any(quota.values()):
        f = selftest._random_sentence(rng, F.METRIC, depth=5)
        prefix, _ = F.prefix_of(F.prenex(f))
        if quota.get(len(prefix)):
            quota[len(prefix)] -= 1
            out.append((f, prefix))
    return out


def test_fp_estimate_pinned_on_random_sentences():
    p = FC.Condition.of([(d(1, 2), Fraction(1, 4)), (d(2, 3), Fraction(1, 2)),
                         (F.DotMinus(F.dyadic_constant(Fraction(1, 2)), d(1, 3)),
                          Fraction(1, 8))])
    sentences = _fp_pin_sentences()
    kinds = [{kind for kind, _ in prefix} for _, prefix in sentences]
    assert sum(F.Inf in k for k in kinds) >= 30
    assert sum(len(k) == 2 for k in kinds) >= 10
    brackets = [FC.fp_estimate(p, f, budget=6) for f, _ in sentences]
    text = "\n".join(f"{b.lower} {b.upper} {b.estimate}" for b in brackets)
    assert hashlib.sha256(text.encode()).hexdigest() == FP_PIN_DIGEST

"""The acceptance suite: one deterministic, machine-checkable record per
criterion.  Every expected value is either computed by an independent oracle
inside this module (walk counters, closed-form binomials, float-free exact
re-evaluation) or is an exact arithmetic consequence checked on the spot.
All randomness is seeded; records contain exact rationals as strings, so the
output is byte-identical across runs.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import coding
from . import evaluator as E
from . import forcing as FC
from . import formulas as F
from . import groups as G
from . import matrices as M
from . import presentations as P
from .gaussian import GaussianRational


def _record(criterion: int, name: str, ok: bool, detail: dict) -> dict:
    return {"criterion": criterion, "name": name, "pass": bool(ok), "detail": detail}


# -- shared generators --------------------------------------------------------


def _random_formula(rng: random.Random, sig: F.Signature, depth: int,
                    scope=()) -> F.Formula:
    scope = list(scope)
    kinds = ["atomic", "zero", "one"]
    if depth > 1:
        kinds += ["half", "dotminus", "dotminus", "quant", "quant"]
    kind = rng.choice(kinds)
    if kind == "atomic" or depth <= 1:
        pred = rng.choice(list(sig.predicates))
        args = []
        for _ in range(sig.predicates[pred]):
            if scope and rng.random() < 0.6:
                args.append(F.Var(rng.choice(scope)))
            else:
                args.append(F.CConst(rng.randint(1, 4)))
        return F.Atomic(pred, tuple(args))
    if kind == "zero":
        return F.Zero()
    if kind == "one":
        return F.One()
    if kind == "half":
        return F.Half(_random_formula(rng, sig, depth - 1, scope))
    if kind == "dotminus":
        return F.DotMinus(
            _random_formula(rng, sig, depth - 1, scope),
            _random_formula(rng, sig, depth - 1, scope),
        )
    var = rng.choice([v for v in ("x", "y", "z", "w") if v not in scope] or ["x"])
    body = _random_formula(rng, sig, depth - 1, scope + [var])
    return (F.Sup if rng.random() < 0.5 else F.Inf)(var, body)


def _random_sentence(rng: random.Random, sig: F.Signature, depth: int) -> F.Formula:
    f = _random_formula(rng, sig, depth)
    for v in sorted(F.free_vars(f)):
        f = (F.Sup if rng.random() < 0.5 else F.Inf)(v, f)
    return f


def _random_structure(rng: random.Random, max_points: int = 6) -> E.TestStructure:
    n = rng.randint(1, max_points)
    if rng.random() < 0.5:
        pts = sorted(Fraction(rng.randint(0, 16), 16) for _ in range(n))
        return E.TestStructure(
            tuple(tuple(abs(p - q) for q in pts) for p in pts)
        )
    r = Fraction(rng.randint(1, 16), 16)
    return E.TestStructure(
        tuple(tuple(Fraction(0) if i == j else r for j in range(n)) for i in range(n))
    )


def _tree_walk_counts(degree: int, steps: int) -> list[int]:
    """Independent oracle: distance-profile count of closed walks at the root
    of the degree-regular tree."""
    profile = {0: 1}
    counts = [1]
    for _ in range(steps):
        nxt: dict[int, int] = {}
        for dist, ways in profile.items():
            down = degree if dist == 0 else degree - 1
            nxt[dist + 1] = nxt.get(dist + 1, 0) + ways * down
            if dist >= 1:
                nxt[dist - 1] = nxt.get(dist - 1, 0) + ways
        profile = nxt
        counts.append(profile.get(0, 0))
    return counts


# -- criteria -----------------------------------------------------------------


def criterion_1_goedel_roundtrip() -> dict:
    rng = random.Random(1001)
    checked = 0
    for sig in (F.METRIC, F.CSTAR, F.TVNA):
        for _ in range(167):
            f = _random_formula(rng, sig, depth=6)
            code = coding.encode(f, sig)
            got_sig, got = coding.decode_full(code)
            if got != f or got_sig.name != sig.name:
                return _record(1, "goedel-roundtrip", False, {"failed_at": checked})
            checked += 1
    probes = 0
    decodable = 0
    for _ in range(1000):
        n = rng.randint(0, 2**64)
        probes += 1
        try:
            coding.decode(n)
            decodable += 1
        except coding.NotACode:
            pass
    return _record(
        1, "goedel-roundtrip", True,
        {"roundtrips": checked, "decode_probes": probes, "decodable": decodable},
    )


def criterion_2_code_transformers() -> dict:
    rng = random.Random(1002)
    for i in range(100):
        p_f = _random_formula(rng, F.METRIC, depth=4)
        q_f = _random_formula(rng, F.METRIC, depth=4)
        p = coding.encode(p_f, F.METRIC)
        q = coding.encode(q_f, F.METRIC)
        n = rng.randint(0, 10)
        if coding.decode(coding.coding_f(p, n)) != F.DotMinus(p_f, F.half_power_one(n)):
            return _record(2, "code-transformers", False, {"failed_at": i, "op": "f"})
        if coding.decode(coding.coding_g(p, q)) != F.DotMinus(p_f, q_f):
            return _record(2, "code-transformers", False, {"failed_at": i, "op": "g"})
    return _record(2, "code-transformers", True, {"samples": 100})


def criterion_3_integer_group_moments() -> dict:
    spec = G.free_abelian("u")
    a = G.element(spec, [(1, (("u", 1),)), (1, (("u", -1),))])
    moments = G.moments_up_to(a, 40)
    for n in range(1, 41):
        if moments[n - 1] != math.comb(2 * n, n):
            return _record(3, "integer-group-moments", False, {"failed_n": n})
    q = G.lambda_norm_lower(a, 40, 20)
    ok = Fraction(193, 100) <= q <= Fraction(2)
    return _record(
        3, "integer-group-moments", ok,
        {"moments_checked": 40, "root_lower_n40_k20": str(q)},
    )


def criterion_4_free_group_walks() -> dict:
    spec = G.free_group("u", "v")
    a = G.element(
        spec,
        [(1, (("u", 1),)), (1, (("u", -1),)), (1, (("v", 1),)), (1, (("v", -1),))],
    )
    counts = _tree_walk_counts(4, 50)
    moments = G.moments_up_to(a, 25)
    for n in range(1, 26):
        if moments[n - 1] != counts[2 * n]:
            return _record(4, "free-group-walks", False, {"failed_n": n})
    lowers = G.lambda_norm_lower_sweep(a, 25, 12)
    monotone = all(x <= y for x, y in zip(lowers, lowers[1:]))
    final = lowers[-1]
    in_window = Fraction(31, 10) <= final <= Fraction(34642, 10000)
    return _record(
        4, "free-group-walks", monotone and in_window,
        {
            "moments_checked": 25,
            "root_lower_n25": str(final),
            "monotone": monotone,
        },
    )


def criterion_5_torus_upgrade() -> dict:
    spec = G.free_abelian("u")
    pres = P.presentation_CstarLambda(spec)
    a = G.element(
        spec, [(Fraction(1, 2), (("u", 1),)), (Fraction(1, 2), (("u", -1),))]
    )
    lo, hi = pres.norm_interval(a, 10)
    two_sided_ok = (
        pres.abelian
        and lo <= 1 <= hi + Fraction(1, 2**10)
        and hi - lo <= Fraction(1, 2**10)
        and abs(lo - 1) <= Fraction(1, 2**10)
    )
    lowers = G.lambda_norm_lower_sweep(a, 12, 10)
    moment_ok = all(lowers[n - 1] <= hi + Fraction(1, 2**10) for n in (1, 2, 4, 8, 12))
    return _record(
        5, "torus-upgrade", two_sided_ok and moment_ok,
        {"interval": [str(lo), str(hi)], "moments_below": moment_ok},
    )


def _power_iteration_vector(a: M.Matrix, iterations: int = 64
                            ) -> tuple[GaussianRational, ...]:
    """Float power iteration on A*A, rounded back to Gaussian rationals.

    Uncertified by design: the vector only selects a Rayleigh witness; the
    bound computed from it downstream is exact.
    """
    n = a.n
    h = [[complex(float(e.re), float(e.im)) for e in row] for row in
         (a.adjoint() * a).rows]
    v = [complex(1, 0) for _ in range(n)]
    for _ in range(iterations):
        w = [sum(h[i][j] * v[j] for j in range(n)) for i in range(n)]
        norm = math.sqrt(sum(abs(x) ** 2 for x in w))
        if norm == 0:
            break
        v = [x / norm for x in w]
    scale = 1 << 20
    return tuple(
        GaussianRational(
            Fraction(round(x.real * scale), scale),
            Fraction(round(x.imag * scale), scale),
        )
        for x in v
    )


def criterion_6_matrix_bounds() -> dict:
    rng = random.Random(1006)

    def entry():
        return GaussianRational(
            Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
            Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
        )

    worst_gap = Fraction(0)
    for sample in range(50):
        a = M.Matrix([[entry() for _ in range(4)] for _ in range(4)])
        bounds = [M.opnorm_upper(a, m) for m in range(9)]
        for b1, b2 in zip(bounds, bounds[1:]):
            if b2 > b1:
                return _record(6, "matrix-bounds", False,
                               {"sample": sample, "reason": "not monotone"})
        best_rayleigh = max(
            M.opnorm_lower(
                a,
                tuple(
                    GaussianRational(
                        Fraction(rng.randint(-8, 8)), Fraction(rng.randint(-8, 8))
                    )
                    for _ in range(4)
                ),
                16,
            )
            for _ in range(32)
        )
        if best_rayleigh > bounds[8]:
            return _record(6, "matrix-bounds", False,
                           {"sample": sample, "reason": "rayleigh above upper"})
        witness = _power_iteration_vector(a)
        certified_lower = M.opnorm_lower(a, witness, 24)
        if certified_lower == 0:
            return _record(6, "matrix-bounds", False,
                           {"sample": sample, "reason": "zero witness"})
        gap = (bounds[8] - certified_lower) / certified_lower
        worst_gap = max(worst_gap, gap)
        if gap > Fraction(2, 100):
            return _record(
                6, "matrix-bounds", False,
                {"sample": sample, "reason": "gap", "gap": str(gap)},
            )
        lo, hi = M.two_norm(a, 12)
        if lo > bounds[8] + Fraction(1, 2**10):
            return _record(6, "matrix-bounds", False,
                           {"sample": sample, "reason": "two-norm above opnorm"})
    return _record(
        6, "matrix-bounds", True,
        {"samples": 50, "worst_relative_gap": str(worst_gap)},
    )


def criterion_7_evaluator_soundness() -> dict:
    rng = random.Random(1007)
    checked = 0
    attempts = 0
    while checked < 200 and attempts < 3000:
        attempts += 1
        structure = _random_structure(rng)
        sentence = F.prenex(_random_sentence(rng, F.METRIC, depth=4))
        prefix, _ = F.prefix_of(sentence)
        if len(prefix) > 2:
            continue
        exact = E.eval_exact(sentence, structure)
        if exact != E.eval_exact(F.prenex(sentence), structure):
            return _record(7, "evaluator-soundness", False,
                           {"reason": "prenex changed the exact value"})
        pres = E.TestStructurePresentation(structure)
        res = E.eval_sentence(
            sentence, pres, E.EvalBudget(points=structure.size, precision_k=12)
        )
        if res.certified_lower is not None and res.certified_lower > exact:
            return _record(7, "evaluator-soundness", False,
                           {"reason": "lower bound above the exact value"})
        if res.certified_upper is not None and res.certified_upper < exact:
            return _record(7, "evaluator-soundness", False,
                           {"reason": "upper bound below the exact value"})
        checked += 1
    return _record(
        7, "evaluator-soundness", checked == 200, {"sentences": checked}
    )


def criterion_8_forcing() -> dict:
    d = lambda i, j: F.Atomic("d", (F.CConst(i), F.CConst(j)))
    x = F.Var("x")
    inst = FC.MetricInstance()
    triple = FC.Condition.of(
        [
            (d(1, 2), Fraction(1, 4)),
            (d(2, 3), Fraction(1, 4)),
            (F.DotMinus(F.One(), d(1, 3)), Fraction(1, 4)),
        ]
    )
    if FC.is_condition(triple, inst):
        return _record(8, "forcing", False, {"reason": "triple accepted"})
    refl = FC.forces_sup_leq(FC.Condition.empty(), F.Atomic("d", (x, x)), Fraction(0))
    if refl.verdict != "yes":
        return _record(8, "forcing", False, {"reason": "reflexivity not forced"})
    far = FC.forces_sup_leq(
        FC.Condition.empty(), F.Atomic("d", (x, F.CConst(1))), Fraction(1, 2)
    )
    if far.verdict != "no" or not far.witness:
        return _record(8, "forcing", False, {"reason": "distance bound not refuted"})
    games = 0
    for seed in range(20):
        transcript = FC.play_game(
            FC.random_forall_strategy(2000 + seed),
            FC.exists_pinning_strategy(),
            8,
            inst,
        )
        space = FC.compile_transcript(transcript, inst)
        structure = space.as_test_structure()  # validates metric axioms exactly
        for formula, bound in transcript.last().items:
            if not E.eval_exact(formula, structure) < bound:
                return _record(
                    8, "forcing", False,
                    {"reason": "compiled space violates a bound", "seed": seed},
                )
        games += 1
    return _record(
        8, "forcing", games == 20,
        {"games": games, "witness_distance_vars": sorted(far.witness)},
    )


CRITERIA = [
    criterion_1_goedel_roundtrip,
    criterion_2_code_transformers,
    criterion_3_integer_group_moments,
    criterion_4_free_group_walks,
    criterion_5_torus_upgrade,
    criterion_6_matrix_bounds,
    criterion_7_evaluator_soundness,
    criterion_8_forcing,
]


def run_all() -> list[dict]:
    return [criterion() for criterion in CRITERIA]

"""Seeded job generators, job runners and output checks for the workloads.

A workload's job list is a repeated cycle of job kinds.  The seed draws the
jobs' contents (game seeds, sentences, matrices, elements, Z coefficients);
sizes follow fixed schedules over the cycles, the same for every seed, so
that seeds differ in contents and not in the amount of work.  So do the
points bound in queries and the Z^2 torus coefficients, which set a job's
amount of work more than its size does.  Each job is a JSON-able dict, so a
generated list can be dumped and replayed.  `run_job` makes the library
calls a user would make for that job and returns its outputs; `check_job` checks them
against the oracles in `oracles.py` and returns the problems found;
`digest_record` lists the exact outputs that the run's sha256 digest covers.

Why each workload exists, and what it varies, is in BENCHMARK.json.
"""

from __future__ import annotations

import random
from fractions import Fraction

from contlogic import evaluator as E
from contlogic import forcing as FC
from contlogic import formulas as F
from contlogic import groups as G
from contlogic import matrices as M
from contlogic import parser
from contlogic import presentations as P
from contlogic import torus as T
from contlogic.gaussian import GaussianRational

from . import oracles as O

# One cycle of job kinds per workload.  Runs stop only at cycle boundaries,
# so every run holds the same mix of kinds and sizes.
CYCLES = {
    "games": ["game"],
    # no two-quantifier Cstar(Z) sentences: their torus oracle calls alone
    # made the run-to-run spread of queries several times wider
    "queries": ["eval:R:1", "eval:L:1", "eval:C2w:1", "eval:CstarF2:1", "eval:CstarZ:1",
                "eval:R:2", "eval:L:2", "eval:C2w:2", "eval:CstarF2:2", "sup_leq", "fp"],
    "norms": ["matrix:4", "matrix:8", "moments:F2letters", "moments:Z", "moments:F2words",
              "torus:1", "torus:2"],
}
# Cycles generated per run: several times what a run at the seed commit uses.
LIST_CYCLES = {"games": 6000, "queries": 400, "norms": 60}
# job_tail_ref percentile: the highest with ten jobs beyond it at the job
# counts a run reaches at the seed commit.
TAIL_PERCENTILE = {"games": 98, "queries": 98, "norms": 75}
# Jobs whose exact outputs go into the digest (a prefix every run completes).
DIGEST_JOBS = {"games": 100, "queries": 22, "norms": 14}

GAME_ROUNDS = 5
CONDITION_POOL = 48  # short games played at set-up for the forcing queries


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _frac(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _opt(q):
    return None if q is None else _frac(q)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def generate(workload: str, seed: int) -> list[dict]:
    cycle = CYCLES[workload]
    pool = _condition_pool(seed) if workload == "queries" else []
    jobs = []
    for index in range(LIST_CYCLES[workload] * len(cycle)):
        kind = cycle[index % len(cycle)]
        job = _GENERATORS[kind.split(":")[0]](_rng(workload, seed, index), kind,
                                              index // len(cycle), pool)
        job["kind"] = kind
        jobs.append(job)
    return jobs


def _step(c: int, values: tuple):
    """Sizes follow a fixed schedule over cycles, the same for every seed."""
    return values[c % len(values)]


def _gen_game(rng, kind, c, pool) -> dict:
    return {"rounds": GAME_ROUNDS, "game_seed": rng.randrange(2 ** 31)}


def _condition_pool(seed: int) -> list[tuple[str, list[int]]]:
    """Final conditions of short seeded games: (code, constants) pairs."""
    inst = FC.MetricInstance()
    out = []
    for i in range(CONDITION_POOL):
        rng = _rng("conditions", seed, i)
        transcript = FC.play_game(FC.random_forall_strategy(rng.randrange(2 ** 31)),
                                  FC.exists_pinning_strategy(), 3, inst)
        final = transcript.last()
        out.append((str(final.code()), final.constants()))
    return out


# rounded combinations with |lam| + |mu| <= 1
_COMBS = [("1/2+0i", "1/2+0i"), ("1/2+0i", "0-1/2i"), ("1/4+1/4i", "1/2+0i"),
          ("3/4+0i", "-1/4+0i"), ("0+1/2i", "1/4+1/4i")]


def _term(rng, scope: list[str], depth: int) -> str:
    if depth == 0 or rng.random() < 0.5:
        return rng.choice(scope + ["c1", "c2"])
    pick = rng.random()
    if pick < 0.3:
        return f"adj({_term(rng, scope, depth - 1)})"
    if pick < 0.65:
        return f"mul({_term(rng, scope, depth - 1)}, {_term(rng, scope, depth - 1)})"
    lam, mu = rng.choice(_COMBS)
    return (f"comb({lam}, {_term(rng, scope, depth - 1)}, "
            f"{mu}, {_term(rng, scope, depth - 1)})")


def _atom(rng, var: str, scope: list[str], tvna: bool) -> str:
    other = _term(rng, [v for v in scope if v != var], 1)
    if tvna and rng.random() < 0.25:
        return f"{rng.choice(('tr_re', 'tr_im'))}(mul({var}, {other}))"
    return f"d({var}, {other})"


def _sentence(rng, quantifiers: int, tvna: bool) -> str:
    """Two atoms under one or two quantifiers; every variable is used."""
    scope = ["x", "y"][:quantifiers]
    first = _atom(rng, scope[0], scope, tvna)
    second = _atom(rng, scope[-1], scope, tvna)
    body = rng.choice([f"({first}) -. ({second})", f"half({first}) -. ({second})",
                       f"({first}) -. half({second})"])
    for var in reversed(scope):
        body = f"{rng.choice(('sup', 'inf'))} {var} . {body}"
    return body


# The constants c1, c2 are bound to rational points on a fixed schedule, the
# same for every seed: on Cstar(Z) a sentence's cost is set mostly by which
# points these are, over a range of 100x, so drawing them made seeds differ
# in the amount of work.
_BIND_RNG = random.Random("bind")
_BINDS = [(_BIND_RNG.randint(4, 40), _BIND_RNG.randint(4, 40)) for _ in range(24)]


def _gen_eval(rng, kind, c, pool) -> dict:
    _, pres, quantifiers = kind.split(":")
    quantifiers = int(quantifiers)
    return {
        "presentation": pres,
        "sentence": _sentence(rng, quantifiers, pres in ("R", "L")),
        "points": _step(c, (12, 16, 20, 24) if quantifiers == 1 else (5, 6, 7, 8)),
        # Cstar(Z) stays at k = 2: at k = 3 one sentence took up to 1.7 s, and
        # those jobs held 84% of the variance of a queries cycle's time
        "k": 2 if pres == "CstarZ" else _step(c, (2, 3)),
        "oracle_budget": _step(c, (1, 2)),
        "bind": list(_step(c, _BINDS)),
    }


def _gen_sup_leq(rng, kind, c, pool) -> dict:
    code, constants = rng.choice(pool)
    i, j = rng.sample(constants, 2)
    psi = rng.choice([f"d(x, c{i})", f"half(d(x, c{i}))", f"d(x, c{i}) -. d(x, c{j})",
                      f"d(c{i}, c{j}) -. d(x, c{j})", f"half(d(x, c{i}) -. d(x, c{j}))"])
    return {"condition": code, "psi": psi, "r": rng.choice(("1/4", "3/8", "1/2", "3/4")),
            "budget": _step(c, (1, 2))}


def _gen_fp(rng, kind, c, pool) -> dict:
    code, constants = rng.choice(pool)
    i, j = rng.sample(constants, 2)
    formula = rng.choice([f"sup x . d(x, c{i})", f"inf x . d(x, c{i})",
                          f"d(c{i}, c{j})", f"sup x . (d(x, c{i}) -. d(x, c{j}))"])
    return {"condition": code, "formula": formula, "depth": _step(c, (1, 2)),
            "budget": _step(c, (4, 5, 6, 7, 8))}


def _gaussian(rng, span: int, den: int) -> list[str]:
    while True:
        re, im = rng.randint(-span, span), rng.randint(-span, span)
        if re or im:
            return [_frac(Fraction(re, rng.randint(1, den))),
                    _frac(Fraction(im, rng.randint(1, den)))]


def _gen_matrix(rng, kind, c, pool) -> dict:
    n = int(kind.split(":")[1])
    # larger denominators on 4x4 and smaller on 8x8 bring their costs closer
    entries = [[_gaussian(rng, 8, 16 if n == 4 else 2) for _ in range(n)] for _ in range(n)]
    vectors = [[_gaussian(rng, 8, 1) for _ in range(n)] for _ in range(4)]
    return {"n": n, "entries": entries, "vectors": vectors, "ms": 9, "k": 16}


_F2_LETTERS = [[["u", 1]], [["u", -1]], [["v", 1]], [["v", -1]], []]


def _gen_moments(rng, kind, c, pool) -> dict:
    group = kind.split(":")[1]
    if group == "F2letters":  # the excursion-DP route
        words = rng.sample(_F2_LETTERS, _step(c, (5, 4, 3, 2)))
        n = _step(c, (8, 10, 12, 14))
    elif group == "Z":  # the convolution route
        exponents = _step(c, ((-1, 0, 2), (-3, 1), (-2, -1, 1, 2), (0, 1, 3)))
        words = [[["u", e]] if e else [] for e in exponents]
        n = _step(c, (10, 14, 18, 22))
    else:  # two-letter words send F2 elements down the convolution route
        words = [[["u", 1], ["v", 1]]] + rng.sample(
            [[["u", -1]], [["v", 1]], [["v", -1], ["u", 1]], []], 2)
        n = _step(c, (4, 5))
    terms = [[word] + _gaussian(rng, 4, 4) for word in words]
    return {"group": group, "terms": terms, "n": n, "k": _step(c, (8, 12, 16))}


def _gen_torus(rng, kind, c, pool) -> dict:
    dims = int(kind.split(":")[1])
    # exponents follow the schedule; the seed draws the coefficients
    shapes = ((((-2,), (0,), (3,)), ((-1,), (2,))) if dims == 1 else
              (((1, 0), (0, -1), (-1, 1)), ((1, 1), (-1, 0))))
    # Z^2 coefficients follow a fixed schedule, the same for every seed: drawn,
    # they moved a job's time between 0.16 and 1.4 s, and a run holds about 14
    if dims == 2:
        rng = random.Random(f"torus2/{c % 8}")
    terms = [[list(e)] + [_frac(Fraction(x) / 8) for x in _gaussian(rng, 4, 1)]
             for e in _step(c, shapes)]
    # Z^2 is sized down: its interval enclosures are far slower than on Z
    return {"dims": dims, "terms": terms, "k": _step(c, (4, 5, 6, 7)) if dims == 1 else 1}


_GENERATORS = {"game": _gen_game, "eval": _gen_eval, "sup_leq": _gen_sup_leq,
               "fp": _gen_fp, "matrix": _gen_matrix, "moments": _gen_moments,
               "torus": _gen_torus}


# ---------------------------------------------------------------------------
# runners: the library calls a user makes for one job
# ---------------------------------------------------------------------------


def _gr(pair) -> GaussianRational:
    return GaussianRational(Fraction(pair[0]), Fraction(pair[1]))


def _presentation(name: str):
    if name == "R":
        return P.presentation_R()
    if name == "L":
        return P.presentation_L(G.free_group("u", "v"))
    if name == "C2w":
        return P.presentation_C2w()
    if name == "CstarF2":
        return P.presentation_CstarLambda(G.free_group("u", "v"))
    return P.presentation_CstarLambda(G.free_abelian("u"))


def _run_game(job):
    inst = FC.MetricInstance()
    transcript = FC.play_game(FC.random_forall_strategy(job["game_seed"]),
                              FC.exists_pinning_strategy(), job["rounds"], inst)
    space = FC.compile_transcript(transcript, inst)
    structure = space.as_test_structure()  # checks the metric axioms exactly
    values = [E.eval_exact(formula, structure) for formula, _ in transcript.last().items]
    return {"transcript": transcript, "space": space, "values": values}


def _run_eval(job):
    pres = _presentation(job["presentation"])
    formula = parser.parse_formula(job["sentence"], pres.signature)
    bindings = {c: pres.rational_point(i) for c, i in enumerate(job["bind"], start=1)}
    budget = E.EvalBudget(points=job["points"], precision_k=job["k"],
                          oracle_budget=job["oracle_budget"])
    return {"pres": pres, "bindings": bindings,
            "result": E.eval_sentence(formula, pres, budget, bindings)}


def _run_sup_leq(job):
    condition = FC.Condition.from_code(int(job["condition"]))
    psi = parser.parse_formula(job["psi"], F.METRIC)
    answer = FC.forces_sup_leq(condition, psi, Fraction(job["r"]), FC.MetricInstance(),
                               budget=job["budget"])
    return {"condition": condition, "psi": psi, "answer": answer}


def _run_fp(job):
    condition = FC.Condition.from_code(int(job["condition"]))
    formula = parser.parse_formula(job["formula"], F.METRIC)
    return {"bounds": FC.fp_estimate(condition, formula, FC.MetricInstance(),
                                     depth=job["depth"], budget=job["budget"])}


def _run_matrix(job):
    a = M.Matrix([[_gr(e) for e in row] for row in job["entries"]])
    upper = [M.opnorm_upper(a, m) for m in range(job["ms"])]
    lower = [M.opnorm_lower(a, tuple(_gr(x) for x in v), job["k"]) for v in job["vectors"]]
    return {"upper": upper, "lower": lower, "two_norm": M.two_norm(a, 12)}


def _element(job):
    spec = G.free_abelian("u") if job["group"] == "Z" else G.free_group("u", "v")
    terms = [(_gr(t[1:]), tuple((g, e) for g, e in t[0])) for t in job["terms"]]
    return G.element(spec, terms)


def _run_moments(job):
    a = _element(job)
    return {"moments": G.moments_up_to(a, job["n"]),
            "sweep": G.lambda_norm_lower_sweep(a, job["n"], job["k"])}


def _run_torus(job):
    support = {tuple(t[0]): _gr(t[1:]) for t in job["terms"]}
    return {"interval": T.torus_sup_norm(support, job["k"])}


_RUNNERS = {"game": _run_game, "eval": _run_eval, "sup_leq": _run_sup_leq, "fp": _run_fp,
            "matrix": _run_matrix, "moments": _run_moments, "torus": _run_torus}


def run_job(job: dict):
    return _RUNNERS[job["kind"].split(":")[0]](job)


# ---------------------------------------------------------------------------
# checks against independent oracles
# ---------------------------------------------------------------------------


def _check_game(job, out) -> list[str]:
    problems = []
    moves = out["transcript"].moves
    if [p for p, _ in moves] != ["A", "E"] * (job["rounds"] // 2) + ["A"] * (job["rounds"] % 2):
        problems.append("players do not alternate from A")
    for (_, before), (_, after) in zip(moves, moves[1:]):
        if not set(before.items) <= set(after.items):
            problems.append("a move does not extend the previous condition")
    final = out["transcript"].last()
    space = out["space"]
    if list(space.constants) != final.constants():
        problems.append("compiled space misses a constant")
        return problems
    bad = O.metric_violation(list(space.constants), space.distance)
    if bad:
        problems.append(f"compiled space is not a metric: {bad}")
    for (formula, bound), value in zip(final.items, out["values"]):
        own = O.metric_value(formula, space.distance)
        if own != value:
            problems.append(f"eval_exact gave {value}, the oracle {own}")
        if not own < bound:
            problems.append(f"compiled space violates a bound: {own} !< {bound}")
    return problems


def _interval_problems(lower, estimate, upper) -> list[str]:
    problems = []
    if lower is not None and not 0 <= lower <= estimate:
        problems.append(f"lower {lower} outside [0, estimate {estimate}]")
    if upper is not None and not estimate <= upper <= 1:
        problems.append(f"upper {upper} outside [estimate {estimate}, 1]")
    return problems


def _check_eval(job, out) -> list[str]:
    res = out["result"]
    problems = _interval_problems(res.certified_lower, res.estimate, res.certified_upper)
    if job["presentation"] not in ("CstarF2", "CstarZ"):
        return problems
    # the Cstar oracles on the bound constants and their half-difference
    pres = out["pres"]
    c1, c2 = (pres.point_object(out["bindings"][c]) for c in (1, 2))
    half = GaussianRational(Fraction(1, 2), Fraction(0))
    k = job["k"]
    for obj in (c1, c1.scale(half) - c2.scale(half)):
        lo, hi = pres.norm_interval(obj, k, budget=job["oracle_budget"])
        l1 = sum((O.abs_upper((c.re, c.im)) for c in obj.coeffs.values()), Fraction(0))
        if lo > l1:
            problems.append(f"lower bound {lo} above l1 {l1}")
        if job["presentation"] == "CstarZ" and obj.coeffs:
            support = {(dict(w).get("u", 0),): (c.re, c.im) for w, c in obj.coeffs.items()}
            if hi * hi < O.torus_lower_sq(support):
                problems.append(f"torus upper bound {hi} below |f| at a circle point")
            if hi - lo > Fraction(1, 2 ** k):
                problems.append(f"torus interval wider than 2^-{k}")
    return problems


def _check_sup_leq(job, out) -> list[str]:
    answer = out["answer"]
    if answer.verdict != "no":
        return []
    # the witness is a finite metric space with p's bounds strict and psi > r
    fresh = max(set(out["condition"].constants()) | F.constants_of(out["psi"]), default=0) + 1
    dist_vars = {tuple(int(x) for x in name.split("_")[1:]): v
                 for name, v in (answer.witness or {}).items()}
    points = sorted({i for pair in dist_vars for i in pair} | {fresh})

    def dist(i, j):
        return Fraction(0) if i == j else dist_vars.get((min(i, j), max(i, j)), Fraction(0))

    problems = []
    bad = O.metric_violation(points, dist)
    if bad:
        problems.append(f"witness is not a metric: {bad}")
    for formula, bound in out["condition"].items:
        if not O.metric_value(formula, dist) < bound:
            problems.append("witness violates a condition bound")
    psi = F.substitute(out["psi"], {v: F.CConst(fresh) for v in F.free_vars(out["psi"])})
    if not O.metric_value(psi, dist) > Fraction(job["r"]):
        problems.append("witness does not push psi above r")
    return problems


def _check_fp(job, out) -> list[str]:
    b = out["bounds"]
    problems = _interval_problems(b.lower, b.estimate, b.upper)
    if b.lower is not None and b.upper is not None and \
            b.upper - b.lower > Fraction(1, 2 ** job["budget"]):
        problems.append("bisection bracket wider than 2^-budget")
    return problems


def _check_matrix(job, out) -> list[str]:
    problems = []
    upper = out["upper"]
    if any(b > a for a, b in zip(upper, upper[1:])):
        problems.append("opnorm_upper increases with m")
    best = upper[-1]
    if max(out["lower"]) > best:
        problems.append("a Rayleigh lower bound exceeds the upper bound")
    lo, hi = out["two_norm"]
    if lo > best or hi - lo > Fraction(1, 2 ** 12):
        problems.append("two_norm above the operator-norm bound or too wide")
    # oracle: every column norm |A e_j| is a lower bound on |A|
    for j in range(job["n"]):
        column = sum((O.cabs_sq(_pair(row[j])) for row in job["entries"]), Fraction(0))
        if column > best * best:
            problems.append("a column norm exceeds opnorm_upper")
    return problems


def _pair(entry) -> tuple[Fraction, Fraction]:
    return (Fraction(entry[0]), Fraction(entry[1]))


def _check_moments(job, out) -> list[str]:
    problems = []
    if job["group"] == "Z":
        element = {(dict(map(tuple, t[0])).get("u", 0),): _pair(t[1:]) for t in job["terms"]}
        mul, inv, identity = O.abelian_mul, O.abelian_inv, (0,)
    else:
        element = {}
        for t in job["terms"]:
            word = ()
            for g, e in t[0]:
                word = O.free_mul(word, ((g, e),))
            element[word] = _pair(t[1:])
        mul, inv, identity = O.free_mul, O.free_inv, ()
    # free-group supports grow exponentially with the power, so the oracle
    # stops earlier there
    depth = min(job["n"], 5 if job["group"] == "Z" else 3)
    if O.moments(element, depth, mul, inv, identity) != out["moments"][:depth]:
        problems.append("moments differ from the convolution oracle")
    l1 = sum((O.abs_upper(c) for c in element.values()), Fraction(0))
    sweep, k = out["sweep"], job["k"]
    for j, (q, m) in enumerate(zip(sweep, out["moments"]), start=1):
        if not O.root_floor_ok(q, m, 2 * j, k):
            problems.append(f"moment root at n={j} is not the 2^-{k} grid floor")
            break
        if q > l1:
            problems.append(f"moment root {q} above l1 {l1}")
    if any(b < a for a, b in zip(sweep, sweep[1:])):
        problems.append("moment roots decrease with n")
    return problems


def _check_torus(job, out) -> list[str]:
    lo, hi = out["interval"]
    support = {tuple(t[0]): _pair(t[1:]) for t in job["terms"]}
    problems = []
    if hi - lo > Fraction(1, 2 ** job["k"]) or lo < 0:
        problems.append("torus interval wider than 2^-k or negative")
    if hi * hi < O.torus_lower_sq(support):
        problems.append("torus upper bound below |f| at a circle point")
    l1 = sum((O.abs_upper(c) for c in support.values()), Fraction(0))
    if lo > l1:
        problems.append("torus lower bound above l1")
    return problems


_CHECKS = {"game": _check_game, "eval": _check_eval, "sup_leq": _check_sup_leq,
           "fp": _check_fp, "matrix": _check_matrix, "moments": _check_moments,
           "torus": _check_torus}


def check_job(job: dict, out) -> list[str]:
    return _CHECKS[job["kind"].split(":")[0]](job, out)


def failure_type(job: dict, out) -> str | None:
    """Outcomes that count as failed without being wrong."""
    if job["kind"] == "sup_leq" and out["answer"].verdict == "unknown":
        return "unknown-verdict"
    return None


# ---------------------------------------------------------------------------
# digest records: the exact outputs
# ---------------------------------------------------------------------------


def digest_record(job: dict, out):
    kind = job["kind"].split(":")[0]
    if kind == "game":
        final = out["transcript"].last()
        return {"items": [[parser.print_formula(f), _frac(r)] for f, r in final.items],
                "distances": [[i, j, _frac(d)] for (i, j), d in sorted(out["space"].distances.items())],
                "values": [_frac(v) for v in out["values"]]}
    if kind == "eval":
        res = out["result"]
        return [_opt(res.certified_lower), _frac(res.estimate), _opt(res.certified_upper),
                sorted(res.witnesses.items()), _frac(res.slack)]
    if kind == "sup_leq":
        a = out["answer"]
        return [a.verdict, a.swept, _opt(a.margin),
                sorted((k, _frac(v)) for k, v in (a.witness or {}).items())]
    if kind == "fp":
        b = out["bounds"]
        return [_opt(b.lower), _frac(b.estimate), _opt(b.upper)]
    if kind == "matrix":
        return [[_frac(q) for q in out["upper"]], [_frac(q) for q in out["lower"]],
                [_frac(q) for q in out["two_norm"]]]
    if kind == "moments":
        return [[_frac(q) for q in out["moments"]], [_frac(q) for q in out["sweep"]]]
    return [_frac(q) for q in out["interval"]]

"""Command-line interface: reproducible workflows over JSON-line records.

Every subcommand prints one JSON object per result line with sorted keys and
a schema version field; exact rationals are rendered as "num/den" strings and
dyadic intervals as {"lo", "hi"} pairs.  Floating point appears only in
fields named "approx".  Runs are deterministic given the flags (seeds are
explicit), which `selftest` relies on for its byte-identical-output check.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import coding
from . import evaluator as E
from . import forcing as FC
from . import formulas as F
from . import groups as G
from . import matrices as M
from . import presentations as P
from . import selftest
from .gaussian import ContlogicError
from .parser import ParseError, parse_element, parse_formula, print_formula

SCHEMA = 1


def _emit(record: dict) -> None:
    record = {"schema": SCHEMA, **record}
    sys.stdout.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
    sys.stdout.write("\n")


def _fail(kind: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    return 1


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # a usage error for `main`, not exit status 2
        raise argparse.ArgumentError(None, message)


def _natural(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a natural number, got {text!r}")
    return int(text)


# int() and Fraction() read every Unicode digit: numeric flags take ASCII only
def _ascii(text: str) -> str:
    if not text.isascii():
        raise argparse.ArgumentTypeError(f"expected ASCII text, got {text!r}")
    return text


def _integer(text: str) -> int:
    try:
        return int(_ascii(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


# each step of m doubles the grid root's radicand t * 2^(16 * 2^(m+1)) in
# bits: m = 16 takes seconds on an 8x8 matrix, and past it a run ends only
# when memory does
OPNORM_POWER_MAX = 16


def _opnorm_power(text: str) -> int:
    m = _natural(text)
    if m > OPNORM_POWER_MAX:
        raise argparse.ArgumentTypeError(f"expected at most {OPNORM_POWER_MAX}, got {m}")
    return m


class CodeTooLarge(ContlogicError):
    """A code with more decimal digits than the interpreter converts to text."""


def _code(value: int) -> str:
    """A code in decimal, refused before `str` when it has more digits than
    `sys.get_int_max_str_digits()` allows (0, or no such function: no limit)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # a code under 2^(3 * limit) < 10^limit is printable without forming 10^limit
    if limit and value.bit_length() > 3 * limit and abs(value) >= 10**limit:
        raise CodeTooLarge(f"the code has {value.bit_length()} bits, more than the "
                           f"{limit} decimal digits this interpreter prints")
    return str(value)


def _frac(q) -> str | None:
    return None if q is None else str(Fraction(q))


def _interval(pair) -> dict:
    lo, hi = pair
    return {"lo": _frac(lo), "hi": _frac(hi), "approx": float(lo)}


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _signature(name: str) -> F.Signature:
    if name not in F.PRESETS:
        raise ValueError(f"unknown signature preset {name!r}")
    return F.PRESETS[name]


def _load_group(path: str) -> G.GroupSpec:
    return G.load_group_config(_read_text(path))


def _presentation(name: str, group_config: str | None):
    if name == "R":
        return P.presentation_R()
    if name == "C2w":
        return P.presentation_C2w()
    if name in ("L", "Cstar"):
        if not group_config:
            raise ValueError(f"presentation {name} needs --group CONFIG")
        spec = _load_group(group_config)
        if name == "L":
            return P.presentation_L(spec)
        return P.presentation_CstarLambda(spec)
    raise ValueError(f"unknown presentation {name!r} (R, L, Cstar, C2w)")


# -- subcommands ---------------------------------------------------------------


def _cmd_code(args) -> int:
    flags = {"encode": (), "g": ("code", "q")}.get(args.action, ("code",))
    missing = [f"--{flag}" for flag in flags if getattr(args, flag) is None]
    if missing:
        return _fail("usage", f"code {args.action} needs {' and '.join(missing)}")
    if args.action == "encode":
        sig = _signature(args.signature)
        formula = parse_formula(_read_text(args.formula), sig)
        _emit({"kind": "code", "value": _code(coding.encode(formula, sig))})
        return 0
    if args.action == "decode":
        sig, formula = coding.decode_full(args.code)
        _emit(
            {
                "kind": "formula",
                "signature": sig.name,
                "text": print_formula(formula),
            }
        )
        return 0
    if args.action == "f":
        _emit({"kind": "code", "value": _code(coding.coding_f(args.code, args.n))})
        return 0
    if args.action == "g":
        _emit({"kind": "code", "value": _code(coding.coding_g(args.code, args.q))})
        return 0
    # "predicates": argparse's choices leave no other action
    flags = coding.code_predicates(args.code)
    _emit(
        {
            "kind": "code-flags",
            "is_formula": flags.is_formula,
            "is_sentence": flags.is_sentence,
            "is_qf": flags.is_qf,
            "is_in_base_L": flags.is_in_base_L,
            "prefix": str(flags.prefix_class) if flags.prefix_class else None,
        }
    )
    return 0


def _cmd_parse(args) -> int:
    sig = _signature(args.signature)
    formula = parse_formula(_read_text(args.formula), sig)
    record = {
        "kind": "parsed",
        "signature": sig.name,
        "text": print_formula(formula),
        "free_vars": sorted(F.free_vars(formula)),
        "quantifier_free": F.is_quantifier_free(formula),
    }
    if args.prenex:
        prenexed = F.prenex(formula)
        record["prenex"] = print_formula(prenexed)
        record["prefix_class"] = str(F.classify_prefix(prenexed))
    _emit(record)
    return 0


def _cmd_norm(args) -> int:
    if args.matrix_index is not None:
        a = M.enumerate_matrices(args.matrix_index)
        record = {"kind": "matrix-norms", "index": args.matrix_index, "size": a.n}
        record["two_norm"] = _interval(M.two_norm(a, args.precision))
        record["opnorm_upper"] = _frac(M.opnorm_upper(a, args.opnorm_power))
        _emit(record)
        return 0
    if not args.group or not args.element:
        return _fail("usage", "norm needs --matrix-index or --group with --element")
    spec = _load_group(args.group)
    element = parse_element(args.element, spec)
    record = {"kind": "group-norms", "element": args.element}
    record["l1"] = _frac(G.l1_norm(element))
    record["two_norm"] = _interval(G.two_norm(element, args.precision))
    if args.lambda_lower:
        sweep = G.lambda_norm_lower_sweep(element, args.lambda_lower, args.precision)
        record["lambda_lower"] = [_frac(q) for q in sweep]
        record["lambda_lower_best"] = _frac(max(sweep))
    _emit(record)
    return 0


def _cmd_eval(args) -> int:
    pres = _presentation(args.presentation, args.group)
    formula = parse_formula(_read_text(args.sentence), pres.signature)
    bindings = {}
    for binding in args.bind or []:
        match = re.fullmatch(r"c([0-9]+)=([0-9]+)", binding)
        if not match:
            return _fail("usage", f"bad binding {binding!r}; use cN=POINTINDEX")
        bindings[int(match[1])] = pres.rational_point(int(match[2]))
    budget = E.EvalBudget(
        points=args.budget_points,
        precision_k=args.precision,
        oracle_budget=args.oracle_budget,
    )
    res = E.eval_sentence(formula, pres, budget, bindings)
    _emit(
        {
            "kind": "eval",
            "presentation": pres.name,
            "certified_lower": _frac(res.certified_lower),
            "certified_upper": _frac(res.certified_upper),
            "estimate": _frac(res.estimate),
            "approx": float(res.estimate),
            "witnesses": {str(k): v for k, v in sorted(res.witnesses.items())},
            "slack": _frac(res.slack),
        }
    )
    return 0


def _cmd_classify(args) -> int:
    if args.code is not None:
        label = E.classify(args.code, args.relation, args.n)
    elif args.prefix:
        text = args.prefix
        if text.startswith("forall"):
            pc = F.forall_n(int(text[len("forall"):]))
        elif text.startswith("exists"):
            pc = F.exists_n(int(text[len("exists"):]))
        elif text == "qf":
            pc = F.QF
        else:
            return _fail("usage", f"bad prefix {text!r}")
        n = args.n if args.n else (pc.blocks + 1) // 2
        label = E.classify_prefix_level(pc, args.relation, n)
    else:
        return _fail("usage", "classify needs --code or --prefix")
    _emit({"kind": "classification", "label": label})
    return 0


def _condition(args) -> FC.Condition:
    code = args.condition
    return FC.Condition.empty() if code is None else FC.Condition.from_code(code)


def _cmd_force(args) -> int:
    inst = FC.MetricInstance()
    if args.action == "check-condition":
        if args.condition is None:
            return _fail("usage", "force check-condition needs --condition")
        condition = _condition(args)
        _emit(
            {
                "kind": "condition",
                "is_condition": FC.is_condition(condition, inst),
                "items": len(condition.items),
            }
        )
        return 0
    if args.action == "sup-leq":
        condition = _condition(args)
        psi = parse_formula(_read_text(args.psi), F.METRIC)
        answer = FC.forces_sup_leq(
            condition, psi, Fraction(args.bound), inst, budget=args.budget
        )
        _emit(
            {
                "kind": "forces",
                "verdict": answer.verdict,
                "swept": answer.swept,
                "witness": {k: _frac(v) for k, v in sorted((answer.witness or {}).items())},
            }
        )
        return 0
    if args.action == "game":
        strategies = {
            "random": lambda: FC.random_forall_strategy(args.seed),
            "pass": FC.pass_through_strategy,
            "pinning": FC.exists_pinning_strategy,
        }
        if args.strategy_forall not in strategies:
            return _fail("usage", f"unknown strategy {args.strategy_forall!r}")
        if args.strategy_exists not in strategies:
            return _fail("usage", f"unknown strategy {args.strategy_exists!r}")
        forall = strategies[args.strategy_forall]()
        exists = strategies[args.strategy_exists]()
        transcript = FC.play_game(forall, exists, args.rounds, inst)
        # build every record before printing any: a failure prints no partial output
        records = [
            {
                "kind": "move",
                "player": player,
                "condition_code": _code(condition.code()),
                "items": [[_code(k), _frac(r)] for k, r in condition.keys],
            }
            for player, condition in transcript.moves
        ]
        space = FC.compile_transcript(transcript, inst)
        records.append(
            {
                "kind": "compiled",
                "constants": list(space.constants),
                "distances": {
                    f"d({i},{j})": _frac(space.distance(i, j))
                    for i, j in sorted(space.distances)
                },
            }
        )
        for record in records:
            _emit(record)
        return 0
    # "fp": argparse's choices leave no other action
    condition = _condition(args)
    formula = parse_formula(_read_text(args.psi), F.METRIC)
    bounds = FC.fp_estimate(condition, formula, inst,
                            depth=args.depth, budget=args.budget)
    _emit(
        {
            "kind": "fp",
            "lower": _frac(bounds.lower),
            "upper": _frac(bounds.upper),
            "estimate": _frac(bounds.estimate),
        }
    )
    return 0


def _cmd_selftest(args) -> int:
    records = selftest.run_all()
    ok = True
    for record in records:
        _emit(record)
        ok = ok and record["pass"]
    _emit({"kind": "summary", "pass": ok, "criteria": len(records)})
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="contlogic",
        description="Workbench for computable continuous logic over metric structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    code = sub.add_parser("code", help="Goedel coding operations")
    code.add_argument("action", choices=["encode", "decode", "f", "g", "predicates"])
    code.add_argument("--formula", default="-", help="formula file or - for stdin")
    code.add_argument("--signature", default="metric", choices=sorted(F.PRESETS))
    code.add_argument("--code", type=_natural, help="decimal code")
    code.add_argument("--q", type=_natural, help="second code for g")
    code.add_argument("--n", type=_integer, default=0, help="constant exponent for f")
    code.set_defaults(func=_cmd_code)

    parse_cmd = sub.add_parser("parse", help="parse/print formulas")
    parse_cmd.add_argument("--formula", default="-")
    parse_cmd.add_argument("--signature", default="metric", choices=sorted(F.PRESETS))
    parse_cmd.add_argument("--prenex", action="store_true")
    parse_cmd.set_defaults(func=_cmd_parse)

    norm = sub.add_parser("norm", help="certified norm bounds")
    norm.add_argument("--matrix-index", type=_natural)
    norm.add_argument("--opnorm-power", type=_opnorm_power, default=6)
    norm.add_argument("--group", help="group config path")
    norm.add_argument("--element", help="group algebra element expression")
    norm.add_argument("--lambda-lower", type=_natural, default=0,
                      help="moment sweep depth for lambda-norm lower bounds")
    norm.add_argument("--precision", type=_natural, default=10)
    norm.set_defaults(func=_cmd_norm)

    ev = sub.add_parser("eval", help="evaluate a sentence over a presentation")
    ev.add_argument("--presentation", required=True, help="R, L, Cstar or C2w")
    ev.add_argument("--group", help="group config path for L/Cstar")
    ev.add_argument("--sentence", default="-", help="sentence file or - for stdin")
    ev.add_argument("--budget-points", type=_integer, default=8)
    ev.add_argument("--precision", type=_integer, default=10)
    ev.add_argument("--oracle-budget", type=_integer, default=None)
    ev.add_argument("--bind", action="append", help="cN=POINTINDEX", default=None)
    ev.set_defaults(func=_cmd_eval)

    cl = sub.add_parser("classify", help="value-set complexity labels")
    cl.add_argument("--code", type=_natural, help="sentence code")
    cl.add_argument("--prefix", type=_ascii, help="forallN / existsN / qf")
    cl.add_argument("--relation", required=True,
                    choices=["lt", "le", "gt", "ge", "<", "<=", ">", ">="])
    cl.add_argument("--n", type=_integer, default=0)
    cl.set_defaults(func=_cmd_classify)

    force = sub.add_parser("force", help="forcing games and checks")
    force.add_argument("action",
                       choices=["check-condition", "sup-leq", "game", "fp"])
    force.add_argument("--condition", type=_natural, help="pre-condition code")
    force.add_argument("--psi", default="-", help="formula file or - for stdin")
    force.add_argument("--bound", type=_ascii, default="1/2", help="dyadic bound, e.g. 1/2")
    force.add_argument("--budget", type=_natural, default=4)
    force.add_argument("--depth", type=_natural, default=2)
    force.add_argument("--rounds", type=_natural, default=4)
    force.add_argument("--seed", type=_integer, default=0)
    force.add_argument("--strategy-forall", default="random",
                       help="random | pass | pinning")
    force.add_argument("--strategy-exists", default="pinning",
                       help="random | pass | pinning")
    force.set_defaults(func=_cmd_force)

    st = sub.add_parser("selftest", help="run the acceptance suite")
    st.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except argparse.ArgumentError as exc:
        return _fail("usage", str(exc))
    except ParseError as exc:
        return _fail("parse-error", str(exc))
    except coding.NotACode as exc:
        return _fail("not-a-code", str(exc))
    except coding.BadItem as exc:
        return _fail("bad-item", str(exc))
    except (ContlogicError, ValueError, ZeroDivisionError, OSError) as exc:
        return _fail(type(exc).__name__.lower(), str(exc))
    except RecursionError:
        return _fail("too-deep", "input nests too deeply")


if __name__ == "__main__":
    sys.exit(main())

import json
import subprocess
import sys
import time

import pytest

from contlogic import cli
from contlogic.cli import main

GROUP_CFG = """\
backend: free_abelian
generators: u
"""


def run_cli(args, stdin_text="", capsys=None):
    import io
    from contextlib import redirect_stdout

    stdin_backup = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            status = main(args)
    finally:
        sys.stdin = stdin_backup
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    return status, lines


def test_code_roundtrip_via_cli():
    status, out = run_cli(
        ["code", "encode", "--signature", "metric"], "sup x . d(x, c1)"
    )
    assert status == 0
    code = out[0]["value"]
    status, out = run_cli(["code", "decode", "--code", code])
    assert status == 0
    assert out[0]["text"] == "sup x . d(x, c1)"


def test_code_f_builds_quarter_constant():
    status, out = run_cli(["code", "encode"], "d(c1, c2)")
    code = out[0]["value"]
    status, out = run_cli(["code", "f", "--code", code, "--n", "2"])
    assert status == 0
    status, out = run_cli(["code", "decode", "--code", out[0]["value"]])
    assert out[0]["text"] == "(d(c1, c2) -. half(half(1)))"


def test_code_predicates_record():
    status, out = run_cli(["code", "encode"], "d(c1, c2)")
    status, out = run_cli(["code", "predicates", "--code", out[0]["value"]])
    assert out[0]["is_sentence"] and out[0]["is_qf"]
    assert not out[0]["is_in_base_L"]


def test_parse_reports_errors_with_position():
    import io
    from contextlib import redirect_stderr

    err = io.StringIO()
    stdin_backup = sys.stdin
    sys.stdin = io.StringIO("d(x")
    try:
        with redirect_stderr(err):
            status = main(["parse"])
    finally:
        sys.stdin = stdin_backup
    assert status == 1
    record = json.loads(err.getvalue())
    assert record["error"] == "parse-error"
    assert "1:" in record["message"]


def test_norm_lambda_lower_record(tmp_path):
    cfg = tmp_path / "z.cfg"
    cfg.write_text(GROUP_CFG)
    status, out = run_cli(
        [
            "norm", "--group", str(cfg), "--element", "u + u^-1",
            "--lambda-lower", "5", "--precision", "12",
        ]
    )
    assert status == 0
    record = out[0]
    assert record["l1"] == "2"
    # the n=5 bound approximates 252^(1/10)
    best = record["lambda_lower"][4]
    num, den = map(int, best.split("/"))
    assert abs(num / den - 252.0 ** 0.1) < 2e-3


def test_classify_cli():
    status, out = run_cli(["classify", "--prefix", "forall2", "--relation", "le"])
    assert out[0]["label"] == "Π_1^d"
    status, out = run_cli(
        ["classify", "--prefix", "forall4", "--relation", "ge", "--n", "2"]
    )
    assert out[0]["label"] == "Π_3^d"


def test_eval_cli(tmp_path):
    cfg = tmp_path / "z.cfg"
    cfg.write_text(GROUP_CFG)
    status, out = run_cli(
        [
            "eval", "--presentation", "L", "--group", str(cfg),
            "--budget-points", "6", "--precision", "8",
        ],
        "sup x . tr_re(x)",
    )
    assert status == 0
    assert out[0]["certified_lower"] == "1"
    assert out[0]["certified_upper"] is None


def test_force_cli_examples():
    status, out = run_cli(["force", "sup-leq", "--bound", "0"], "d(x, x)")
    assert out[0]["verdict"] == "yes"
    status, out = run_cli(["force", "sup-leq", "--bound", "1/2"], "d(x, c1)")
    assert out[0]["verdict"] == "no"
    assert out[0]["witness"]


def test_force_game_deterministic():
    status1, out1 = run_cli(["force", "game", "--rounds", "4", "--seed", "5"])
    status2, out2 = run_cli(["force", "game", "--rounds", "4", "--seed", "5"])
    assert status1 == status2 == 0
    assert out1 == out2
    players = [r["player"] for r in out1 if r["kind"] == "move"]
    assert players == ["A", "E", "A", "E"]


def test_cli_entrypoint_subprocess():
    # the installed console script emits valid JSON lines
    proc = subprocess.run(
        [sys.executable, "-m", "contlogic.cli", "classify",
         "--prefix", "forall2", "--relation", "lt"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["label"] == "Σ_2^d"


def _typed_error(args, stdin_text=""):
    import io
    from contextlib import redirect_stderr, redirect_stdout

    stdin_backup = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            status = main(args)
    finally:
        sys.stdin = stdin_backup
    return status, out.getvalue(), err.getvalue().splitlines()


def test_non_confluent_rewriting_config_is_a_typed_error(tmp_path):
    cfg = tmp_path / "ab.cfg"
    cfg.write_text("backend: rewriting\ngenerators: a b\nrules:\nab -> ba\n")
    status, out, err = _typed_error(["norm", "--group", str(cfg), "--element", "a"])
    assert status == 1 and out == ""
    assert len(err) == 1
    record = json.loads(err[0])
    assert record["error"] == "notconfluent" and "'Aab'" in record["message"]


@pytest.mark.parametrize("value", ["\u0663", "+3", "-1", "1_000"])
def test_max_steps_outside_ascii_digits_is_a_typed_error(tmp_path, value):
    cfg = tmp_path / "steps.cfg"
    cfg.write_text(f"backend: rewriting\ngenerators: a\nmax_steps: {value}\n", encoding="utf-8")
    status, out, err = _typed_error(["norm", "--group", str(cfg), "--element", "a"])
    assert status == 1 and out == ""
    assert [json.loads(line) for line in err] == [{
        "error": "grouperror",
        "message": f"max_steps must be ASCII decimal digits, got {value!r}"}]


def test_torus_failure_is_a_typed_error(tmp_path, monkeypatch):
    from contlogic import presentations
    from contlogic.torus import TorusBoundFailure

    def fail(support, k):
        raise TorusBoundFailure("box budget exhausted")

    monkeypatch.setattr(presentations, "torus_sup_norm", fail)
    cfg = tmp_path / "z.cfg"
    cfg.write_text(GROUP_CFG)
    status, out, err = _typed_error(
        ["eval", "--presentation", "Cstar", "--group", str(cfg),
         "--budget-points", "2", "--precision", "2", "--bind", "c1=1"],
        "d(c1, adj(c1))",
    )
    assert status == 1 and out == ""
    assert len(err) == 1
    assert json.loads(err[0]) == {
        "error": "torusboundfailure", "message": "box budget exhausted"
    }


def test_matrix_error_is_a_typed_error(monkeypatch):
    from contlogic import matrices

    def fail(a, k):
        raise matrices.ZeroVector("zero vector")

    monkeypatch.setattr(matrices, "two_norm", fail)
    status, out, err = _typed_error(["norm", "--matrix-index", "3"])
    assert status == 1 and out == ""
    assert len(err) == 1
    assert json.loads(err[0]) == {"error": "zerovector", "message": "zero vector"}


def test_negative_trace_is_a_typed_error(monkeypatch):
    from contlogic import matrices

    monkeypatch.setattr(matrices, "_frobenius_sq", lambda re, im: -1)
    status, out, err = _typed_error(["norm", "--matrix-index", "3"])
    assert status == 1 and out == ""
    assert len(err) == 1
    assert json.loads(err[0]) == {
        "error": "negativetrace", "message": "tr((A*A)^1) came out negative"
    }


def test_complex_moment_is_a_typed_error(tmp_path, monkeypatch):
    from contlogic import groups

    monkeypatch.setattr(groups, "_pair_trace", lambda spec, x, y: (0, 1))
    cfg = tmp_path / "z.cfg"
    cfg.write_text(GROUP_CFG)
    status, out, err = _typed_error(
        ["norm", "--group", str(cfg), "--element", "u + 1", "--lambda-lower", "2"])
    assert status == 1 and out == ""
    assert len(err) == 1
    assert json.loads(err[0]) == {
        "error": "complexmoment", "message": "moment of a positive element must be real"
    }


def test_element_zero_denominator_is_a_parse_error(tmp_path):
    cfg = tmp_path / "z.cfg"
    cfg.write_text(GROUP_CFG)
    for text in ("1/0*u", "(1/0)*u", "(1+1/0i)*u"):
        status, out, err = _typed_error(["norm", "--group", str(cfg), "--element", text])
        assert status == 1 and out == ""
        assert len(err) == 1
        record = json.loads(err[0])
        assert record["error"] == "parse-error"
        assert "zero denominator" in record["message"]


def test_deep_nesting_is_a_typed_error():
    status, out, err = _typed_error(["parse"], "half(" * 600 + "1" + ")" * 600)
    assert status == 1 and out == ""
    assert len(err) == 1
    assert json.loads(err[0]) == {"error": "too-deep", "message": "input nests too deeply"}
    status, out, err = _typed_error(["parse"], "half(" * 50 + "1" + ")" * 50)
    assert status == 0 and err == []


def test_unbounded_phase_one_is_a_typed_error(monkeypatch):
    from fractions import Fraction

    from contlogic import feasibility, forcing
    from contlogic.formulas import METRIC
    from contlogic.parser import parse_formula

    def unbounded(*args):
        raise feasibility._Unbounded()

    monkeypatch.setattr(feasibility, "_run_simplex", unbounded)
    # 1 -. d(c1, c2) < 1/2 puts a row with a negative right-hand side in
    # the margin LP, so its first solve runs phase 1
    item = (parse_formula("1 -. d(c1, c2)", METRIC), Fraction(1, 2))
    code = forcing.Condition.of([item]).code()
    status, out, err = _typed_error(["force", "check-condition", "--condition", str(code)])
    assert status == 1 and out == ""
    assert len(err) == 1
    assert json.loads(err[0]) == {
        "error": "phaseoneunbounded", "message": "phase 1 cannot be unbounded"
    }


def test_rewriting_exponent_beyond_the_budget_is_a_typed_error(tmp_path):
    cfg = tmp_path / "z4.cfg"
    cfg.write_text("backend: rewriting\ngenerators: a\nrules:\naaaa ->\nA -> aaa\n")
    status, out, err = _typed_error(
        ["norm", "--group", str(cfg), "--element", "a^1000000000000"])
    assert status == 1 and out == ""
    assert len(err) == 1
    assert json.loads(err[0]) == {
        "error": "rewritingdiverged",
        "message": "a word of 1000000000000 letters exceeds the 10000-step budget",
    }
    status, out, err = _typed_error(["norm", "--group", str(cfg), "--element", "a^10000"])
    assert status == 0 and err == []


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_oracle_budget_below_one_is_a_typed_error(tmp_path, budget):
    cfg = tmp_path / "f2.cfg"
    cfg.write_text("backend: free\ngenerators: u v\n")
    status, out, err = _typed_error(
        ["eval", "--presentation", "Cstar", "--group", str(cfg),
         "--budget-points", "3", "--oracle-budget", budget],
        "sup x . d(x, c1)")
    assert status == 1 and out == ""
    assert len(err) == 1
    assert json.loads(err[0]) == {
        "error": "valueerror", "message": f"oracle budget must be >= 1, got {budget}"
    }


def test_moment_power_past_the_size_rule_is_a_typed_error(tmp_path):
    # the j-th power of a* a has 2^(2j+1) - 1 words: order 22 needs 2^23 - 1
    cfg = tmp_path / "f2.cfg"
    cfg.write_text("backend: free\ngenerators: u v\n")
    start = time.perf_counter()
    status, out, err = _typed_error(
        ["norm", "--group", str(cfg), "--element", "u*v + v + u",
         "--lambda-lower", "22", "--precision", "4"])
    assert time.perf_counter() - start < 1
    assert status == 1 and out == ""
    assert [json.loads(line) for line in err] == [{
        "error": "momenttoolarge", "message": "power 6 of a* a has more than 4096 words"}]
    status, out, err = _typed_error(
        ["norm", "--group", str(cfg), "--element", "u*v + v + u", "--lambda-lower", "10"])
    assert status == 0 and err == []


def test_moment_order_above_the_cap_is_a_typed_error(tmp_path):
    from contlogic.groups import MOMENT_ORDER_MAX

    cfg = tmp_path / "z.cfg"
    cfg.write_text(GROUP_CFG)
    args = ["norm", "--group", str(cfg), "--element", "u + 1", "--lambda-lower"]
    status, out, err = _typed_error(args + [str(MOMENT_ORDER_MAX + 1)])
    assert status == 1 and out == ""
    assert [json.loads(line) for line in err] == [{
        "error": "momenttoolarge",
        "message": f"expected a moment order of at most {MOMENT_ORDER_MAX}, "
                   f"got {MOMENT_ORDER_MAX + 1}"}]
    status, out, err = _typed_error(args + [str(MOMENT_ORDER_MAX)])
    assert status == 0 and err == []
    assert len(json.loads(out)["lambda_lower"]) == MOMENT_ORDER_MAX


def test_oracle_budget_above_the_moment_cap_is_a_typed_error(tmp_path):
    from contlogic.groups import MOMENT_ORDER_MAX

    cfg = tmp_path / "f2.cfg"
    cfg.write_text("backend: free\ngenerators: u v\n")
    status, out, err = _typed_error(
        ["eval", "--presentation", "Cstar", "--group", str(cfg), "--budget-points", "3",
         "--bind", "c1=20", "--oracle-budget", str(MOMENT_ORDER_MAX + 1)],
        "sup x . d(x, c1)")
    assert status == 1 and out == ""
    assert [json.loads(line) for line in err] == [{
        "error": "momenttoolarge",
        "message": f"expected a moment order of at most {MOMENT_ORDER_MAX}, "
                   f"got {MOMENT_ORDER_MAX + 1}"}]


def test_force_strategy_flags_take_every_strategy(capsys):
    with pytest.raises(SystemExit):
        main(["force", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    for flag in ("--strategy-forall", "--strategy-exists"):
        metavar = flag[2:].upper().replace("-", "_")
        assert f"{flag} {metavar} random | pass | pinning" in help_text
    for forall, exists in (("pinning", "random"), ("pass", "pass")):
        status, out = run_cli(["force", "game", "--rounds", "2",
                               "--strategy-forall", forall, "--strategy-exists", exists])
        assert status == 0 and [r["player"] for r in out if r["kind"] == "move"] == ["A", "E"]
    status, out, err = _typed_error(["force", "game", "--strategy-exists", "greedy"])
    assert status == 1 and out == ""
    assert json.loads(err[0]) == {"error": "usage", "message": "unknown strategy 'greedy'"}


@pytest.mark.parametrize("args, kind", [
    (["code", "decode"], "usage"),
    (["code", "f"], "usage"),
    (["code", "predicates"], "usage"),
    (["code", "g", "--code", "5"], "usage"),
    (["force", "check-condition"], "usage"),
    (["eval", "--presentation", "R", "--sentence", "{tmp}"], "isadirectoryerror"),
    (["norm", "--group", "{tmp}/absent.cfg", "--element", "u"], "filenotfounderror"),
    (["force", "sup-leq", "--bound", "1/0"], "zerodivisionerror"),
    # argparse's own errors, negative counts included
    (["eval"], "usage"),
    (["force", "game", "--rounds", "x"], "usage"),
    (["code", "bogus"], "usage"),
    (["parse", "--unknown"], "usage"),
    ([], "usage"),
    (["force", "game", "--rounds", "-1"], "usage"),
    (["force", "fp", "--depth", "-1"], "usage"),
    (["force", "sup-leq", "--budget", "-2"], "usage"),
    (["norm", "--matrix-index", "-1"], "usage"),
    (["norm", "--matrix-index", "3", "--opnorm-power", "-1"], "usage"),
    (["norm", "--group", "{tmp}/absent.cfg", "--element", "u", "--lambda-lower", "-1"], "usage"),
    # past OPNORM_POWER_MAX the grid root would run until memory runs out
    (["norm", "--matrix-index", "23", "--opnorm-power", "17"], "usage"),
    # past MATRIX_SIZE_LOG_MAX decoding the entries alone grows 4x per size doubling
    (["norm", "--matrix-index", "127"], "matrixtoolarge"),
    (["norm", "--matrix-index", "1048575"], "matrixtoolarge"),
    # naturals are ASCII digits: int() would read the Arabic-Indic 3 as 3
    (["eval", "--presentation", "R", "--bind", "c1=\u0663"], "usage"),
    (["eval", "--presentation", "R", "--bind", "c\u0663=4"], "usage"),
    (["eval", "--presentation", "R", "--bind", "c=3"], "usage"),
    (["code", "decode", "--code", "\u0663"], "usage"),
    (["code", "g", "--code", "5", "--q", "-3"], "usage"),
    (["classify", "--code", "\u0663", "--relation", "lt"], "usage"),
    (["classify", "--n", "\u0662", "--prefix", "forall2", "--relation", "lt"], "usage"),
    (["classify", "--prefix", "forall\u0662", "--relation", "lt"], "usage"),
    (["code", "f", "--code", "3", "--n", "\u0662"], "usage"),
    (["force", "check-condition", "--condition", "\u0663"], "usage"),
    (["force", "sup-leq", "--bound", "\u0663/\u0664"], "usage"),
    (["force", "game", "--seed", "\u0663"], "usage"),
    (["eval", "--presentation", "R", "--budget-points", "\u0662"], "usage"),
    (["eval", "--presentation", "R", "--precision", "\u0662"], "usage"),
    (["eval", "--presentation", "R", "--oracle-budget", "\u0662"], "usage"),
    # code 0 is decoded and refused, not read as the empty condition
    (["force", "check-condition", "--condition", "0"], "not-a-code"),
    (["force", "sup-leq", "--condition", "0"], "not-a-code"),
    (["force", "fp", "--condition", "0"], "not-a-code"),
])
def test_bad_invocations_are_typed_errors(tmp_path, args, kind):
    args = [a.format(tmp=tmp_path) for a in args]
    status, out, err = _typed_error(args, "d(x, c1)")
    assert status == 1 and out == ""
    assert len(err) == 1
    assert json.loads(err[0])["error"] == kind


def test_matrix_index_names_its_size_limit():
    # 63 + 1 = 2^6: the largest size, 64, is accepted
    status, out = run_cli(["norm", "--matrix-index", "63"])
    assert status == 0 and out[0]["size"] == 64
    status, out, err = _typed_error(["norm", "--matrix-index", str(2**20 * 3 - 1)])
    assert status == 1 and out == ""
    assert [json.loads(line) for line in err] == [{
        "error": "matrixtoolarge",
        "message": "expected a matrix of size at most 64, got size 2^20"}]


@pytest.mark.parametrize("presentation, index, kind, message", [
    # 4 * pair(0, 127): the first special point past 64 x 64
    ("R", 33020, "matrixtoolarge", "expected a matrix of size at most 64, got size 2^7"),
    ("R", 1187328, "matrixtoolarge", "expected a matrix of size at most 64, got size 2^8"),
    ("R", 4733952, "matrixtoolarge", "expected a matrix of size at most 64, got size 2^9"),
    ("R", 18905088, "matrixtoolarge", "expected a matrix of size at most 64, got size 2^10"),
    # 4 * (2^13 - 1): the first special point past depth 12
    ("C2w", 32764, "presentationerror", "expected a function of depth at most 12, got depth 13"),
    ("C2w", 3145724, "presentationerror", "expected a function of depth at most 12, got depth 18"),
])
def test_special_points_past_the_size_rule_are_refused(presentation, index, kind, message):
    start = time.perf_counter()
    status, out, err = _typed_error(
        ["eval", "--presentation", presentation, "--bind", f"c1={index}"], "d(c1, c1)")
    assert time.perf_counter() - start < 1
    assert status == 1 and out == ""
    assert [json.loads(line) for line in err] == [{"error": kind, "message": message}]


@pytest.mark.parametrize("presentation, index", [("R", 33016), ("C2w", 32760)])
def test_special_points_below_the_size_rule_evaluate(presentation, index):
    status, out = run_cli(["eval", "--presentation", presentation, "--bind", f"c1={index}"],
                          "d(c1, c1)")
    assert status == 0 and out[0]["certified_upper"] == "0"


def test_repeated_generators_are_a_typed_error(tmp_path):
    # the free group numbered element 126 past its reduced words: an IndexError
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("backend: free\ngenerators: a a\n")
    status, out, err = _typed_error(
        ["eval", "--presentation", "L", "--group", str(cfg), "--bind", "c1=504"], "d(c1, c1)")
    assert status == 1 and out == ""
    assert [json.loads(line) for line in err] == [{
        "error": "grouperror", "message": "repeated generators in 'a a'"}]


def test_negative_norm_precision_is_a_usage_error():
    status, out, err = _typed_error(["norm", "--matrix-index", "3", "--precision", "-2"])
    assert status == 1 and out == ""
    assert [json.loads(line) for line in err] == [{
        "error": "usage",
        "message": "argument --precision: expected a natural number, got '-2'"}]


def test_zero_rounds_is_the_empty_game():
    status, out = run_cli(["force", "game", "--rounds", "0"])
    assert status == 0
    assert out == [{"constants": [], "distances": {}, "kind": "compiled", "schema": 1}]


def test_force_game_that_fails_prints_no_partial_transcript():
    # at 28 rounds (seed 0) the last move's condition code passes Python's
    # 4,300-digit limit on int -> str, which is refused before any record is
    # printed; at 27 the longest has 3,885 digits
    status, out = run_cli(["force", "game", "--rounds", "27"])
    assert status == 0 and len(out) == 28
    status, out, err = _typed_error(["force", "game", "--rounds", "28"])
    assert status == 1 and out == ""
    assert len(err) == 1 and json.loads(err[0])["error"] == "codetoolarge"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="the interpreter has no limit on int -> str")
def test_code_past_the_str_limit_is_a_typed_error():
    # at 1/10,000 the code has 20,272 bits (6,103 digits): refused before
    # `str`, with its bit length and the limit; 1/5,000 still prints
    formula = "d(comb(1/{}, c1, 0, c2), c1)"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the default
    try:
        status, out, err = _typed_error(["code", "encode", "--signature", "cstar"],
                                        formula.format(10000))
        assert status == 1 and out == ""
        assert [json.loads(line) for line in err] == [{
            "error": "codetoolarge",
            "message": "the code has 20272 bits, more than the 4300 decimal digits "
                       "this interpreter prints"}]
        status, out = run_cli(["code", "encode", "--signature", "cstar"], formula.format(5000))
        assert status == 0 and len(out) == 1 and out[0]["value"].isdigit()
        # the limit itself: 4,300 digits print, 4,301 are refused
        assert cli._code(10**4300 - 1) == "9" * 4300
        with pytest.raises(cli.CodeTooLarge):
            cli._code(10**4300)
    finally:
        sys.set_int_max_str_digits(limit)

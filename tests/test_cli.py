import json
import subprocess
import sys
import time

import pytest

from contlogic import cli
from contlogic import evaluator as E
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


@pytest.mark.parametrize("prefix", [
    "forall0", "exists0", "exists-1", "forall 2", "forall+3", "forall3_0", "forall",
])
def test_classify_refuses_text_that_is_not_a_prefix_class(prefix):
    status, out, err = _typed_error(["classify", "--prefix", prefix, "--relation", "le",
                                     "--n", "2"])
    assert status == 1 and out == ""
    assert [json.loads(line) for line in err] == [
        {"error": "usage", "message": f"bad prefix {prefix!r}"}]


@pytest.mark.parametrize("args, label", [
    (["--prefix", "qf", "--n", "1"], "Π_1^d"),
    (["--prefix", "forall2"], "Π_1^d"),
    (["--prefix", "exists3", "--n", "2"], "Π_2^d"),
    (["--prefix", "exists1"], "Π_1^d"),
])
def test_classify_reads_each_prefix_class(args, label):
    status, out = run_cli(["classify", *args, "--relation", "le"])
    assert status == 0 and out[0]["label"] == label


@pytest.mark.parametrize("text, code, prefix, prenex_class", [
    ("sup x . inf y . d(x, y)", "575641102631035154604166919937972912721597887365044738",
     "forall2", "forall2"),
    ("inf x . inf y . d(x, y)", "575641285318739820967031695398577002256975344356612610",
     "exists1", "exists1"),
    ("d(c1, c2)", "14311144205904985262408", "qf", "qf"),
    ("1 -. sup x . d(x, c1)", "140520206981826526736244838538539486482348462565585",
     None, "exists1"),
])
def test_prefix_classes_print_as_their_text(text, code, prefix, prenex_class):
    status, out = run_cli(["code", "encode"], text)
    assert status == 0 and out[0]["value"] == code
    status, out = run_cli(["code", "predicates", "--code", code])
    assert status == 0 and out[0]["prefix"] == prefix
    status, out = run_cli(["parse", "--prenex"], text)
    assert status == 0 and out[0]["prefix_class"] == prenex_class


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


def test_table_entry_outside_the_elements_is_a_typed_error(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("backend: table\nelements: e a\nidentity: e\ntable:\ne a\na x\n")
    status, out, err = _typed_error(["norm", "--group", str(cfg), "--element", "a"])
    assert status == 1 and out == ""
    assert [json.loads(line) for line in err] == [{
        "error": "grouperror", "message": "table entry 'x' not among elements"}]


def test_unknown_presentation_is_a_usage_line_naming_the_choices():
    status, out, err = _typed_error(["eval", "--presentation", "X"], "d(c1, c1)")
    assert status == 1 and out == ""
    assert [json.loads(line) for line in err] == [{
        "error": "usage",
        "message": "argument --presentation: invalid choice: 'X' "
                   "(choose from 'R', 'L', 'Cstar', 'C2w')"}]


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
        assert f"{flag} {{pass,pinning,random}}" in help_text
    for forall, exists in (("pinning", "random"), ("pass", "pass")):
        status, out = run_cli(["force", "game", "--rounds", "2",
                               "--strategy-forall", forall, "--strategy-exists", exists])
        assert status == 0 and [r["player"] for r in out if r["kind"] == "move"] == ["A", "E"]
    status, out, err = _typed_error(["force", "game", "--strategy-exists", "greedy"])
    assert status == 1 and out == ""
    assert json.loads(err[0]) == {
        "error": "usage",
        "message": "argument --strategy-exists: invalid choice: 'greedy' "
                   "(choose from 'pass', 'pinning', 'random')"}


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
    # past PARTS_MAX entries decoding the entries alone grows 4x per size doubling
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


def _one_error_line(args, stdin_text=""):
    start = time.perf_counter()
    status, out, err = _typed_error(args, stdin_text)
    assert time.perf_counter() - start < 1
    assert status == 1 and out == "" and len(err) == 1
    return json.loads(err[0])


def test_pre_condition_item_over_cstar_is_a_bad_item():
    from contlogic import coding, formulas as F
    from contlogic.pairing import encode_list

    def condition(k, e):
        body = encode_list([coding.pair(k, coding.pair(0, e))], coding.pair)
        return str(coding.pair(1, body))

    k = coding.encode(F.Atomic("d", (F.CConst(1), F.CConst(2))), F.CSTAR)
    record = _one_error_line(["force", "check-condition", "--condition", condition(k, 1)])
    assert record["error"] == "bad-item"
    # d(c1, c2) < 2^-(10^12): refused before 2^(10^12) is formed
    k = coding.encode(F.Atomic("d", (F.CConst(1), F.CConst(2))), F.METRIC)
    assert condition(k, 10**12) == "15328813879317886467761841776595965394491582917735227401"
    record = _one_error_line(["force", "check-condition", "--condition", condition(k, 10**12)])
    assert record == {"error": "bad-item",
                      "message": "bound exponent 1000000000000 exceeds 1048576"}
    status, out = run_cli(["force", "check-condition", "--condition", condition(k, 10**6)])
    assert status == 0 and out[0]["is_condition"]


def test_rewriting_word_past_the_numbering_cap_is_a_typed_error(tmp_path):
    # F2 by rewriting: the binding's word index lies far past 4,096 normal forms
    cfg = tmp_path / "f2.cfg"
    cfg.write_text("backend: rewriting\ngenerators: a b\n")
    for index in ("50001000015000100004", "5000001000000150000010000004"):
        record = _one_error_line(["eval", "--presentation", "L", "--group", str(cfg),
                                  "--bind", f"c1={index}"], "d(c1, c1)")
        assert record == {"error": "numberingtoolarge",
                          "message": "a rewriting group numbers only its first 4096 normal forms"}


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="the interpreter has no limit on int -> str")
def test_code_f_past_the_str_limit_is_refused_before_it_is_built():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the default: n above 17,200 is refused
    try:
        status, out = run_cli(["code", "encode"], "d(c1, c2)")
        code = out[0]["value"]
        record = _one_error_line(["code", "f", "--code", code, "--n", "20000"])
        assert record == {
            "error": "codetoolarge",
            "message": "the code of f with n = 20000 has more than 20000 bits, more than "
                       "the 4300 decimal digits this interpreter prints"}
        status, out = run_cli(["code", "f", "--code", code, "--n", "2"])
        assert status == 0 and len(out) == 1
    finally:
        sys.set_int_max_str_digits(limit)


def test_code_f_is_refused_by_the_growth_of_its_code(monkeypatch):
    # Half^n(One) grows by 3 + 2 * bitlen(L) bits a step from L = 6: at 4,300
    # digits every n >= 505 could never print, and is refused unbuilt
    from contlogic import coding

    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        status, out = run_cli(["code", "encode"], "d(c1, c2)")
        code = out[0]["value"]
        status, out = run_cli(["code", "f", "--code", code, "--n", "499"])
        assert status == 0 and len(out) == 1 and len(out[0]["value"]) <= 4300

        def unbuilt(p, n):
            raise AssertionError(f"coding_f was called with n = {n}")

        monkeypatch.setattr(coding, "coding_f", unbuilt)
        for n in ("505", "1000000000000"):
            record = _one_error_line(["code", "f", "--code", code, "--n", n])
            assert record["error"] == "codetoolarge", record
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("code", [
    # d(c1, x) with a variable named c1: it would read back as the constant c1
    "30536847579297034844599167277565",
    # sup half . d(half, c1) and, over cstar, inf x . d(adj, x): no formula at all
    "1179044677147390799217523626724135968588757412795632427215",
    "14618259748763783033238813236329735013625606756863",
])
def test_code_decode_refuses_a_formula_its_text_would_not_read_back_as(code):
    record = _one_error_line(["code", "decode", "--code", code])
    assert record["error"] == "formulaerror", record


def test_code_decode_prints_text_that_reads_back():
    status, out = run_cli(["code", "encode"], "d(x, c1) -. half(1)")
    status, out = run_cli(["code", "decode", "--code", out[0]["value"]])
    assert status == 0 and out[0]["text"] == "(d(x, c1) -. half(1))"


def test_force_budget_is_capped():
    # fp's bounds carry budget bits, and sup-leq solves at r + 2^-budget
    for action in ("fp", "sup-leq"):
        record = _one_error_line(["force", action, "--budget", str(cli.FORCE_BUDGET_MAX + 1)],
                                 "sup x . d(x, c1)")
        assert record == {"error": "usage", "message": "argument --budget: expected at most "
                          f"{cli.FORCE_BUDGET_MAX}, got {cli.FORCE_BUDGET_MAX + 1}"}
    status, out = run_cli(["force", "sup-leq", "--budget", str(cli.FORCE_BUDGET_MAX)],
                          "d(x, c1)")
    assert status == 0 and out[0]["verdict"] == "no"


@pytest.mark.parametrize("bound", ["1e-10000000", "1e400", "5.", "1/2.5", " 1/2", "0x10"])
def test_force_bound_is_a_fraction_or_a_decimal(bound):
    # Fraction() would build 10^10000000 for the first
    record = _one_error_line(["force", "sup-leq", "--bound", bound], "d(x, c1)")
    assert record["error"] == "usage", record


@pytest.mark.parametrize("bound, verdict, witness", [
    ("1/2", "no", "9/16"), ("0.5", "no", "9/16"), ("0", "no", "1/16"), ("1", "yes", None),
    ("-1/2", "no", "0"), ("-.5", "no", "0"),
])
def test_force_bound_forms_still_answer(bound, verdict, witness):
    status, out = run_cli(["force", "sup-leq", f"--bound={bound}"], "d(x, c1)")
    assert status == 0 and out[0]["verdict"] == verdict
    assert out[0]["witness"] == ({"d_1_2": witness} if witness else {})


def test_a_sweep_past_the_leaf_cap_is_refused():
    # 1,000^3 leaves would take about 1,000 s; the refusal comes before any
    # object is built, and a huge point count is never raised to its power
    cap = E.SWEEP_LEAVES_MAX
    for points, text in (("1000", "sup x . inf y . sup z . d(x, y)"),
                         (str(10 ** 100), "sup x . inf y . d(x, y)"),
                         (str(cap + 1), "sup x . d(x, c1)")):
        record = _one_error_line(["eval", "--presentation", "C2w", "--budget-points", points],
                                 text)
        quantifiers = text.count(".")
        assert record == {"error": "sweeptoolarge", "message": f"{points} points over "
                          f"{quantifiers} quantifiers sweep more than {cap} leaves"}


def test_a_long_matrix_under_the_leaf_cap_is_refused_by_its_work():
    # 200^3 = 8,000,000 leaves pass the leaf cap, but each runs 61 atoms and
    # connectives: at about 0.3 us each that sweep would take about 2 minutes
    chain = "d(x, y)"
    for _ in range(20):
        chain = f"half({chain} -. d(y, z))"
    cap = E.SWEEP_LEAVES_MAX
    assert 200 ** 3 < cap
    record = _one_error_line(["eval", "--presentation", "C2w", "--budget-points", "200"],
                             f"sup x . inf y . sup z . {chain}")
    assert record == {"error": "sweeptoolarge", "message": "200 points over 3 quantifiers "
                      f"sweep more than {cap // 61} leaves of a matrix of 61 atoms and connectives"}


def test_parse_prints_the_scalars_of_a_comb_term():
    # each scalar prints as re+imi (`GaussianRational.__str__`), through
    # `parse` and through `code decode`, and reads back to the same formula
    text = "sup x . sup y . d(comb(1/2+0i, x, -1/3-1/4i, adj(y)), c1)"
    status, out = run_cli(["parse", "--signature", "cstar"], text)
    assert status == 0 and out[0]["text"] == text
    status, out = run_cli(["code", "encode", "--signature", "cstar"], text)
    status, out = run_cli(["code", "decode", "--code", out[0]["value"]])
    assert status == 0 and out[0]["text"] == text


def test_precision_is_capped():
    # at k = 10^6 a norm ran 3.7 s into a bound that `str` refuses; at the cap
    # both commands answer at once
    for args, text in ((["norm", "--matrix-index", "5"], ""),
                       (["eval", "--presentation", "C2w", "--bind", "c1=20"],
                        "sup x . d(x, c1)")):
        record = _one_error_line([*args, "--precision", str(cli.PRECISION_MAX + 1)], text)
        assert record == {"error": "usage", "message": "argument --precision: expected at most "
                          f"{cli.PRECISION_MAX}, got {cli.PRECISION_MAX + 1}"}
        start = time.perf_counter()
        status, out = run_cli([*args, "--precision", str(cli.PRECISION_MAX)], text)
        assert time.perf_counter() - start < 1
        assert status == 0 and len(out) == 1
    # a negative eval precision was a `valueerror` from the budget
    record = _one_error_line(["eval", "--presentation", "C2w", "--precision", "-1"], "d(c1, c1)")
    assert record == {"error": "usage",
                      "message": "argument --precision: expected a natural number, got '-1'"}

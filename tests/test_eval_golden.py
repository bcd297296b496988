"""Golden sha256 of `contlogic eval` stdout over all five presentations.

For each of R, L(F2), C2w, Cstar(F2) and Cstar(Z), a fixed list of sentences
runs through the CLI entry point with fixed budgets and constant bindings;
the stdout lines of each presentation are hashed together.  The sentences
repeat atoms, hold closed compound terms and use up to three quantifiers, so
the digests pin the evaluator's intervals, estimates, witnesses and slack.
The goldens in tests/golden/eval.sha256 were captured before the evaluator
learned to compute each node once per assignment of its own variables.

Run this file as a script to print the current digests.
"""

import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from contlogic.cli import main

GOLDEN = Path(__file__).parent / "golden" / "eval.sha256"

GROUPS = {
    "F2": "backend: free\ngenerators: u v\n",
    "Z": "backend: free_abelian\ngenerators: u\n",
}

# (presentation flag, group config or None, precision)
PRESENTATIONS = {
    "R": ("R", None, 6),
    "L-F2": ("L", "F2", 6),
    "C2w": ("C2w", None, 6),
    "Cstar-F2": ("Cstar", "F2", 4),
    "Cstar-Z": ("Cstar", "Z", 2),
}

# (sentence, points per quantifier); most low-numbered points are 0, and
# the first nonzero ones sit at 4, 8, 17, 20 and 32 depending on the
# presentation, so the sweeps reach them
SENTENCES = [
    ("d(c1, c2)", 1),
    ("d(mul(c1, c2), adj(c1)) -. half(d(mul(c1, c2), c2))", 1),
    ("sup x . d(x, c1)", 24),
    ("inf x . d(mul(x, c1), mul(c1, c2))", 24),
    ("sup x . sup y . (d(x, c1) -. d(y, c1))", 9),
    ("sup x . inf y . (d(x, y) -. half(d(mul(c1, c2), c1)))", 9),
    ("(sup x . d(x, c1)) -. (inf y . d(adj(y), c2))", 9),
    ("half(sup x . d(mul(x, x), comb(1/2+0i, x, 0+1/2i, c2)))", 24),
    ("inf x . sup y . inf z . (d(x, y) -. d(comb(1/2+0i, y, 0-1/2i, z), c2))", 5),
    ("sup x . inf y . sup z . (d(mul(x, z), c1) -. half(d(y, adj(c2))))", 5),
]

TRACIAL = [
    ("sup x . (tr_re(mul(x, adj(x))) -. tr_im(c1))", 24),
    ("inf x . sup y . (tr_re(mul(x, y)) -. half(tr_re(mul(c1, c2))))", 9),
]

OPTIONS = ["--bind", "c1=20", "--bind", "c2=32", "--oracle-budget", "2"]


def _eval_stdout(argv: list[str], sentence: str) -> str:
    stdin = sys.stdin
    sys.stdin = io.StringIO(sentence)
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            status = main(argv)
    finally:
        sys.stdin = stdin
    assert status == 0, (argv, sentence)
    return out.getvalue()


def digest(name: str) -> str:
    flag, group, precision = PRESENTATIONS[name]
    sentences = SENTENCES + (TRACIAL if flag in ("R", "L") else [])
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["eval", "--presentation", flag, "--precision", str(precision)] + OPTIONS
        if group:
            cfg = Path(tmp) / "group.cfg"
            cfg.write_text(GROUPS[group])
            argv += ["--group", str(cfg)]
        for sentence, points in sentences:
            h.update(_eval_stdout(argv + ["--budget-points", str(points)], sentence).encode())
    return h.hexdigest()


def _goldens() -> dict[str, str]:
    return dict(line.split() for line in GOLDEN.read_text().splitlines())


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_eval_matches_golden(name):
    assert digest(name) == _goldens()[name]


if __name__ == "__main__":
    for name in sorted(PRESENTATIONS):
        print(name, digest(name))

"""Acceptance suite: every criterion at its stated tolerance.

Criteria 1-8 call the shared implementations in contlogic.selftest (each
encodes its tolerances exactly); criterion 9 runs the installed CLI twice,
the second time under `python -O`, and compares raw bytes, with each other
and with the golden sha256 in tests/golden/.  One line per criterion is
printed so a failing run names its criterion directly.  The goldens also pin the stdout of 8-round forcing
games, whose compiled distances depend on the exact LP vertices.
"""

import hashlib
import subprocess
import sys
import time
from pathlib import Path

import pytest

from contlogic import selftest

GOLDEN = Path(__file__).parent / "golden"

_TIME_BUDGETS = {
    1: 5.0,    # Goedel coding round trips
    2: 2.0,    # code-transformer identities
    3: 30.0,   # integer-group moments
    4: 120.0,  # free-group walk moments
    5: 30.0,   # torus upgrade
    6: 120.0,  # matrix bounds
    7: 60.0,   # evaluator soundness
    8: 120.0,  # forcing instance
}


@pytest.mark.parametrize(
    "criterion",
    selftest.CRITERIA,
    ids=[f"criterion-{i}" for i in range(1, len(selftest.CRITERIA) + 1)],
)
def test_acceptance_criterion(criterion):
    start = time.monotonic()
    record = criterion()
    elapsed = time.monotonic() - start
    label = f"criterion {record['criterion']} ({record['name']})"
    status = "PASS" if record["pass"] else "FAIL"
    print(f"{label}: {status} in {elapsed:.1f}s  {record['detail']}")
    assert record["pass"], f"{label} failed: {record['detail']}"
    budget = _TIME_BUDGETS[record["criterion"]]
    assert elapsed < budget, f"{label} exceeded its {budget}s runtime budget"


def test_acceptance_criterion_9_determinism():
    start = time.monotonic()
    runs = []
    # the second run strips asserts, so no check may rely on them
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "contlogic.cli", "selftest"],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        runs.append(proc.stdout)
    elapsed = time.monotonic() - start
    identical = runs[0] == runs[1]
    golden = (GOLDEN / "selftest.sha256").read_text().strip()
    matches = hashlib.sha256(runs[0]).hexdigest() == golden
    status = "PASS" if identical and matches else "FAIL"
    print(f"criterion 9 (determinism): {status} in {elapsed:.1f}s")
    assert identical, "selftest output differs between runs"
    assert matches, "selftest output differs from tests/golden/selftest.sha256"


def _game_goldens():
    lines = (GOLDEN / "force_game_rounds8.sha256").read_text().splitlines()
    return [tuple(line.split()) for line in lines]


@pytest.mark.parametrize("seed,golden", _game_goldens())
def test_force_game_matches_golden(seed, golden):
    proc = subprocess.run(
        [sys.executable, "-m", "contlogic.cli", "force", "game",
         "--rounds", "8", "--seed", seed],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == golden

"""The count tools in tools/ rebind package internals by name, so a rename in
`src` can break them without breaking any other test: run each on a few
benchmark jobs and check that it finishes with one JSON report and no failed
job.  The same goes for the reach probe and the digest tool."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, jobs", [("kernel_counts.py", 14), ("lp_counts.py", 20)])
def test_count_tool_runs(script, jobs):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / script), "--jobs", str(jobs)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["jobs"] == jobs
    if script == "kernel_counts.py":
        for workload in ("norms", "queries", "games"):
            assert report[workload]["failed_jobs"] == 0, workload
        roots = [*report["norms"]["grid_roots"].values(), report["queries"]["grid_roots"]["all"]]
        assert report["norms"]["grid_roots"].keys() == report["norms"]["job_ms"].keys()
        # the first 14 queries jobs hold every kind: nine eval kinds, sup_leq and fp
        queries_ms = report["queries"]["job_ms"]
        assert len(queries_ms) == 11 and {"sup_leq", "fp"} <= queries_ms.keys()
        assert sum(kind.startswith("eval:") for kind in queries_ms) == 9
        assert all(ms > 0 for ms in (*queries_ms.values(), *report["norms"]["job_ms"].values()))
        for counts in roots:
            assert counts.keys() == {"calls", "leading", "fallbacks"}
            assert counts["calls"] >= counts["leading"] >= counts["fallbacks"] >= 0
        makes = report["norms"]["makes"], report["queries"]["makes"]
        assert makes[0].keys() == report["norms"]["job_ms"].keys()
        for counts in (*makes[0].values(), *makes[1].values()):
            assert counts.keys() == {"calls", "reduced"}
            assert counts["calls"] >= counts["reduced"] >= 0
        assert sum(c["calls"] for c in makes[1].values()) > 0
        words = report["norms"]["convolve_words_max"], report["queries"]["convolve_words_max"]
        assert words[0].keys() == report["norms"]["job_ms"].keys()
        assert words[1].keys() == makes[1].keys()
        assert all(0 <= n <= 4096 for n in (*words[0].values(), *words[1].values()))
        tori = report["norms"]["torus"], report["queries"]["torus"]
        assert tori[0].keys() == report["norms"]["job_ms"].keys()
        assert tori[1].keys() == makes[1].keys()
        for counts in (*tori[0].values(), *tori[1].values()):
            assert counts.keys() == {"_split", "_to_bernstein"}
            assert min(counts.values()) >= 0
        # the first 14 norms jobs hold both torus kinds, each converting its charts
        assert all(tori[0][kind]["_to_bernstein"] > 0 for kind in ("torus:1", "torus:2"))
        # every job frees what it built by reference counting
        for workload in ("norms", "queries"):
            garbage = report[workload]["cyclic_garbage"]
            assert garbage.keys() == report[workload]["job_ms"].keys()
            assert set(garbage.values()) == {0}, garbage
    else:
        assert report["failed_jobs"] == 0


def test_lp_count_tool_reports_the_queries_kinds():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "lp_counts.py"),
                           "--workload", "queries", "--jobs", "12"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert (report["workload"], report["jobs"], report["failed_jobs"]) == ("queries", 12, 0)
    assert report["fp"]["jobs"] + report["sup_leq"]["jobs"] == 12
    for kind in ("fp", "sup_leq"):
        assert report[kind]["tableaux_per_job"] > 0 and report[kind]["pivots_per_job"] >= 0


def test_digest_tool_runs():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "digests.py"), "--seeds", "1,2",
                           "--workloads", "games,queries,norms", "--jobs", "6"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    reports = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(r["workload"], r["seed"]) for r in reports] == [
        ("games", 1), ("games", 2), ("queries", 1), ("queries", 2), ("norms", 1), ("norms", 2)]
    for report in reports:
        assert report["jobs"] == 6 and report["failed_jobs"] == 0
        assert len(report["sha256"]) == 64
    assert len({r["sha256"] for r in reports}) == 6


def test_reach_tool_runs():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "reach.py"), "--jobs", "3"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["failed_jobs"] == 0 and report["pytest"] is None
    never = report["never_entered"]
    assert 0 < report["entered"] == report["defined"] - len(never)
    assert all(re.fullmatch(r"\w+\.py:\d+ [\w.]+", label) for label in never)
    place = [(label.split(":")[0], int(label.split(":")[1].split()[0])) for label in never]
    assert place == sorted(place)
    # selftest alone enters these
    names = {label.split()[1] for label in never}
    assert not names & {"run_all", "eval_sentence", "opnorm_upper", "play_game"}

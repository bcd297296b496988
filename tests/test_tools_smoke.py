"""The count tools in tools/ rebind package internals by name, so a rename in
`src` can break them without breaking any other test: run each on a few
benchmark jobs and check that it finishes with one JSON report and no failed
job."""

import json
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
    else:
        assert report["failed_jobs"] == 0

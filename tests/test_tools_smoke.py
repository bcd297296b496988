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
    else:
        assert report["failed_jobs"] == 0

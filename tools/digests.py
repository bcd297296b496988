"""Digest the exact outputs of whole benchmark job lists.

    python3 tools/digests.py [--root CHECKOUT] [--seeds 1,2,3,4,5]
                             [--workloads games,queries,norms] [--jobs N]

For each workload and seed, runs every job of
`perfbench.workloads.generate(workload, seed)` (or its first --jobs) from the
checkout at --root (default: the one holding this script) and prints one JSON
line: the number of jobs, a sha256 over the `digest_record` of each job in
order (one `json.dumps(..., sort_keys=True, default=str)` line per job) and
the number of jobs whose `check_job` reported a problem.  The digests are
deterministic, so two checkouts whose lines agree give the same exact
outputs on those lists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=str(Path(__file__).resolve().parent.parent))
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--workloads", default="games,queries,norms")
    ap.add_argument("--jobs", type=int, default=None, help="first N jobs of each list")
    args = ap.parse_args(argv)
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench import workloads

    for workload in args.workloads.split(","):
        for seed in (int(s) for s in args.seeds.split(",")):
            jobs = workloads.generate(workload, seed)[:args.jobs]
            digest = hashlib.sha256()
            failed = 0
            for job in jobs:
                out = workloads.run_job(job)
                failed += bool(workloads.check_job(job, out))
                record = workloads.digest_record(job, out)
                digest.update(json.dumps(record, sort_keys=True, default=str).encode() + b"\n")
            print(json.dumps({"workload": workload, "seed": seed, "jobs": len(jobs),
                              "sha256": digest.hexdigest(), "failed_jobs": failed}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

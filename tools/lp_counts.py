"""Count the exact-simplex work of the `games` or `queries` benchmark jobs.

    python3 tools/lp_counts.py [--root CHECKOUT] [--workload games|queries]
                               [--seed 1] [--jobs 600]

Runs the first --jobs jobs of `perfbench.workloads.generate(workload, seed)`
(for `queries`, the first --jobs of its `fp` and `sup_leq` jobs, the ones
that solve LPs) from the checkout at --root (default: the one holding this
script) and prints one JSON line: tableaux built (calls of `feasibility.maximize_rows`
and `feasibility.lex_minimize_rows`), pivots (calls of
`feasibility._pivot`), `forcing._solve_system` calls and those that repeat
an earlier (system, constants, instance) of the same job, and moves that
`forcing._model_certifies` accepted without a solve, all
per job, plus the number of jobs whose oracle checks failed; for `queries`
also the same counts per job of each kind, under the kind's name.  The counts are
deterministic, so one run per checkout is enough.  Wrapping is done here,
outside the benchmark, by rebinding module names.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=str(Path(__file__).resolve().parent.parent))
    ap.add_argument("--workload", default="games", choices=["games", "queries"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--jobs", type=int, default=600)
    args = ap.parse_args(argv)
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    from contlogic import feasibility, forcing
    from perfbench import workloads

    counts = dict.fromkeys(["tableaux", "pivots", "solves", "repeated_solves",
                            "certified_moves"], 0)
    certifies = forcing._model_certifies

    def model_certifies(*a):
        ok = certifies(*a)
        counts["certified_moves"] += ok
        return ok

    forcing._model_certifies = model_certifies
    seen: set = set()

    def counted(fn, key):
        def wrapper(*a, **kw):
            counts[key] += 1
            return fn(*a, **kw)
        return wrapper

    for name in ("maximize_rows", "lex_minimize_rows"):
        wrapped = counted(getattr(feasibility, name), "tableaux")
        for module in (feasibility, forcing):
            setattr(module, name, wrapped)
    feasibility._pivot = counted(feasibility._pivot, "pivots")
    solve = forcing._solve_system

    def solve_system(system, constants, inst):
        key = (system, tuple(constants), inst)
        counts["repeated_solves"] += key in seen
        seen.add(key)
        return solve(system, constants, inst)

    forcing._solve_system = counted(solve_system, "solves")
    failed = 0
    jobs = workloads.generate(args.workload, args.seed)
    if args.workload == "queries":
        jobs = [job for job in jobs if job["kind"] in ("fp", "sup_leq")]
    jobs = jobs[:args.jobs]
    counts.update(dict.fromkeys(counts, 0))  # the `queries` pool plays games
    per_kind: dict = {}
    for job in jobs:
        seen.clear()
        before = dict(counts)
        failed += bool(workloads.check_job(job, workloads.run_job(job)))
        kind = per_kind.setdefault(job["kind"], dict.fromkeys(["jobs", *counts], 0))
        kind["jobs"] += 1
        for k, v in counts.items():
            kind[k] += v - before[k]
    out = {"workload": args.workload, "seed": args.seed, "jobs": len(jobs),
           "failed_jobs": failed}
    out.update({f"{k}_per_job": round(v / len(jobs), 3) for k, v in counts.items()})
    if args.workload == "queries":
        for name, kind in sorted(per_kind.items()):
            n = kind.pop("jobs")
            out[name] = {"jobs": n, **{f"{k}_per_job": round(v / n, 3) for k, v in kind.items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""List the functions of `src/contlogic` that selftest, the benchmark and the
CLI tests never enter.

    python3 tools/reach.py [--root CHECKOUT] [--jobs 600,1100,420]
                           [--pytest FILE ...]

From the checkout at --root (default: the one holding this script), runs
under `sys.setprofile`: `contlogic selftest` (in-process, its output
discarded), the first --jobs jobs of each seed-1 job list of
`perfbench.workloads` (games, queries, norms; one count for all three or
one each) with their `check_job`, and the --pytest FILEs in one in-process
pytest run.  Then prints one JSON line: `defined`, the number of functions
and methods (`def`s, nested ones included) in `src/contlogic/*.py`;
`entered`, how many of them were called at least once; `never_entered`, the
others, sorted, as `module.py:LINE qualified.name`; `failed_jobs`, the jobs
whose checks reported a problem; and `pytest`, the exit status of the pytest
run (null without FILEs), whose subprocesses get the checkout's `src` on
PYTHONPATH but are not profiled.  A lambda or a comprehension is part of
the function that holds it.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import sys
from pathlib import Path

WORKLOADS = ("games", "queries", "norms")


def defined_functions(package: Path) -> dict[tuple[str, int], str]:
    """(file name, first line) -> `module.py:LINE qualified.name` of every
    `def` in the package; the first line is that of the first decorator, as
    in the function's code object."""
    out = {}

    def visit(node, prefix, filename):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[filename, first] = f"{Path(filename).name}:{child.lineno} {name}"
                visit(child, name + ".", filename)
            else:
                visit(child, prefix, filename)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), "", str(path))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=str(Path(__file__).resolve().parent.parent))
    ap.add_argument("--jobs", default="600,1100,420",
                    help="first N jobs of each list: N, or N_games,N_queries,N_norms")
    ap.add_argument("--pytest", action="append", default=[], metavar="FILE")
    args = ap.parse_args(argv)
    counts = [int(n) for n in args.jobs.split(",")]
    if len(counts) == 1:
        counts *= len(WORKLOADS)
    if len(counts) != len(WORKLOADS):
        ap.error(f"--jobs takes one count or {len(WORKLOADS)}")
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root), *filter(None, [os.environ.get("PYTHONPATH")])])
    import pytest

    from contlogic import cli
    from perfbench import workloads

    defined = defined_functions(root / "src" / "contlogic")
    codes: dict = {}  # id -> code object, kept alive so that ids are not reused

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            codes.setdefault(id(code), code)

    class KeepProfiling:  # a RecursionError in `profile` switches profiling off
        @staticmethod
        def pytest_runtest_setup(item):
            sys.setprofile(profile)

    failed, status = 0, None
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["selftest"])
        for workload, n in zip(WORKLOADS, counts):
            for job in workloads.generate(workload, 1)[:n]:
                failed += bool(workloads.check_job(job, workloads.run_job(job)))
        if args.pytest:
            with contextlib.redirect_stdout(sys.stderr):
                status = int(pytest.main(["-q", "-p", "no:cacheprovider", *args.pytest],
                                         plugins=[KeepProfiling()]))
    finally:
        sys.setprofile(None)
    entered = {(code.co_filename, code.co_firstlineno) for code in codes.values()} & defined.keys()
    never = [defined[key] for key in sorted(defined.keys() - entered)]
    print(json.dumps({"defined": len(defined), "entered": len(entered), "never_entered": never,
                      "failed_jobs": failed, "pytest": status}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

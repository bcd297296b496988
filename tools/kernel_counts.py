"""Count the norm-kernel work of the benchmark jobs.

    python3 tools/kernel_counts.py [--root CHECKOUT] [--seed 1] [--jobs 420]
        [--workloads norms,queries,games]

Runs the first --jobs jobs of `perfbench.workloads.generate(workload, seed)`
for each workload from the checkout at --root (default: the one holding this
script) and prints one JSON line.  For `norms` it gives, per job kind and per
job, the big-product kernels of the matrix trace chain: the squarings
`matrices._gram(re, im)` (`_gram`), the power products of its switch
`_gram(re, im, other)` (`power_products`) and the remainder squarings
`matrices._square_mod`; then the excursion DP
`groups._free_walk_traces`, the convolution kernels `groups._convolve` and
`groups._pair_trace`, and the word products and inverses (`mul`, `inv` and,
where they exist, `_mul_normal`, `_inv_normal` of every group kind), and how
many `_convolve` calls took the packed route (`groups._convolve_packed`
returned a product).  For `norms` per job kind and for
`queries` per presentation kind it gives the certified roots (`grid_roots`):
the calls of the kernel `dyadic._grid_root`, how many took the leading-bits
test (`dyadic._leading_root`) and how many of those it
could not decide, so that they fell back to the exact route; roots taken
outside every oracle call of a `queries` job count under "other".  For
`norms` per job kind and for `queries` per job presentation (jobs without
one under "other") it gives the objects built (`makes`): the calls of
`gaussian.GaussianInts._make`, which puts every matrix,
algebra element and Cantor function in lowest terms, and how many of them
divided by a gcd > 1 (`reduced`).  For `norms` per job kind and for
`queries` per job presentation it gives the largest word count of any
`_convolve` operand or result (`convolve_words_max`), the headroom under
`gaussian.PARTS_MAX`.  Before
any wrapper is installed it also times each `norms` and `queries` job alone
(`run_job`, best of three passes) and gives the mean wall time per job of
each kind in ms (`job_ms`); this one figure depends on the host, so compare
checkouts by alternating runs.  For
every workload it gives the calls of the norm entry points `opnorm_upper`
and `moments_up_to`, how many were repeats (their
object was passed to an entry point before in the same job) and how many
were memo hits (they ran none of those kernels, nor the trace reads
`matrices._frobenius_sq` and `_trace_product`), plus the number of jobs
whose oracle checks failed.  For `queries` it gives, per presentation kind,
the calls of the oracles `Presentation.atom_interval` and `norm_interval`
and how many of them had a key not seen before in the same job:
(predicate, argument objects, k, budget) and (object, k, budget); and the
calls of `Presentation.point_object`, recursive ones included, and its
cache misses (the point was not in the presentation's `_point_cache`).
The counts are deterministic, so one run per checkout is enough.  Wrapping is done here,
outside the benchmark, by rebinding module and class names.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

KERNELS = ("_gram", "power_products", "_square_mod", "_free_walk_traces", "_convolve",
           "_pair_trace", "word_products")
ENTRIES = ("opnorm_upper", "moments_up_to")
ROOT_COUNTS = ("calls", "leading", "fallbacks")
MAKE_COUNTS = ("calls", "reduced")
WORD_METHODS = ("mul", "inv", "_mul_normal", "_inv_normal")
TIMED_PASSES = 3
TIMED_WORKLOADS = ("norms", "queries")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=str(Path(__file__).resolve().parent.parent))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--jobs", type=int, default=420)
    ap.add_argument("--workloads", default="norms,queries,games")
    args = ap.parse_args(argv)
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    from contlogic import dyadic, gaussian, groups, matrices, presentations
    from perfbench import workloads
    from perfbench.tracing import _presentation_kind

    names = args.workloads.split(",")
    job_ms = {workload: _job_ms(workloads, workloads.generate(workload, args.seed)[:args.jobs])
              for workload in names if workload in TIMED_WORKLOADS}

    counts: Counter = Counter()
    seen: dict = {}  # id -> object, kept alive so that ids are not reused

    def counted(fn, key):
        def wrapper(*a, **kw):
            counts[key] += 1
            return fn(*a, **kw)
        return wrapper

    for owner, name, key in ((matrices, "_frobenius_sq", "_frobenius_sq"),
                             (matrices, "_trace_product", "_trace_product"),
                             (matrices, "_square_mod", "_square_mod"),
                             (groups, "_free_walk_traces", "_free_walk_traces"),
                             (groups, "_pair_trace", "_pair_trace")):
        setattr(owner, name, counted(getattr(owner, name), key))
    largest = [0]  # words of the largest `_convolve` operand or result in this job
    convolve = groups._convolve

    def measured_convolve(spec, x, y, *limit):
        counts["_convolve"] += 1
        out = convolve(spec, x, y, *limit)
        largest[0] = max(largest[0], len(x), len(y), len(out or ()))
        return out
    groups._convolve = measured_convolve
    gram = matrices._gram

    def counted_gram(re, im, *other):
        counts["power_products" if other else "_gram"] += 1
        return gram(re, im, *other)
    matrices._gram = counted_gram
    packed = groups._convolve_packed

    def counted_packed(*a):
        out = packed(*a)
        counts["_convolve.packed"] += out is not None
        return out
    groups._convolve_packed = counted_packed
    for cls in vars(groups).values():
        if isinstance(cls, type) and issubclass(cls, groups.GroupSpec):
            for name in WORD_METHODS:
                if name in vars(cls):
                    setattr(cls, name, counted(vars(cls)[name], "word_products"))

    def kernel_total():
        return sum(counts[k] for k in KERNELS + ("_frobenius_sq", "_trace_product"))

    def entry(fn, name):
        def wrapper(*a, **kw):
            counts[f"{name}.repeats"] += id(a[0]) in seen
            seen[id(a[0])] = a[0]
            before = kernel_total()
            try:
                return fn(*a, **kw)
            finally:
                counts[f"{name}.calls"] += 1
                counts[f"{name}.hits"] += kernel_total() == before
        return wrapper

    for owner, name in ((matrices, "opnorm_upper"), (groups, "moments_up_to")):
        setattr(owner, name, entry(getattr(owner, name), name))

    oracle_counts: Counter = Counter()  # (kind, method, "calls" | "keys" | "misses")
    oracle_keys: set = set()  # (kind, oracle, key) seen in this job
    kinds: list[str] = ["other"]  # presentation kind of the innermost oracle call

    def oracle(fn, name, key_of):
        def wrapper(pres, *a, budget=None):
            kind = _presentation_kind(pres)
            key = (kind, name, key_of(*a), budget)
            oracle_counts[kind, name, "calls"] += 1
            oracle_counts[kind, name, "keys"] += key not in oracle_keys
            oracle_keys.add(key)
            kinds.append(kind)
            try:
                return fn(pres, *a, budget=budget)
            finally:
                kinds.pop()
        return wrapper

    base = presentations.Presentation
    base.atom_interval = oracle(base.atom_interval, "atom_interval",
                                lambda pred, objs, k: (pred, *objs, k))
    point_object = base.point_object

    def counted_point_object(pres, point):
        kind = _presentation_kind(pres)
        oracle_counts[kind, "point_object", "calls"] += 1
        oracle_counts[kind, "point_object", "misses"] += point not in pres._point_cache
        return point_object(pres, point)
    base.point_object = counted_point_object
    for cls in vars(presentations).values():
        if isinstance(cls, type) and issubclass(cls, base) and "norm_interval" in vars(cls):
            cls.norm_interval = oracle(vars(cls)["norm_interval"], "norm_interval",
                                       lambda obj, k: (obj, k))

    grid_root = dyadic._grid_root

    def counted_grid_root(*a):
        counts["grid_roots.calls"] += 1
        oracle_counts[kinds[-1], "grid_roots", "calls"] += 1
        return grid_root(*a)
    dyadic._grid_root = matrices._grid_root = counted_grid_root
    leading_root = dyadic._leading_root

    def counted_leading_root(*a):
        c = leading_root(*a)
        for key in ("leading", "fallbacks") if c is None else ("leading",):
            counts[f"grid_roots.{key}"] += 1
            oracle_counts[kinds[-1], "grid_roots", key] += 1
        return c
    dyadic._leading_root = counted_leading_root

    make = gaussian.GaussianInts._make.__func__

    def counted_make(cls, layout, d, parts):
        out = make(cls, layout, d, parts)
        counts["makes.calls"] += 1
        counts["makes.reduced"] += out.d != d  # lowest terms divided d by the gcd
        return out
    gaussian.GaussianInts._make = classmethod(counted_make)

    out: dict = {"seed": args.seed, "jobs": args.jobs}
    for workload in names:
        jobs = workloads.generate(workload, args.seed)[:args.jobs]
        per_kind: dict = defaultdict(Counter)
        per_presentation: dict = defaultdict(Counter)
        totals: Counter = Counter()
        words: dict = defaultdict(int)  # kind or presentation -> largest `_convolve` words
        failed = 0
        oracle_counts.clear()
        for job in jobs:
            counts.clear()
            seen.clear()
            oracle_keys.clear()
            largest[0] = 0
            failed += bool(workloads.check_job(job, workloads.run_job(job)))
            per_kind[job["kind"]].update(counts)
            per_kind[job["kind"]]["jobs"] += 1
            per_presentation[job.get("presentation", "other")].update(counts)
            totals.update(counts)
            key = job["kind"] if workload == "norms" else job.get("presentation", "other")
            words[key] = max(words[key], largest[0])
        report = {"jobs": len(jobs), "failed_jobs": failed,
                  "memo": {name: {k: totals[f"{name}.{k}"] for k in ("calls", "repeats", "hits")}
                           for name in ENTRIES}}
        if workload == "queries":
            oracles: dict = defaultdict(lambda: defaultdict(Counter))
            for (kind, name, what), n in sorted(oracle_counts.items()):
                oracles[kind][name][what] = n
                oracles["all"][name][what] += n
            report["points"] = {kind: dict(by_name.pop("point_object", {}))
                                for kind, by_name in oracles.items()}
            roots = {kind: by_name.pop("grid_roots", Counter()) for kind, by_name in oracles.items()}
            report["grid_roots"] = {kind: {k: c[k] for k in ROOT_COUNTS} for kind, c in roots.items()}
            report["oracles"] = oracles
            report["makes"] = _makes(per_presentation)
            report["convolve_words_max"] = dict(words)
            report["job_ms"] = job_ms[workload]
        if workload == "norms":
            report["per_job"] = {
                kind: {k: round(c[k] / c["jobs"], 3) for k in KERNELS + ("_convolve.packed",)}
                for kind, c in per_kind.items()}
            report["grid_roots"] = {kind: {k: c[f"grid_roots.{k}"] for k in ROOT_COUNTS}
                                    for kind, c in per_kind.items()}
            report["makes"] = _makes(per_kind)
            report["job_ms"] = job_ms[workload]
            report["convolve_words_max"] = dict(words)
        out[workload] = report
    print(json.dumps(out))
    return 0


def _makes(by_key: dict) -> dict:
    return {key: {k: c[f"makes.{k}"] for k in MAKE_COUNTS} for key, c in by_key.items()}


def _job_ms(workloads, jobs) -> dict:
    """Mean wall time per job of each kind, in ms, each job timed alone
    with nothing wrapped; the least over TIMED_PASSES passes."""
    best: dict = {}
    for _ in range(TIMED_PASSES):
        total: Counter = Counter()
        for job in jobs:
            start = time.perf_counter()
            workloads.run_job(job)
            total[job["kind"]] += time.perf_counter() - start
        best = {k: min(v, best.get(k, v)) for k, v in total.items()}
    sizes = Counter(job["kind"] for job in jobs)
    return {k: round(1000 * v / sizes[k], 3) for k, v in best.items()}


if __name__ == "__main__":
    sys.exit(main())

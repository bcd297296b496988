"""contlogic benchmark: closed-loop workloads with exact output checks.

    python3 perfbench/run.py --workload games|queries|norms --seed N \
        --seconds S --trace 0|1 [--dump-jobs PATH] [--replay PATH] [--spans PATH]

One client, one thread, one job at a time: each job is a call into the
library from this process, timed alone and then checked against independent
oracles outside the timed window.  Runs stop at the first cycle boundary
after --seconds, so every run holds whole cycles of the workload's job mix.

With --trace 0 the last line reports the end-to-end metrics.  Job times are
reported in units of a reference computation timed between the jobs (see
`_reference`): the host's speed swings by a fifth within seconds and moves
both alike.  The wall-clock figures are on the line before.  With --trace 1
every job runs twice, untraced and with spans around the layers' entry
points (see tracing.py), and the last line reports the per-layer metrics plus
the tracing overhead: traced over untraced job time, minus one.

The package is imported from ../src relative to this file; nothing is
installed.  The last stdout line is one JSON object; the lines before it are
JSON report records (failures, digest, tail percentile, wall-clock times).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
REF_WINDOW = 5  # reference samples on each side of a job
REF_SHARE = 0.05  # of the run's time, spent in the reference computation


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["games", "queries", "norms"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--dump-jobs", help="write the generated job list here as JSON")
    ap.add_argument("--replay", help="run a job list written by --dump-jobs")
    ap.add_argument("--spans", help="with --trace 1, write the spans here as JSON lines")
    return ap.parse_args(argv)


# The timed import, run again in fresh interpreters for more samples.
_IMPORT = ("import sys, time; sys.path[:0] = [{src!r}, {root!r}]; "
           "start = time.perf_counter(); import contlogic; "
           "from perfbench import tracing, workloads; "
           "print(time.perf_counter() - start)")


def _import_package():
    """Import contlogic from this checkout's src/, or exit with status 2.
    Returns the import time and the modules."""
    if not (SRC / "contlogic" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no contlogic sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    start = time.perf_counter()
    import contlogic
    from perfbench import tracing, workloads
    elapsed = time.perf_counter() - start
    if Path(contlogic.__file__).resolve().parent != SRC / "contlogic":
        sys.stderr.write(f"benchmark: imported contlogic from {contlogic.__file__}\n")
        sys.exit(2)
    return elapsed, tracing, workloads


def _import_elsewhere() -> float:
    """The import time in a fresh interpreter, which is waited for."""
    done = subprocess.run([sys.executable, "-c", _IMPORT.format(src=str(SRC), root=str(ROOT))],
                          cwd=ROOT, check=True, capture_output=True, text=True, timeout=120)
    return float(done.stdout.split()[-1])


_BIG = 7 ** 5000  # an integer of 4226 digits


def _reference() -> int:
    """A fixed computation of about a millisecond, timed between jobs: an
    interpreted loop of Fraction arithmetic on numbers of about 16 digits,
    then a product and a remainder of integers of thousands of digits.  It
    is the kind of work the library does, with no call into it."""
    q = Fraction(1)
    for i in range(1, 16):
        q = q * Fraction(i + 1, i) + Fraction(1, i * i)
    for i in range(200):
        q += i * i % 7
    return q.numerator + (_BIG + 1) * (_BIG - 1) % (_BIG + 3)


class Phase:
    """Latencies, failures and the output digest of one pass over jobs.

    With `reference`, the reference computation runs before each job,
    outside the job's window, until it has taken REF_SHARE of the time since
    it last ran, and at least once; `refs[i]` is its mean time before job i."""

    def __init__(self, workloads, digest_jobs: int, reference: bool = False):
        self.workloads = workloads
        self.latencies: list[float] = []
        self.refs: list[float] | None = [] if reference else None
        self.ref_end = time.perf_counter()
        self.failures: list[dict] = []
        self.wrong = 0
        self.digest = hashlib.sha256()
        self.digest_jobs = digest_jobs
        self.digested = 0

    def run(self, index: int, job: dict, call=None) -> None:
        w = self.workloads
        if self.refs is not None:
            start = time.perf_counter()
            owed = REF_SHARE * (start - self.ref_end)
            calls = 0
            while not calls or self.ref_end - start < owed:
                _reference()
                calls += 1
                self.ref_end = time.perf_counter()
            self.refs.append((self.ref_end - start) / calls)
        start = time.perf_counter()
        try:
            out = call(lambda: w.run_job(job)) if call else w.run_job(job)
        except Exception as exc:  # every job failure is counted, never fatal
            self.latencies.append(time.perf_counter() - start)
            self._fail(index, job, type(exc).__name__, str(exc)[:200])
            return
        self.latencies.append(time.perf_counter() - start)
        problems = w.check_job(job, out)
        if problems:
            self.wrong += 1
            self._fail(index, job, "oracle", "; ".join(problems)[:300])
        else:
            kind = w.failure_type(job, out)
            if kind:
                self._fail(index, job, kind, "")
        if self.digested < self.digest_jobs:
            record = [index, job["kind"], w.digest_record(job, out)]
            self.digest.update(json.dumps(record, sort_keys=True).encode())
            self.digest.update(b"\n")
            self.digested += 1

    def _fail(self, index, job, kind, message) -> None:
        self.failures.append({"job": index, "kind": job["kind"], "type": kind,
                              "message": message})


def _run_cycles(jobs: list, cycle: int, seconds: float, run_one,
                samples: int = 0, sample=None) -> int:
    """Run whole cycles from the job list until `seconds` have passed.  Call
    `sample` `samples` times, at the first cycle boundaries past evenly
    spaced moments of the run."""
    start = time.perf_counter()
    done = taken = 0
    while done + cycle <= len(jobs):
        for index in range(done, done + cycle):
            run_one(index, jobs[index])
        done += cycle
        now = time.perf_counter()
        if taken < samples and now >= start + seconds * (taken + 1) / (samples + 1):
            sample()
            taken += 1
        if now >= start + seconds:
            break
    for _ in range(taken, samples):
        sample()
    return done


def _tail(latencies: list[float], ceiling: int) -> tuple[int, float]:
    """The workload's tail percentile (nearest rank), lowered if fewer than
    ten jobs lie beyond it.  A fixed percentile keeps runs comparable."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = 50
    for p in range(50, ceiling + 1):
        if n - math.ceil(p * n / 100) >= 10:
            best = p
    return best, ordered[max(math.ceil(best * n / 100), 1) - 1]


def _in_refs(latencies: list[float], refs: list[float]) -> list[float]:
    """Each job's time over the median reference time of the 2 * REF_WINDOW
    + 1 jobs around it, so that both are taken at the same host speed."""
    return [t / statistics.median(refs[max(i - REF_WINDOW, 0):i + REF_WINDOW + 1])
            for i, t in enumerate(latencies)]


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")


def _report(workload: str, seed: int, label: str, phase: Phase, jobs_done: int,
            ceiling: int) -> None:
    by_type: dict[str, int] = {}
    for failure in phase.failures:
        by_type[failure["type"]] = by_type.get(failure["type"], 0) + 1
    percentile, _ = _tail(phase.latencies, ceiling)
    _emit({"kind": "report", "workload": workload, "seed": seed, "phase": label,
           "jobs": jobs_done, "job_tail": {"percentile": percentile, "jobs": jobs_done},
           "failed_share": len(phase.failures) / max(jobs_done, 1),
           "failures_by_type": by_type, "failures": phase.failures,
           "digest": {"sha256": phase.digest.hexdigest(), "jobs": phase.digested}})


def main(argv=None) -> int:
    args = _parse_args(argv)
    import_s, tracing, workloads = _import_package()
    if args.seconds <= 0:
        sys.stderr.write("benchmark: --seconds must be positive\n")
        return 2
    cycle = len(workloads.CYCLES[args.workload])
    digest_jobs = workloads.DIGEST_JOBS[args.workload]
    ceiling = workloads.TAIL_PERCENTILE[args.workload]

    def make_jobs():
        if args.replay:
            with open(args.replay, encoding="utf-8") as handle:
                return json.load(handle)
        return workloads.generate(args.workload, args.seed)

    # set-up: the import and the input generation.  Both are timed again
    # SETUP_REPEATS - 1 times spread over the run, outside every job's
    # window, and the medians are reported: samples taken back to back all
    # fell in the same moment of the host's speed.
    import_times = [import_s]
    start = time.perf_counter()
    jobs = make_jobs()
    generate_times = [time.perf_counter() - start]

    def setup_sample():
        import_times.append(_import_elsewhere())
        start = time.perf_counter()
        make_jobs()
        generate_times.append(time.perf_counter() - start)

    if args.dump_jobs:
        with open(args.dump_jobs, "w", encoding="utf-8") as handle:
            json.dump(jobs, handle)

    if args.trace == 0:
        phase = Phase(workloads, digest_jobs, reference=True)
        done = _run_cycles(jobs, cycle, args.seconds, phase.run,
                           SETUP_REPEATS - 1, setup_sample)
        setup_s = statistics.median(import_times) + statistics.median(generate_times)
        _report(args.workload, args.seed, "untraced", phase, done, ceiling)
        lat = phase.latencies
        _, tail_s = _tail(lat, ceiling)
        _emit({"kind": "wall-times", "jobs_per_s": done / sum(lat),
               "job_p50_ms": statistics.median(lat) * 1000, "job_tail_ms": tail_s * 1000,
               "ref_ms": statistics.median(phase.refs) * 1000})
        rel = _in_refs(lat, phase.refs)
        _, tail_ref = _tail(rel, ceiling)
        metrics = {
            "jobs_per_kref": (1000 * done / sum(rel), "1/kref"),
            "job_p50_ref": (statistics.median(rel), "ref"),
            "job_tail_ref": (tail_ref, "ref"),
            "ok_share": ((done - len(phase.failures)) / done, "share"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        phases = [phase]
    else:
        plain = Phase(workloads, digest_jobs)
        traced = Phase(workloads, digest_jobs)
        recorder = tracing.Recorder()

        def run_traced(index, job):
            recorder.install()
            try:
                traced.run(index, job, lambda fn: recorder.run_job(index, fn))
            finally:
                recorder.uninstall()

        def run_both(index, job):
            # alternate the order so that neither side gains from running second
            if index % 2:
                plain.run(index, job)
                run_traced(index, job)
            else:
                run_traced(index, job)
                plain.run(index, job)

        done = _run_cycles(jobs, cycle, args.seconds, run_both)
        _report(args.workload, args.seed, "untraced", plain, done, ceiling)
        _report(args.workload, args.seed, "traced", traced, done, ceiling)
        per_name, job_wall, gap = recorder.aggregate()
        overhead = sum(traced.latencies) / sum(plain.latencies) - 1
        _emit({"kind": "trace-check", "spans": len(recorder.spans),
               "job_wall_s": job_wall, "max_self_time_gap_s": gap})
        if args.spans:
            recorder.write(args.spans)
        metrics = {name: (value, tracing.unit_of(name))
                   for name, value in recorder.metrics(per_name, overhead).items()}
        phases = [plain, traced]
        if gap > 1e-6 or plain.digest.hexdigest() != traced.digest.hexdigest():
            plain.wrong += 1  # spans do not add up, or tracing changed outputs

    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(len(p.failures) for p in phases)
    _emit({"correct": all(p.wrong == 0 for p in phases), "attempted": attempted,
           "failed": failed,
           "metrics": {name: {"value": value, "unit": unit}
                       for name, (value, unit) in metrics.items()}})
    return 0


if __name__ == "__main__":
    sys.exit(main())

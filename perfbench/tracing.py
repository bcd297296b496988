"""Span recorder for the traced run.

Spans are recorded from the benchmark's side: `Recorder.install` replaces the
layers' public entry points with thin wrappers, in every module where a name
is looked up (several are imported with `from ... import`), and `uninstall`
puts the originals back.  The package itself is not edited.

Each span is a tuple (id, name, start, end, parent id, job id), kept in memory
and aggregated at the end into calls, busy time and self time per name.  A
layer's self time is its duration minus the time covered by its child spans.
Every job runs under a root span named "job", so the self times of one job's
spans add up to the job's wall time; `aggregate` checks that they do.

Recursive calls of `eval_exact`, `point_object` and `encode` are folded into
their outermost span.  Gaussian rationals are far too many for spans, so
their constructor only counts.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from contlogic import coding, dyadic, evaluator, feasibility, forcing
from contlogic import groups, matrices, parser, presentations, torus
from contlogic.gaussian import GaussianRational

FORCING_FUNCTIONS = ("play_game", "is_condition", "compile_transcript",
                     "forces_sup_leq", "fp_estimate")
PRESENTATION_KINDS = ("R", "L", "C2w", "CstarF2", "CstarZd")
PRESENTATION_METHODS = ("point_object", "atom_interval", "norm_interval")
MATRIX_SPANS = ("matrices.Matrix.__mul__", "matrices.opnorm_upper",
                "matrices.opnorm_lower", "matrices.two_norm")
GROUP_SPANS = ("groups.AlgebraElement.__mul__", "groups.moments_up_to.dp",
               "groups.moments_up_to.conv", "groups.lambda_norm_lower_sweep")
DYADIC_SPANS = ("dyadic.sqrt_interval", "dyadic.nth_root_lower_grid",
                "dyadic.nth_root_upper_grid")
TORUS_DIMENSIONS = (1, 2)


def span_names() -> list[str]:
    """Every span name the traced run reports, in report order."""
    names = ["feasibility.maximize"]
    names += [f"forcing.{fn}" for fn in FORCING_FUNCTIONS]
    names += ["coding.encode", "parser.parse_formula",
              "evaluator.eval_sentence", "evaluator.eval_exact"]
    names += [f"presentations.{kind}.{method}"
              for kind in PRESENTATION_KINDS for method in PRESENTATION_METHODS]
    names += ["torus.torus_sup_norm"]
    names += list(MATRIX_SPANS) + list(GROUP_SPANS) + list(DYADIC_SPANS)
    return names


def metric_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    out = []
    for name in span_names():
        out += [f"{name}.calls", f"{name}.busy_s", f"{name}.self_s"]
    out += ["feasibility.maximize.cells", "feasibility.maximize.infeasible_share"]
    out += [f"forcing.{fn}.lp_per_call" for fn in FORCING_FUNCTIONS]
    out += ["forcing.forces_sup_leq.swept", "forcing.forces_sup_leq.unknown_share",
            "forcing.fp_estimate.unknown_share"]
    out += [f"torus.failures.d{d}" for d in TORUS_DIMENSIONS]
    out += ["groups.AlgebraElement.__mul__.terms_out", "gaussian.objects",
            "job.unspanned_self_s", "trace.overhead_share"]
    return out


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "share"
    if name.endswith(".lp_per_call"):
        return "count/call"
    return "count"


def _presentation_kind(pres) -> str:
    if isinstance(pres, presentations.MatrixTowerPresentation):
        return "R"
    if isinstance(pres, presentations.GroupVonNeumannPresentation):
        return "L"
    if isinstance(pres, presentations.CantorSpacePresentation):
        return "C2w"
    if isinstance(pres, presentations.ReducedCstarPresentation):
        return "CstarZd" if pres.abelian else "CstarF2"
    return type(pres).__name__


class Recorder:
    """In-memory spans plus the count-only extras, for one traced phase."""

    def __init__(self):
        self.spans: list[tuple] = []
        # open frames: [id, name, start, lp_calls]
        self._stack: list[list] = []
        self._active: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self.job = None
        self.counts: dict[str, int] = defaultdict(int)
        self._patches: list[tuple] = []

    # -- spans ----------------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str | None = None) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        final = name or frame[1]
        self.spans.append((frame[0], final, frame[2], end, parent, self.job))
        if final.startswith("forcing."):
            self.counts[f"{final}.lp"] += frame[3]

    def run_job(self, job_id: int, fn):
        """Call fn() under the root span of job `job_id`."""
        self.job = job_id
        frame = self._enter("job")
        try:
            return fn()
        finally:
            self._exit(frame)
            self.job = None

    def _span(self, name_of, fn, fold=False, after=None):
        """Wrap fn in a span; name_of(args) gives the span name.

        With fold, a call made while the same function is already open runs
        inside the outer span.  `after(args, result)` may return a new name
        for the span and records count extras.
        """
        rec = self

        def wrapper(*args, **kwargs):
            if rec.job is None:
                return fn(*args, **kwargs)
            if fold and rec._active[fn.__qualname__]:
                return fn(*args, **kwargs)
            rec._active[fn.__qualname__] += 1
            frame = rec._enter(name_of(args))
            rename = None
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    rename = after(args, result)
                return result
            finally:
                rec._active[fn.__qualname__] -= 1
                rec._exit(frame, rename)

        return wrapper

    # -- patching -------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        rec = self
        counts = self.counts

        def named(name):
            return lambda args: name

        def maximize_before(objective, constraints):
            names = {n for n, _ in objective.coeffs}
            for lhs, rhs in constraints:
                names.update(n for n, _ in lhs.coeffs)
                names.update(n for n, _ in rhs.coeffs)
            counts["maximize.cells"] += len(constraints) * len(names)
            for frame in reversed(rec._stack):
                if frame[1].startswith("forcing."):
                    frame[3] += 1
                    break

        def maximize_after(args, result):
            counts["maximize.infeasible"] += result.status == feasibility.INFEASIBLE

        maximize_span = self._span(named("feasibility.maximize"), feasibility.maximize,
                                   after=maximize_after)

        def maximize(objective, constraints):
            if rec.job is not None:
                maximize_before(objective, constraints)
            return maximize_span(objective, constraints)

        self._set(feasibility, "maximize", maximize)

        def sup_leq_after(args, answer):
            counts["sup_leq.swept"] += answer.swept
            counts["sup_leq.unknown"] += answer.verdict == "unknown"

        def fp_after(args, bounds):
            counts["fp.unknown"] += bounds.lower is None or bounds.upper is None

        extras = {"forces_sup_leq": sup_leq_after, "fp_estimate": fp_after}
        for fn in FORCING_FUNCTIONS:
            self._set(forcing, fn, self._span(named(f"forcing.{fn}"),
                                              getattr(forcing, fn),
                                              after=extras.get(fn)))

        self._set(coding, "encode",
                  self._span(named("coding.encode"), coding.encode, fold=True))
        self._set(parser, "parse_formula",
                  self._span(named("parser.parse_formula"), parser.parse_formula))
        self._set(evaluator, "eval_sentence",
                  self._span(named("evaluator.eval_sentence"), evaluator.eval_sentence))
        eval_exact = self._span(named("evaluator.eval_exact"), evaluator.eval_exact,
                                fold=True)
        self._set(evaluator, "eval_exact", eval_exact)
        self._set(forcing, "eval_exact", eval_exact)

        base = presentations.Presentation
        for method, fold in (("point_object", True), ("atom_interval", False)):
            self._set(base, method, self._span(
                lambda args, m=method: f"presentations.{_presentation_kind(args[0])}.{m}",
                getattr(base, method), fold=fold))
        for cls in (presentations.MatrixTowerPresentation,
                    presentations.GroupVonNeumannPresentation,
                    presentations.ReducedCstarPresentation,
                    presentations.CantorSpacePresentation):
            self._set(cls, "norm_interval", self._span(
                lambda args: f"presentations.{_presentation_kind(args[0])}.norm_interval",
                cls.norm_interval))

        torus_span = self._span(named("torus.torus_sup_norm"), torus.torus_sup_norm)

        def torus_sup_norm(support, k):
            try:
                return torus_span(support, k)
            except torus.TorusBoundFailure:
                if rec.job is not None:
                    counts[f"torus.failures.d{len(next(iter(support)))}"] += 1
                raise

        self._set(torus, "torus_sup_norm", torus_sup_norm)
        self._set(presentations, "torus_sup_norm", torus_sup_norm)

        self._set(matrices.Matrix, "__mul__", self._span(
            named("matrices.Matrix.__mul__"), matrices.Matrix.__mul__))
        for fn in ("opnorm_upper", "opnorm_lower", "two_norm"):
            self._set(matrices, fn, self._span(named(f"matrices.{fn}"),
                                               getattr(matrices, fn)))

        def algebra_mul_after(args, result):
            counts["algebra.terms_out"] += len(result.coeffs)
            counts["algebra.muls"] += 1

        self._set(groups.AlgebraElement, "__mul__", self._span(
            named("groups.AlgebraElement.__mul__"), groups.AlgebraElement.__mul__,
            after=algebra_mul_after))

        muls_before: list[int] = []

        def moments_after(args, result):
            # only the convolution route multiplies algebra elements
            route = "conv" if counts["algebra.muls"] > muls_before[-1] else "dp"
            return f"groups.moments_up_to.{route}"

        moments_span = self._span(named("groups.moments_up_to"), groups.moments_up_to,
                                  after=moments_after)

        def moments_up_to(a, n):
            muls_before.append(counts["algebra.muls"])
            try:
                return moments_span(a, n)
            finally:
                muls_before.pop()

        self._set(groups, "moments_up_to", moments_up_to)
        self._set(groups, "lambda_norm_lower_sweep", self._span(
            named("groups.lambda_norm_lower_sweep"), groups.lambda_norm_lower_sweep))

        for fn, owners in (("sqrt_interval", (dyadic, groups, matrices)),
                           ("nth_root_lower_grid", (dyadic, groups)),
                           ("nth_root_upper_grid", (dyadic, matrices))):
            wrapped = self._span(named(f"dyadic.{fn}"), getattr(dyadic, fn))
            for owner in owners:
                self._set(owner, fn, wrapped)

        post_init = GaussianRational.__post_init__

        def counting_post_init(z):
            counts["gaussian.objects"] += 1
            post_init(z)

        self._set(GaussianRational, "__post_init__", counting_post_init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation ----------------------------------------------------------

    def aggregate(self) -> tuple[dict, float, float]:
        """Per-name [calls, busy, self], plus the summed job wall time and the
        largest per-job gap between summed self times and job wall time."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        per_name: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self_by_job: dict[int, float] = defaultdict(float)
        wall_by_job: dict[int, float] = {}
        for span_id, name, start, end, parent, job in self.spans:
            own = end - start - child_time[span_id]
            row = per_name[name]
            row[0] += 1
            row[1] += end - start
            row[2] += own
            self_by_job[job] += own
            if parent is None:
                wall_by_job[job] = end - start
        gap = max((abs(self_by_job[j] - wall) for j, wall in wall_by_job.items()),
                  default=0.0)
        return per_name, sum(wall_by_job.values()), gap

    def metrics(self, per_name: dict, overhead_share: float) -> dict[str, float]:
        """The per-layer metrics, from `aggregate()`'s per-name rows."""
        out: dict[str, float] = {}
        for name in span_names():
            calls, busy, own = per_name.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.busy_s"] = busy
            out[f"{name}.self_s"] = own
        counts = self.counts
        lp_calls = per_name.get("feasibility.maximize", (0,))[0]
        out["feasibility.maximize.cells"] = counts["maximize.cells"]
        out["feasibility.maximize.infeasible_share"] = (
            counts["maximize.infeasible"] / lp_calls if lp_calls else 0.0)
        for fn in FORCING_FUNCTIONS:
            calls = out[f"forcing.{fn}.calls"]
            out[f"forcing.{fn}.lp_per_call"] = (
                counts[f"forcing.{fn}.lp"] / calls if calls else 0.0)
        sup_calls = out["forcing.forces_sup_leq.calls"]
        fp_calls = out["forcing.fp_estimate.calls"]
        out["forcing.forces_sup_leq.swept"] = counts["sup_leq.swept"]
        out["forcing.forces_sup_leq.unknown_share"] = (
            counts["sup_leq.unknown"] / sup_calls if sup_calls else 0.0)
        out["forcing.fp_estimate.unknown_share"] = (
            counts["fp.unknown"] / fp_calls if fp_calls else 0.0)
        for d in TORUS_DIMENSIONS:
            out[f"torus.failures.d{d}"] = counts[f"torus.failures.d{d}"]
        out["groups.AlgebraElement.__mul__.terms_out"] = counts["algebra.terms_out"]
        out["gaussian.objects"] = counts["gaussian.objects"]
        job = per_name.get("job", (0, 0.0, 0.0))
        out["job.unspanned_self_s"] = job[2]
        out["trace.overhead_share"] = overhead_share
        return out

    def write(self, path: str) -> None:
        """Write the spans out as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, job in self.spans:
                handle.write(json.dumps({"id": span_id, "name": name, "start": start,
                                         "end": end, "parent": parent, "job": job}))
                handle.write("\n")

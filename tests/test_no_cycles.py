"""Every call into the package frees its working set by reference counting.

A nested function that calls itself by name holds its own closure cell, and
that cycle keeps everything its closures reach (compiled closures,
presentations, point objects, memos) alive until the cyclic garbage
collector finds it.  With the collector off, each case below runs one call
and then asks `gc.collect()` how many unreachable objects it left: none.
"""

import gc
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from contlogic import evaluator as E  # noqa: E402
from contlogic import formulas as F  # noqa: E402
from contlogic import matrices as M  # noqa: E402
from contlogic import presentations as P  # noqa: E402
from contlogic.gaussian import GaussianRational  # noqa: E402
from perfbench import workloads as W  # noqa: E402


def _cyclic_garbage(call) -> int:
    """Objects that only the cyclic collector frees after one `call()`."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def _first_job_of_each_kind():
    for workload, kinds in W.CYCLES.items():
        jobs = W.generate(workload, 1)
        for kind in kinds:
            yield pytest.param(next(job for job in jobs if job["kind"] == kind),
                               id=f"{workload}-{kind}")


@pytest.mark.parametrize("job", _first_job_of_each_kind())
def test_a_benchmark_job_leaves_no_cyclic_garbage(job):
    assert not W.check_job(job, W.run_job(job))
    assert _cyclic_garbage(lambda: W.run_job(job)) == 0


def test_an_eval_that_raises_mid_sweep_leaves_no_cyclic_garbage():
    x, c1 = F.Var("x"), F.CConst(1)
    sentence = F.Sup("x", F.DotMinus(F.Atomic("d", (x, x)), F.Atomic("d", (x, c1))))

    def call():
        try:
            E.eval_sentence(sentence, P.presentation_C2w(), E.EvalBudget(points=3))
        except E.UnboundConstant:
            pass
        else:
            raise AssertionError("c1 is unbound on C2w")

    assert _cyclic_garbage(call) == 0


def test_an_eval_refused_while_compiling_leaves_no_cyclic_garbage():
    x = F.Var("x")
    sentence = F.Sup("x", F.Atomic("d", (F.App("foo", (x,)), x)))  # not a term

    def call():
        try:
            E.eval_sentence(sentence, P.presentation_C2w(), E.EvalBudget(points=2))
        except E.EvalError as exc:
            assert str(exc).startswith("not a term")
        else:
            raise AssertionError("foo is no function")

    assert _cyclic_garbage(call) == 0


def test_opnorm_upper_past_the_switch_leaves_no_cyclic_garbage():
    # on 8x8 the trace chain switches to remainders at m = 6, where 2^(m-1)
    # passes ceil(n/2)^2 = 16, and the switch builds the H powers it lacks
    rows = [[GaussianRational(Fraction((3 * i + j) % 5 - 2, 1 + (i + j) % 3), Fraction(i - j, 4))
             for j in range(8)] for i in range(8)]
    bounds = []
    assert _cyclic_garbage(lambda: bounds.append(M.opnorm_upper(M.Matrix(rows), 8))) == 0
    ones = (GaussianRational(Fraction(1), Fraction(0)),) * 8
    assert bounds == [M.opnorm_upper(M.Matrix(rows), 8)]
    assert bounds[0] >= M.opnorm_lower(M.Matrix(rows), ones)

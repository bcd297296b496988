"""The traced benchmark run patches the package and puts every patch back.

`perfbench.tracing.Recorder.install` looks each name it patches up in its
owner's `__dict__`, so a method moved to a base class or a renamed function
breaks `perfbench/run.py --trace 1`.  This test runs install and uninstall
against the package; it only reads perfbench/.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import contlogic  # noqa: E402
from perfbench import tracing  # noqa: E402


def _namespaces():
    """Every module of the package and every class defined in one."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "contlogic" or name.startswith("contlogic.")]
    classes = [v for m in modules for v in vars(m).values()
               if isinstance(v, type) and v.__module__ == m.__name__]
    return modules + classes


def _snapshot():
    return {id(ns): dict(vars(ns)) for ns in _namespaces()}


def test_recorder_install_patches_and_uninstall_restores():
    assert contlogic.__version__
    before = _snapshot()
    rec = tracing.Recorder()
    try:
        rec.install()
        patches = list(rec._patches)
        assert patches
        originals = {}
        for owner, attr, original in patches:
            originals.setdefault((id(owner), attr), original)
        for owner, attr, _ in patches:
            assert vars(owner)[attr] is not originals[(id(owner), attr)], (owner, attr)
    finally:
        rec.uninstall()
    for owner, attr, _ in patches:
        assert vars(owner)[attr] is originals[(id(owner), attr)], (owner, attr)
    after = _snapshot()
    assert after.keys() == before.keys()
    for key, names in before.items():
        assert after[key].keys() == names.keys()
        changed = [n for n, v in names.items() if after[key][n] is not v]
        assert not changed, changed

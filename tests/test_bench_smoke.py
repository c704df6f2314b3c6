"""A smoke run of the benchmark's ops: every op of every perfbench workload
runs once on the package under test and passes its own check.

A package API change that breaks the benchmark fails here, in the test
suite, before a benchmark run ends in `run_failed`.  The workloads are
imported from `perfbench/` as they stand; nothing there is written, not
even bytecode.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

import bifrac

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        mp.setattr(sys, "dont_write_bytecode", True)
        yield importlib.import_module("workloads").WORKLOADS
        for name in ("workloads", "oracles"):
            sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ("verify-1d", "domination-1d", "grid-2d", "constants-1d"))
def test_every_benchmark_op_runs_and_passes_its_check(workloads, name):
    wl = workloads[name](bifrac, 1)
    wl.setup()
    assert wl.op_list
    problems = [wl.check(i, [(wl.run(op), None)]) for i, op in enumerate(wl.op_list)]
    assert [p for p in problems if p is not None] == []

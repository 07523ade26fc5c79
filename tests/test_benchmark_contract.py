"""The benchmark in ``perfbench/`` patches solver names from outside.

A traced run fails if a name the tracer wraps is renamed or deleted, if
``Factorization.__init__`` changes signature, or if a solve makes fewer
than two linearized LUs (the tracer takes percentiles of their times).
It also needs every ``Factorization.__init__`` on the calling thread, one
after the other: the tracer keeps one span stack, so an ``__init__`` on
another thread, or two at once, would nest spans wrongly.  Only SuperLU
itself may run on a worker (``linalg.SaddlePattern.factorize_all``).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def traced_run(workload: str, out: Path) -> dict:
    """The JSON line of one traced seed-0 ``perfbench/once.py`` run."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "once.py"), "--workload", workload,
         "--seed", "0", "--trace", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_tiny_benchmark_run(tmp_path):
    out = traced_run("tiny", tmp_path)
    assert out["outcome"] == "converged"
    layers = out["layers"]
    assert layers
    # the tracer's LU counts agree with the run's own: N = 4 levels per
    # iterate, of which the direction sweep factorizes levels 1 and 4
    iterations = len(out["sqrt2E"]) - 1
    assert layers["linalg.factorizations.heat"] == 1
    assert layers["linalg.factorizations.stokes"] == 1
    assert layers["linalg.factorizations.linearized"] == 2 * iterations


@pytest.mark.slow
@pytest.mark.parametrize("workload, outcome", [("desk-cavity", "converged"),
                                               ("fine-iterate", "max_iterations"),
                                               ("manufactured-levels", "converged")])
def test_traced_workload_run(tmp_path, workload, outcome):
    out = traced_run(workload, tmp_path)
    assert out["outcome"] == outcome
    assert out["output_problems"] == []
    assert out["layers"]["linalg.factorizations.linearized"] >= 2

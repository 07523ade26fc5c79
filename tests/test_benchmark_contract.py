"""The benchmark in ``perfbench/`` patches solver names from outside.

A traced run of its tiny workload fails if a name the tracer wraps is
renamed or deleted, or if ``Factorization.__init__`` changes signature.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_tiny_benchmark_run(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "once.py"), "--workload", "tiny",
         "--seed", "0", "--trace", "1", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["outcome"] == "converged"
    layers = out["layers"]
    assert layers
    # the tracer's LU counts agree with the run's own: N = 4 levels per iterate
    iterations = len(out["sqrt2E"]) - 1
    assert layers["linalg.factorizations.heat"] == 1
    assert layers["linalg.factorizations.stokes"] == 1
    assert layers["linalg.factorizations.linearized"] == 4 * iterations

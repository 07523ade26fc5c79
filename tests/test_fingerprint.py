"""The fingerprint comparison fails a sqrt2E row that moves past the gate
or turns NaN on one side only."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fingerprint.py"
BASE = [1.0, 1e-2, 1e-5, 1e-9]


def _fingerprint():
    spec = importlib.util.spec_from_file_location("fingerprint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(path, sqrt2e):
    rows = np.array(sqrt2e, dtype=float)
    np.savez(path, names=np.array(["solve"]), **{
        "solve/outcome": np.array("converged"),
        "solve/sqrt2E": rows,
        "solve/lambda": np.full(len(rows), np.nan),
        "solve/rel_increment": np.full(len(rows), np.nan),
        "solve/trajectory": np.zeros((2, 3)),
    })
    return path


@pytest.mark.parametrize("a, b, status", [
    (BASE, BASE, 0),
    (BASE, [1.0, 1e-2 * (1 + 1e-12), 1e-5, 1e-9], 0),  # 1e-14 (r_1 + r_0)
    (BASE, [1.0, 1e-2, 1e-5, 1e-9 + 1e-13], 1),  # 1e-8 (r_3 + r_2)
    (BASE, [1.0, 1e-2, np.nan, 1e-9], 1),
    ([1.0, np.nan, 1e-5], [1.0, np.nan, 1e-5], 0),
], ids=["identical", "within-gate", "over-gate", "nan-one-side", "nan-both-sides"])
def test_compare_gates_sqrt2e_rows(a, b, status, tmp_path):
    fingerprint = _fingerprint()
    assert fingerprint.ROW_GATE == 1e-9
    result = fingerprint.compare(_write(tmp_path / "a.npz", a),
                                 _write(tmp_path / "b.npz", b))
    assert result == status

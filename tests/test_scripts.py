"""Every script under ``scripts/`` imports against the current package, so
a changed or removed name that a script uses fails here, not on its next
long run.  Importing runs no script: each keeps its work under
``if __name__ == "__main__"``."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def _load(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.stem for p in SCRIPTS])
def test_script_imports(path):
    assert callable(_load(path).main)


def _result_line(correct, solve_s, rss):
    return json.dumps({"correct": correct, "attempted": 5, "failed": 0 if correct else 1,
                       "metrics": {"solve_s": {"value": solve_s, "unit": "s"},
                                   "peak_rss_mb": {"value": rss, "unit": "MB"}}})


def test_bench_pairs_summary():
    """Medians per side, the median change/parent ratio over the rounds
    with both sides correct, and the incorrect runs by round and side."""
    bench_pairs = _load(SCRIPTS[0].parent / "bench_pairs.py")
    lines = [(_result_line(True, 1.0, 100.0), _result_line(True, 0.9, 100.0)),
             (_result_line(True, 2.0, 110.0), _result_line(True, 1.6, 121.0)),
             (_result_line(True, 1.0, 100.0), _result_line(True, 1.1, 100.0)),
             (_result_line(True, 9.0, 100.0), _result_line(False, 0.1, 100.0))]
    summary = bench_pairs.summarize([tuple(map(json.loads, pair)) for pair in lines])
    assert summary["incorrect"] == [(3, "change")]
    solve = summary["metrics"]["solve_s"]
    assert solve["parent"] == 1.0 and solve["change"] == 1.1
    assert solve["ratio"] == pytest.approx(0.9)
    assert (solve["ratio_min"], solve["ratio_max"]) == pytest.approx((0.8, 1.1))
    assert (solve["lower"], solve["rounds"]) == (2, 3)
    rss = summary["metrics"]["peak_rss_mb"]
    assert rss["ratio"] == 1.0 and rss["ratio_max"] == pytest.approx(1.1)
    assert "INCORRECT: round 3 change" in bench_pairs.report("w", summary)

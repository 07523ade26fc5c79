"""Every script under ``scripts/`` imports against the current package, so
a changed or removed name that a script uses fails here, not on its next
long run.  Importing runs no script: each keeps its work under
``if __name__ == "__main__"``."""

import importlib.util
import json
import math
from pathlib import Path
from types import SimpleNamespace

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
    """Medians and quartiles per side, the median change/parent ratio over the rounds
    with both sides correct, the incorrect runs by round and side, and the verdict
    per metric: ``gain`` from nine wins in ten rounds by more than the parent's
    q3 - q1, ``worse`` past the metric's bound, ``-`` otherwise."""
    bench_pairs = _load(SCRIPTS[0].parent / "bench_pairs.py")
    lines = [(_result_line(True, 1.0, 100.0), _result_line(True, 0.9, 100.0)),
             (_result_line(True, 2.0, 110.0), _result_line(True, 1.6, 121.0)),
             (_result_line(True, 1.0, 100.0), _result_line(True, 1.1, 100.0)),
             (_result_line(True, 9.0, 100.0), _result_line(False, 0.1, 100.0))]
    summary = bench_pairs.summarize([tuple(map(json.loads, pair)) for pair in lines])
    assert summary["incorrect"] == [(3, "change")]
    solve = summary["metrics"]["solve_s"]
    assert solve["parent"] == 1.0 and solve["change"] == 1.1
    assert solve["parent_quartiles"] == (1.0, 1.5)
    assert solve["change_quartiles"] == pytest.approx((1.0, 1.35))
    assert solve["ratio"] == pytest.approx(0.9)
    assert (solve["ratio_min"], solve["ratio_max"]) == pytest.approx((0.8, 1.1))
    assert (solve["lower"], solve["rounds"]) == (2, 3)
    rss = summary["metrics"]["peak_rss_mb"]
    assert rss["ratio"] == 1.0 and rss["ratio_max"] == pytest.approx(1.1)
    assert "INCORRECT: round 3 change" in bench_pairs.report("w", summary)
    assert solve["verdict"] == rss["verdict"] == "-"  # 2 of 3 lower; 1.0 ratio

    def verdicts(solve, rss):
        """Verdict per metric of rounds given as ``(parent, change)`` values."""
        pairs = [tuple(json.loads(_result_line(True, *side)) for side in zip(s, r))
                 for s, r in zip(solve, rss)]
        return {name: m["verdict"]
                for name, m in bench_pairs.summarize(pairs)["metrics"].items()}

    parent = [1.0 + 0.01 * i for i in range(10)]  # q3 - q1 = 0.045
    nine_wins = [(p, 0.8 if i < 9 else 1.5) for i, p in enumerate(parent)]
    eight_wins = [(p, 0.8 if i < 8 else 1.5) for i, p in enumerate(parent)]
    assert verdicts(nine_wins, [(100.0, 126.0)] * 10) == {
        "solve_s": "gain", "peak_rss_mb": "worse"}  # past the 0.25 bound
    assert verdicts(eight_wins, [(100.0, 124.0)] * 10) == {
        "solve_s": "-", "peak_rss_mb": "-"}
    wide = [(1.0 + i, 0.9 + i) for i in range(10)]  # 10 of 10, by less than q3 - q1
    assert verdicts(wide, [(100.0, 100.0)] * 10)["solve_s"] == "-"
    rules = bench_pairs.metric_rules()
    assert rules["unscaled_solve_s"]["bound"] == rules["solve_s"]["bound"] == 0.25



@pytest.mark.parametrize("argv, seed", [([], "0"), (["--seed", "1"], "1")])
def test_bench_pairs_passes_its_seed(argv, seed, monkeypatch, capsys):
    """Every benchmark run of ``bench_pairs`` gets its ``--seed``, 0 when
    omitted."""
    bench_pairs = _load(SCRIPTS[0].parent / "bench_pairs.py")
    runs = []

    def run(cmd, **kwargs):
        runs.append(cmd)
        return SimpleNamespace(stdout=_result_line(True, 1.0, 100.0) + "\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    assert bench_pairs.main(["--parent", "a", "--change", "b", "--workloads", "w",
                             "--rounds", "2", "--seconds", "1", *argv]) == 0
    assert len(runs) == 4
    assert all(cmd[cmd.index("--seed") + 1] == seed for cmd in runs)


def test_bench_pairs_reports_unscaled_ratios(monkeypatch, capsys):
    """The unscaled medians of each run's detail line join its metrics, and
    the report prints their change/parent ratios beside the calibrated
    ones; a run without a detail line keeps only its result line."""
    bench_pairs = _load(SCRIPTS[0].parent / "bench_pairs.py")
    unscaled = {"parent": (2.0, 0.5, 1.5), "change": (1.5, 0.25, 1.25)}

    def run(cmd, cwd, **kwargs):
        wall, setup, solve = unscaled[Path(cwd).name]
        detail = {"samples": {"unscaled_wall_s": {"median": wall},
                              "unscaled_setup_s": {"median": setup},
                              "unscaled_solve_s": {"median": solve},
                              "solve_s": {"median": 9.0}}}
        return SimpleNamespace(stdout=json.dumps(detail) + "\n"
                               + _result_line(True, 1.0, 100.0) + "\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    assert bench_pairs.main(["--parent", "parent", "--change", "change",
                             "--workloads", "w", "--rounds", "2", "--seconds", "1"]) == 0
    table = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()
             if line.startswith("  ")}
    assert table["solve_s"][3] == "1.000"
    assert table["unscaled_wall_s"][1:4] == ["2", "1.5", "0.750"]
    assert table["unscaled_setup_s"][3] == "0.500"
    assert table["unscaled_solve_s"][3] == "0.833"
    assert table["unscaled_solve_s"][5] == "2/2"
    assert table["unscaled_solve_s"][-1] == "gain" and table["solve_s"][-1] == "-"

    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda cmd, **kwargs: SimpleNamespace(
        stdout=_result_line(True, 1.0, 100.0) + "\n"))
    assert set(bench_pairs.run_once(Path("a"), "w", 1, 0)["metrics"]) == {
        "solve_s", "peak_rss_mb"}


def test_convergence_study_prints_levels_and_rate(capsys):
    """Two coupled levels print one row each, then the fitted rate in h."""
    study = _load(SCRIPTS[0].parent / "convergence_study.py")
    study.main(["--levels", "2", "--n0", "2", "--steps0", "2"])
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[1:] if line and not line.startswith("fitted")]
    assert [row[0] for row in rows] == ["2", "4"]
    assert rows[0][3] == "-" and math.isfinite(float(rows[1][3]))
    assert lines[-1].startswith("fitted rate in h: ")
    assert math.isfinite(float(lines[-1].split()[4]))


CONFIGS = sorted((SCRIPTS[0].parent.parent / "configs").glob("*.ini"))


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_config_parses(path):
    """Every shipped config is a valid ``nslsq run`` config, and every
    ``[reference]`` row is a finite positive sqrt(2E)."""
    from nslsq import cli

    text = path.read_text()
    cli.parse_config(text)
    if "[reference]" in text:
        rows = _load(SCRIPTS[0].parent / "full_scale.py").reference_rows(text)
        assert rows and all(math.isfinite(r) and r > 0 for r in rows)


def test_full_scale_mismatches():
    """Rows are compared at two significant figures; a row that one side
    lacks is a mismatch, NaN on that side."""
    mismatches = _load(SCRIPTS[0].parent / "full_scale.py").mismatches
    ref = [2.690e-2, 1.077e-2, 3.653e-3]
    assert mismatches([2.651e-2, 1.0549e-2, 3.7e-3], ref) == []
    assert mismatches([2.649e-2, 1.077e-2, 3.6e-3], ref) == [
        (0, 2.649e-2, 2.690e-2), (2, 3.6e-3, 3.653e-3)]
    (k, got, want), = mismatches(ref[:2], ref)
    assert (k, want) == (2, 3.653e-3) and math.isnan(got)
    (k, got, want), = mismatches(ref + [1e-9], ref)
    assert (k, got) == (3, 1e-9) and math.isnan(want)


def test_full_scale_checks_its_own_history(tmp_path, capsys):
    """A config whose reference is its own history matches on every row;
    with one row perturbed, the wrapper names that row, and the exit code
    stays that of the run."""
    full_scale = _load(SCRIPTS[0].parent / "full_scale.py")
    out = tmp_path / "run"
    experiment = ("[experiment]\ngeometry = semidisk\nh = 0.2\nT = 0.4\ndt = 0.1\n"
                  f"nu = 1/100\noutdir = {out}\n")
    config = tmp_path / "small.ini"
    config.write_text(experiment + "[reference]\nsqrt2E = 1.0\n")
    assert full_scale.main([str(config)]) == 0
    rows = [row.split(",")[2] for row in (out / "history.csv").read_text().splitlines()[1:]]
    assert len(rows) > 2
    assert f"{len(rows)} of {len(rows)} rows differ" in capsys.readouterr().out

    config.write_text(experiment + "[reference]\nsqrt2E = " + ", ".join(rows) + "\n")
    assert full_scale.main([str(config)]) == 0
    assert f"all {len(rows)} rows match" in capsys.readouterr().out

    rows[1] = f"{2 * float(rows[1]):.3e}"
    config.write_text(experiment + "[reference]\nsqrt2E = " + ", ".join(rows) + "\n")
    assert full_scale.main([str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"1 of {len(rows)} rows differ" in lines[-2]
    assert lines[-1].startswith("  k=1: got ") and lines[-1].endswith(f"reference {rows[1]}")

"""nslsq benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Repeats one workload for about S
seconds, one solve at a time (closed loop), each solve in a fresh
interpreter (``once.py``) so that set-up time and peak memory belong to
that solve.  Every solve is checked; timings are medians over the solves
that passed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace
0`` the metrics are the end-to-end ones; with ``--trace 1`` untraced and
traced solves alternate, and the metrics are the per-layer ones from the
traced solves plus the tracing overhead.  The line before it carries the
details: sample counts and ranges, the unscaled times, problem sizes, the
environment and every failed check.  Traced spans go to ``.perfbench/``
in the checkout.

Times are in reference seconds.  The host this benchmark was built on
switches between a fast and a slow phase (about 1.5x apart) every few
seconds to minutes, so raw medians of 30 s runs drift by 20-30%.  The
driver therefore times a fixed calibration kernel that does not use
nslsq (``calibrate``) before the first solve and after every solve, and
scales each solve's times by ``CALIB_REF_S`` over the mean of the two
calibrations around it.  The kernel runs in the driver, so it adds
nothing to a solve's peak memory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, Workload  # noqa: E402

RUN_LIMIT_S = 150.0  # a run must end within 180 s
THREAD_PINS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS")}
# A fixed hash seed fixes dict and set orders, and with them much of the
# allocation pattern: peak memory then varies far less from solve to solve.
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0", **THREAD_PINS)
MIN_ROUNDS = {False: 3, True: 2}  # a traced round is an untraced and a traced solve
# A history row is computed from chains of solves that each meet the
# relative-residual contract 1e-8 of nslsq.linalg.  Allowing two orders of
# magnitude of amplification, row k may move by 1e-6 of itself plus 1e-6
# of row k-1 (which bounds the error a solve can leave in the quadratic tail).
RESIDUAL_CONTRACT = 1e-8
ROW_RTOL = 100 * RESIDUAL_CONTRACT
DIVERGENCE_TOL = RESIDUAL_CONTRACT
ERROR_RTOL = 0.05  # seeded meshes move the manufactured error by about 1%

CALIB_REF_S = 0.25  # about calibrate() on the 2-vCPU box the bounds were set on
TIMES = ("wall_s", "setup_s", "solve_s")
END_TO_END = {"wall_s": "s", "setup_s": "s", "solve_s": "s",
              "outer_iterations": "count", "peak_rss_mb": "MB"}


def unit_of(layer_metric: str) -> str:
    if layer_metric.endswith("_s") or "_s." in layer_metric:
        return "s"
    if "_ms." in layer_metric:
        return "ms"
    if layer_metric.endswith(("_ratio", "_share", "_coverage")):
        return "ratio"
    return "count"


def calibrate() -> float:
    """Seconds for a fixed mix of the work a solve does: sparse LU and its
    solves, dense einsum contractions and interpreted loops.

    It runs on numpy and scipy alone, so no change to nslsq moves it; it
    measures how fast the machine is around a solve.
    """
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    def laplacian(n):
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        return (sp.kron(lap, eye) + sp.kron(eye, lap) + 0.1 * sp.identity(n * n)).tocsc()

    small, large = laplacian(40), laplacian(110)
    g = np.linspace(0.0, 1.0, 256 * 7 * 6 * 2).reshape(256, 7, 6, 2)
    t0 = time.perf_counter()
    for a in (large, small, small, small) * 3:
        lu = spla.splu(a)
        b = np.linspace(0.0, 1.0, a.shape[0])
        for _ in range(10):
            lu.solve(b)
        np.einsum("tqjd,tqkd->tjk", g, g)
        acc = 0
        for k in range(30000):
            acc += k * k
    return time.perf_counter() - t0


def solve_once(w: Workload, seed: int, trace: bool, rep: int, timeout: float):
    """One solve in a fresh interpreter: (its JSON record, None) or
    (None, the reason it failed)."""
    outdir = WORK / f"out-{rep}"
    shutil.rmtree(outdir, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "once.py"), "--workload", w.name,
           "--seed", str(seed), "--trace", str(int(trace)), "--out", str(outdir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"solve exceeded {timeout:.0f} s"
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"exit code {proc.returncode}: {tail[0]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def check(w: Workload, seed: int, data: dict, reference: dict) -> list[str]:
    """Problems with one solve; an empty list means it passed."""
    problems = list(data["output_problems"])
    rows = data["sqrt2E"]
    if data["outcome"] != w.outcome:
        problems.append(f"outcome {data['outcome']}, expected {w.outcome}")
    if w.outcome == "converged" and not rows[-1] <= w.tol:
        problems.append(f"final sqrt2E {rows[-1]:.3e} above tol {w.tol:.0e}")
    if any(not b < a for a, b in zip(rows, rows[1:])):
        problems.append("sqrt2E does not decrease strictly")
    if not data["divergence_sup"] <= DIVERGENCE_TOL:
        problems.append(f"divergence_sup {data['divergence_sup']:.3e} above "
                        f"{DIVERGENCE_TOL:.0e}")
    ref = reference.get(w.name)
    if ref is None:
        return problems
    if w.manufactured and not abs(data["l2v_error"] - ref["l2v_error"]) <= (
            ERROR_RTOL * ref["l2v_error"]):
        problems.append(f"L2(0,T;V) error {data['l2v_error']:.4f}, seed-0 "
                        f"reference {ref['l2v_error']:.4f}")
    if seed != 0:
        return problems
    if data["outcome"] != ref["outcome"] or len(rows) != len(ref["sqrt2E"]):
        problems.append(f"{data['outcome']} after {len(rows) - 1} iterations, "
                        f"reference {ref['outcome']} after {len(ref['sqrt2E']) - 1}")
        return problems
    prev = 0.0
    for k, (x, r) in enumerate(zip(rows, ref["sqrt2E"])):
        if not abs(x - r) <= ROW_RTOL * (r + prev):
            problems.append(f"row {k}: sqrt2E {x!r}, reference {r!r}")
        prev = r
    return problems


def collect(w: Workload, seed: int, seconds: float, trace: bool,
            reference: dict) -> dict:
    """Solve repeatedly for about ``seconds``; returns the checked records
    of both kinds (untraced, traced) and every problem found."""
    t0 = time.perf_counter()
    kinds = (False, True) if trace else (False,)
    good = {False: [], True: []}
    problems, attempted, rounds, round_s = [], 0, 0, []
    calib = calibrate()
    while True:
        r0 = time.perf_counter()
        for traced in kinds:
            timeout = max(5.0, RUN_LIMIT_S - (time.perf_counter() - t0))
            data, error = solve_once(w, seed, traced, attempted, timeout)
            attempted += 1
            before, calib = calib, calibrate()
            if data is not None:
                data["calib_s"] = [before, calib]
            found = [error] if error else check(w, seed, data, reference)
            if found:
                problems.append({"solve": attempted - 1, "problems": found})
            else:
                good[traced].append(data)
        rounds += 1
        round_s.append(time.perf_counter() - r0)
        elapsed = time.perf_counter() - t0
        typical = statistics.median(round_s)
        if elapsed + typical > RUN_LIMIT_S:
            break
        if rounds >= MIN_ROUNDS[trace] and elapsed + typical > seconds:
            break
    return {"good": good, "problems": problems, "attempted": attempted}


def scale(data: dict) -> float:
    """Factor taking a solve's times to reference seconds."""
    return CALIB_REF_S / statistics.fmean(data["calib_s"])


def _spread(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def summarize(w: Workload, seed: int, trace: bool, runs: dict) -> tuple[dict, dict]:
    """(detail record, result line) of one benchmark run."""
    good = runs["good"]
    plain = good[False]
    failed = len(runs["problems"])
    samples = {}
    for name in TIMES:
        samples[name] = [d["timings"][name] * scale(d) for d in plain]
        samples[f"unscaled_{name}"] = [d["timings"][name] for d in plain]
    samples["outer_iterations"] = [len(d["sqrt2E"]) - 1 for d in plain]
    samples["peak_rss_mb"] = [d["peak_rss_mb"] for d in plain]
    metrics = {}
    if trace and good[True] and plain:
        traced = good[True]
        for name in traced[0]["layers"]:
            unit = unit_of(name)
            values = [d["layers"][name] * (scale(d) if unit in ("s", "ms") else 1)
                      for d in traced]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        traced_wall = statistics.median(d["timings"]["wall_s"] * scale(d) for d in traced)
        metrics["trace.overhead_s"] = {
            "value": traced_wall - statistics.median(samples["wall_s"]), "unit": "s"}
    elif not trace and plain:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
    any_good = (good[True] or plain or [{}])[0]
    detail = {
        "workload": w.name, "seed": seed, "trace": int(trace),
        "fail_ratio": failed / runs["attempted"],
        "samples": {k: _spread(v) for k, v in samples.items() if v},
        "sizes": any_good.get("sizes"),
        "env": dict(any_good.get("env") or {}, thread_pins=THREAD_PINS),
        "problems": runs["problems"],
    }
    result = {"correct": failed == 0 and bool(metrics), "attempted": runs["attempted"],
              "failed": failed, "metrics": metrics}
    return detail, result


def write_trace(w: Workload, seed: int, traced: list[dict]) -> Path:
    """All spans of the traced solves, one row each, tagged with a run id."""
    path = WORK / f"trace-{w.name}-seed{seed}.json"
    rows = [[f"{w.name}-{seed}-{i}", *span]
            for i, d in enumerate(traced) for span in d["spans"]]
    path.write_text(json.dumps({"columns": ["run", "name", "label", "start", "end",
                                            "parent"], "spans": rows}) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nslsq" / "__init__.py").is_file():
        print(f"error: no nslsq sources under {ROOT / 'src'}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)  # before calibrate() loads numpy
    w = WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text())
    WORK.mkdir(exist_ok=True)
    runs = collect(w, args.seed, args.seconds, bool(args.trace), reference)
    detail, result = summarize(w, args.seed, bool(args.trace), runs)
    if runs["good"][True]:
        detail["trace_file"] = str(write_trace(w, args.seed, runs["good"][True])
                                   .relative_to(ROOT))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark harness on a tiny case (unit square n = 2, N = 4).

    python3 perfbench/selftest.py

Checks that
1. every metric of BENCHMARK.json prints, by name and with its unit, in
   both modes, and nothing else does;
2. the spans nest: children lie inside their parent, no self time is
   negative, and the self times of a solve sum to its root span;
3. a deliberately broken check (a reference history that no solve can
   match) makes every solve count as failed, while the true reference
   lets every solve pass.
Exits 0 when all three hold.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS, collect, solve_once, summarize
from tracing import nesting_errors, self_times

TINY = WORKLOADS["tiny"]


def benchmark_lines(trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", TINY.name, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"run.py --trace {trace} failed: {proc.stderr[-400:]}")
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail), json.loads(result)


def check_metrics() -> list[str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        _, result = benchmark_lines(trace)
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            errors.append(f"trace {trace}: result keys {sorted(result)}")
        if not result["correct"]:
            errors.append(f"trace {trace}: tiny run not correct")
        want = {m["name"]: m["unit"] for m in bench[group]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            errors.append(f"trace {trace}: missing {sorted(set(want) - set(got))}, "
                          f"extra {sorted(set(got) - set(want))}, units differ for "
                          f"{sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")
        bad = [n for n, m in result["metrics"].items()
               if not isinstance(m["value"], (int, float))]
        if bad:
            errors.append(f"trace {trace}: non-numeric values for {bad}")
    return errors


def check_spans() -> list[str]:
    data, error = solve_once(TINY, 1, True, 0, timeout=120)
    if error:
        return [f"traced solve failed: {error}"]
    spans = data["spans"]
    errors = nesting_errors(spans)
    root = spans[0]
    if root[0] != "bench.wall" or any(s[4] is None for s in spans[1:]):
        errors.append("spans do not form one tree under bench.wall")
    total, duration = sum(self_times(spans)), root[3] - root[2]
    if abs(total - duration) > 1e-9 * max(1.0, duration):
        errors.append(f"self times sum to {total!r}, root span lasts {duration!r}")
    if not 0.9 < data["layers"]["trace.solve_coverage"] <= 1.0 + 1e-9:
        errors.append(f"solve coverage {data['layers']['trace.solve_coverage']}")
    return errors


def check_broken_reference() -> list[str]:
    data, error = solve_once(TINY, 0, False, 0, timeout=120)
    if error:
        return [f"reference solve failed: {error}"]
    true_ref = {TINY.name: {"outcome": data["outcome"], "sqrt2E": data["sqrt2E"],
                            "l2v_error": data["l2v_error"]}}
    broken = {TINY.name: dict(true_ref[TINY.name],
                              sqrt2E=[2.0 * x for x in data["sqrt2E"]])}
    errors = []
    for reference, want in ((true_ref, 0.0), (broken, 1.0)):
        runs = collect(TINY, 0, 0.0, False, reference)
        detail, result = summarize(TINY, 0, False, runs)
        if detail["fail_ratio"] != want or result["correct"] != (want == 0.0):
            errors.append(f"fail_ratio {detail['fail_ratio']} (want {want}), "
                          f"correct {result['correct']}")
    return errors


def main() -> int:
    failed = False
    for name, test in (("metrics print by name and unit", check_metrics),
                       ("child self times sum to the parent span", check_spans),
                       ("a broken check raises fail_ratio", check_broken_reference)):
        errors = test()
        failed |= bool(errors)
        print(f"{'FAIL' if errors else 'ok  '} {name}")
        for e in errors:
            print(f"     {e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

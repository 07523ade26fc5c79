"""Record the seed-0 reference histories the benchmark checks against.

    python3 perfbench/record_reference.py

Solves every benchmark workload once on the unperturbed mesh and writes
``perfbench/reference.json``: the outcome, the ``sqrt2E`` history and,
for the manufactured workload, the L2(0,T;V) error.  Re-record only when
a change is meant to alter these results, and say so with the change.
"""

from __future__ import annotations

import json
import sys

from run import HERE, WORK, WORKLOADS, solve_once


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)
    reference = {}
    for entry in bench["workloads"]:
        w = WORKLOADS[entry["name"]]
        data, error = solve_once(w, 0, False, 0, timeout=600.0)
        if error:
            print(f"{w.name}: {error}", file=sys.stderr)
            return 1
        reference[w.name] = {"outcome": data["outcome"], "sqrt2E": data["sqrt2E"],
                             "l2v_error": data["l2v_error"], "sizes": data["sizes"]}
        print(f"{w.name}: {data['outcome']}, {len(data['sqrt2E']) - 1} iterations")
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Interleaved benchmark pairs of two checkouts of the repository.

    python scripts/bench_pairs.py --parent OLD --change NEW \\
        --workloads desk-cavity manufactured-levels --rounds 6 --seconds 20 [--seed 1]

Each round runs ``perfbench/run.py --seed N --trace 0`` (``--seed``,
default 0) once in each checkout per workload, in the order parent,
change in even rounds and change, parent in odd ones, so that the host's
slow drifts fall on both sides alike.  Per workload it prints, for every
end-to-end metric, each side's median and quartiles over the rounds, the
median of the per-round change/parent ratios with their range, and in
how many rounds the change read lower, and a verdict by the rule a
claim is judged by: ``gain`` when the change reads better in at least
nine of ten rounds and its median beats the parent's by more than the
parent's q3 - q1, ``worse`` when its median is past the parent's by
more than the metric's ``bound`` in ``BENCHMARK.json`` (relative to the
parent's median; an ``unscaled_*`` time takes its base metric's bound),
and ``-`` otherwise.  Beside the calibrated times it
prints the same for the unscaled medians ``unscaled_wall_s``,
``unscaled_setup_s`` and ``unscaled_solve_s`` from the detail line
``run.py`` prints before its result line, because the calibration scale
of a run moves its side of a pair as well.
Every run whose result line is not ``correct`` is listed, and the script
then exits 1.  A run of one side takes about ``--seconds`` plus the
calibrations of ``run.py``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
UNSCALED = ("unscaled_wall_s", "unscaled_setup_s", "unscaled_solve_s")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def metric_rules() -> dict:
    """``better`` and ``bound`` of each end-to-end metric of
    ``BENCHMARK.json`` by name, an ``unscaled_*`` time taking its base
    metric's."""
    rules = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    rules.update((name, rules[name.removeprefix("unscaled_")]) for name in UNSCALED)
    return rules


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """The result line (the last line of standard output) of one benchmark
    run in ``checkout``, its metrics joined by the unscaled medians of the
    detail line before it; a run that prints no result line counts as
    incorrect."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "metrics": {}}
    try:
        samples = json.loads(lines[-2])["samples"]
    except (IndexError, json.JSONDecodeError, KeyError, TypeError):
        samples = {}
    for name in UNSCALED:
        if name in samples:
            result["metrics"][name] = {"value": samples[name]["median"], "unit": "s"}
    return result


def _quartiles(values) -> tuple[float, float]:
    """First and third quartiles; one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(m: dict, values: list, rule: dict | None) -> str:
    """``gain``, ``worse`` or ``-`` for one metric's summary ``m`` and its
    rounds' ``(parent, change)`` ``values`` under its ``rule`` (see the
    module docstring); a round that ties counts for neither side, and a
    metric without a rule is ``-``."""
    if rule is None:
        return "-"
    sign = 1 if rule["better"] == "lower" else -1
    gain = sign * (m["parent"] - m["change"])  # negative: the change is worse
    wins = sum(sign * (p - c) > 0 for p, c in values)
    q1, q3 = m["parent_quartiles"]
    if 10 * wins >= 9 * len(values) and gain > q3 - q1:
        return "gain"
    return "worse" if -gain > rule["bound"] * m["parent"] else "-"


def summarize(pairs: list[tuple[dict, dict]]) -> dict:
    """Per metric, the sides' medians and quartiles, the change/parent
    ratios and the ``verdict`` of the ``(parent, change)`` result lines of
    one workload, and the ``(round, side)`` of every incorrect run.  A
    round with an incorrect side adds no ratio."""
    rules = metric_rules()
    incorrect = [(i, side) for i, pair in enumerate(pairs)
                 for side, res in zip(SIDES, pair) if not res.get("correct")]
    bad_rounds = {i for i, _ in incorrect}
    good = [pair for i, pair in enumerate(pairs) if i not in bad_rounds]
    metrics = {}
    names = [name for name in (good[0][0]["metrics"] if good else ())
             if all(name in res["metrics"] for pair in good for res in pair)]
    for name in names:
        values = [[res["metrics"][name]["value"] for res in pair] for pair in good]
        ratios = [c / p for p, c in values if p != 0]
        parent, change = zip(*values)
        metrics[name] = {
            "parent": statistics.median(parent),
            "change": statistics.median(change),
            "parent_quartiles": _quartiles(parent),
            "change_quartiles": _quartiles(change),
            "ratio": statistics.median(ratios) if ratios else None,
            "ratio_min": min(ratios, default=None),
            "ratio_max": max(ratios, default=None),
            "lower": sum(c < p for p, c in values),
            "rounds": len(values),
        }
        metrics[name]["verdict"] = verdict(metrics[name], values, rules.get(name))
    return {"metrics": metrics, "incorrect": incorrect}


def report(workload: str, summary: dict) -> str:
    lines = [f"{workload}:",
             f"  {'metric':<18} {'parent':>10} {'change':>10} {'ratio':>6} "
             f"{'range':>13} {'change lower':>13} {'parent q1-q3':>21} "
             f"{'change q1-q3':>21} {'verdict':>7}"]
    for name, m in summary["metrics"].items():
        if m["ratio"] is None:
            ratio, spread = "-", "-"
        else:
            ratio = f"{m['ratio']:.3f}"
            spread = f"{m['ratio_min']:.2f}-{m['ratio_max']:.2f}"
        quartiles = " ".join(f"{q1:>10.4g}-{q3:<10.4g}" for q1, q3 in (
            m["parent_quartiles"], m["change_quartiles"]))
        lines.append(f"  {name:<18} {m['parent']:>10.4g} {m['change']:>10.4g} "
                     f"{ratio:>6} {spread:>13} {m['lower']:>7}/{m['rounds']:<5} {quartiles} "
                     f"{m['verdict']:>7}")
    for i, side in summary["incorrect"]:
        lines.append(f"  INCORRECT: round {i} {side}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="checkout before the change")
    ap.add_argument("--change", type=Path, required=True, help="checkout with the change")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="--seconds of each perfbench run")
    ap.add_argument("--seed", type=int, default=0, help="--seed of each perfbench run")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    checkouts = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    status = 0
    for workload in args.workloads:
        pairs = []
        for i in range(args.rounds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            res = {side: run_once(checkouts[side], workload, args.seconds, args.seed)
                   for side in order}
            pairs.append((res["parent"], res["change"]))
            print(f"{workload} round {i}: " + ", ".join(
                f"{side} solve_s {res[side]['metrics'].get('solve_s', {}).get('value')}"
                for side in order), flush=True)
        summary = summarize(pairs)
        print(report(workload, summary), flush=True)
        status = 1 if summary["incorrect"] else status
    return status


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two checkouts on benchmark workloads in alternating pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W [--workload W2 ...]
        [--pairs 10] [--seconds S]

The workloads run one after another, each in its own pairs. Pair i runs
`perfbench/run.py --workload W --seed i --seconds S` in both checkouts, the
parent first in odd pairs and the change first in even ones; S defaults to
BENCHMARK.json's `run_seconds`. The first result that is not `correct` ends
the comparison (exit 1). Each pair's end-to-end metrics are printed, then
for each metric: both sides' median and quartiles, the change's wins,
losses and ties (direction from `better`), the relative change of the
medians beside the metric's `bound`, and whether a claimed gain would hold:
at least nine tenths of the pairs won (a tie counts for neither side) and a
median gap wider than the parent's interquartile range. A metric whose
parent spread (interquartile range over median) is wider than its bound
reads as unresolved, not unchanged, unless every change run beats every
parent run; the line then ends with that verdict. With more than one
workload, each workload's pairs and summary follow a `workload W` line.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object, the last line `perfbench/run.py` prints; a failed
    run reads as not correct, with its error output as the problem."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return {"correct": False, "problem": proc.stderr.strip()
                or f"exit code {proc.returncode}"}
    result = json.loads(lines[-1])
    problems = [line.removeprefix("# first problem: ") for line in lines
                if line.startswith("# first problem: ")]
    return result | {"problem": problems[0] if problems else ""}


def values(result: dict) -> dict:
    """metric name -> value of one result."""
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> list[str]:
    """Report lines for the (parent, change) metric values of each pair."""
    lines = []
    for spec in end_to_end:
        name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        parent = np.array([p[name] for p, _ in pairs], dtype=float)
        change = np.array([c[name] for _, c in pairs], dtype=float)
        gain = sign * (parent - change)
        wins, losses = int((gain > 0).sum()), int((gain < 0).sum())
        (p25, p50, p75), (c25, c50, c75) = (np.percentile(side, [25, 50, 75])
                                            for side in (parent, change))
        rel = (c50 - p50) / abs(p50) if p50 else float("nan")
        worse = sign * rel > spec["bound"]
        iqr = p75 - p25
        holds = wins >= 0.9 * len(pairs) and sign * (p50 - c50) > iqr
        spread = iqr / abs(p50) if p50 else (float("inf") if iqr else 0.0)
        if spread <= spec["bound"]:
            verdict = ""
        elif (sign * change).max() < (sign * parent).min():
            verdict = (f"; parent spread {spread:.0%} > bound, but every change "
                       "run beats every parent run")
        else:
            verdict = f"; unresolved (parent spread {spread:.0%} > bound)"
        lines.append(
            f"{name}: parent {p50:.6g} [{p25:.6g}, {p75:.6g}], "
            f"change {c50:.6g} [{c25:.6g}, {c75:.6g}] {spec['unit']}; "
            f"{wins} won, {losses} lost, {len(pairs) - wins - losses} tied; "
            f"median {rel:+.1%} (bound {spec['bound']:.0%}"
            f"{', beyond it' if worse else ''}); "
            f"claim {'holds' if holds else 'does not hold'}{verdict}")
    return lines


def compare(sides: dict, workload: str, pairs: int, seconds: float,
            end_to_end: list[dict]) -> bool:
    """Run and print the pairs of one workload, then its summary; False,
    with no summary, at the first result that is not correct."""
    names = [spec["name"] for spec in end_to_end]
    results_by_pair = []
    for seed in range(1, pairs + 1):
        order = list(sides) if seed % 2 else list(sides)[::-1]
        results = {}
        for side in order:
            results[side] = run_once(sides[side], workload, seed, seconds)
            if not results[side]["correct"]:
                print(f"pair {seed}: {side} not correct: {results[side]['problem']}")
                return False
        parent, change = (values(results[side]) for side in sides)
        results_by_pair.append((parent, change))
        print(f"pair {seed} ({order[0]} first): " + ", ".join(
            f"{name} {parent[name]:.6g} -> {change[name]:.6g}" for name in names),
            flush=True)
    print("\n".join(summarize(results_by_pair, end_to_end)), flush=True)
    return True


def main() -> int:
    bench = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"parent": args.parent, "change": args.change}
    for workload in args.workload:
        if len(args.workload) > 1:
            print(f"workload {workload}", flush=True)
        if not compare(sides, workload, args.pairs, args.seconds, bench["end_to_end"]):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

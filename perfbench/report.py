"""Per-layer report across workloads, from the results of traced runs.

    python3 perfbench/report.py [RESULTS_DIR]

Reads every `*-trace1.json` under RESULTS_DIR (default .perfbench_work/results)
and prints, per workload, each layer's self time and counts. A workload run
with several seeds shows the median over them. The last rows check that the
layers' self times account for the traced command time, and give the
tracing overhead against the untraced run_s.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from tracing import LAYERS, PER_LAYER

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    results = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        ROOT / ".perfbench_work" / "results")
    runs = defaultdict(list)
    for path in sorted(results.glob("*-trace1.json")):
        doc = json.loads(path.read_text())
        runs[doc["meta"]["workload"]].append(
            {k: m["value"] for k, m in doc["result"]["metrics"].items()})
    if not runs:
        print(f"no traced results under {results}", file=sys.stderr)
        return 1
    names = sorted(runs)
    table = {w: {k: statistics.median(r[k] for r in rs) for k in PER_LAYER}
             for w, rs in runs.items()}

    def row(label, values):
        print(f"| {label} | " + " | ".join(values) + " |")

    row("metric", [f"{w} ({len(runs[w])} seeds)" for w in names])
    row("---", ["---:"] * len(names))
    for layer in LAYERS:
        if f"{layer}.self_s" in PER_LAYER:
            row(f"**{layer}.self_s** (s)",
                [f"{table[w][f'{layer}.self_s']:.4f}" for w in names])
    for key, unit in PER_LAYER.items():
        if not key.endswith(".self_s"):
            fmt = "{:.4f}" if unit in ("s", "ratio") else "{:,.0f}"
            base = ", base bga.steps" if key == "bga.memo_hit_ratio" else ""
            row(f"{key} ({unit}{base})",
                [fmt.format(table[w][key]) for w in names])
    row("unaccounted: trace.run_s - layers - stats (s)", [
        f"{t['trace.run_s'] - t['trace.layers_self_s'] - t['trace.stats_s']:.4f}"
        for t in (table[w] for w in names)])
    row("overhead share of untraced run_s", [
        f"{t['trace.overhead_s'] / t['trace.untraced_run_s']:+.1%}"
        for t in (table[w] for w in names)])
    return 0


if __name__ == "__main__":
    sys.exit(main())

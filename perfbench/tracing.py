"""Span tracing of the binnnms layers, patched in from outside the package.

`Tracer.install()` wraps every public function of each binnnms module in a
span named `<module>.<function>`, and rebinds the wrapper under every name
that refers to the original in any binnnms module (so `binnnms.bga.knn_indices`
is traced as well as `binnnms.knn.knn_indices`). `BinaryVector.__init__` runs
far too often for a span, so it only counts. Spans live in memory as parallel
lists and are written out once, by `dump`, when the benchmark ends.

A span's self time is its duration minus the durations of its direct
children; the program is single-threaded, so children never overlap. Work
the tracer does to derive counts from arguments and results runs inside a
`trace.stats` span, which keeps it out of every layer's self time.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = ("ingest", "binvec", "knn", "bga", "labeling", "median", "kmodes",
          "metrics", "kde", "cli")

# Every per-layer metric, in report order, with its unit. BENCHMARK.json's
# `per_layer` list must name exactly these.
PER_LAYER = {
    "ingest.load_s": "s",
    "ingest.self_s": "s",
    "binvec.vectors_built": "count",
    "binvec.hamming_calls": "count",
    "binvec.rows_scanned": "count",
    "binvec.hamming_bytes_computed": "bytes",
    "binvec.hamming_s": "s",
    "binvec.pack_s": "s",
    "binvec.self_s": "s",
    "knn.calls": "count",
    "knn.rows_scanned": "count",
    "knn.self_s": "s",
    "bga.ascent_s": "s",
    "bga.self_s": "s",
    "bga.steps": "count",
    "bga.step_evals": "count",
    "bga.memo_hit_ratio": "ratio",
    "bga.steps_max": "count",
    "bga.fixed_point": "count",
    "bga.cycle": "count",
    "bga.max_iterations": "count",
    "bga.distinct_endpoints": "count",
    "labeling.calls": "count",
    "labeling.unique_points": "count",
    "labeling.rows_scanned": "count",
    "labeling.epsilon_s": "s",
    "labeling.label_s": "s",
    "labeling.self_s": "s",
    "median.center_calls": "count",
    "median.center_s": "s",
    "median.self_s": "s",
    "kmodes.run_s": "s",
    "kmodes.iterations": "count",
    "kmodes.rows_scanned": "count",
    "kmodes.self_s": "s",
    "metrics.score_s": "s",
    "metrics.self_s": "s",
    "cli.self_s": "s",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
    "trace.layers_self_s": "s",
    "trace.stats_s": "s",
    "trace.spans": "count",
}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.commands: list[int] = []
        self.counts: list[Counter] = []  # one Counter per command
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ----------------------------------------------------------

    def begin_command(self) -> None:
        self.counts.append(Counter())

    def _open(self, name: str) -> int:
        i = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.commands.append(len(self.counts) - 1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, stats=None):
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if stats is not None:
                j = self._open("trace.stats")
                try:
                    stats(self.counts[-1], args, kwargs, result)
                finally:
                    self._close(j)
            return result

        return traced

    # --- patching -----------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "binnnms"
                                   or mod_name.startswith("binnnms.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        import binnnms
        from binnnms.binvec import BinaryVector
        from binnnms.ingest import Dataset

        stats = {
            "bga.ascend": _ascend_stats,
            "bga.ascend_all": _ascend_all_stats,
            "labeling.label_clusters": _label_stats,
            "kmodes.kmodes_run": _kmodes_stats,
        }
        for layer in LAYERS:
            mod = sys.modules[f"{binnnms.__name__}.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name == "binvec.hamming_to_rows":
                    wrapper = self._hamming_wrapper(fn)
                else:
                    wrapper = self._wrap(name, fn, stats.get(name))
                self._rebind(fn, wrapper)

        points = Dataset.points
        self._patches.append((Dataset, "points", points))
        Dataset.points = self._wrap("ingest.Dataset.points", points)

        init = BinaryVector.__init__
        counts = self.counts

        def counted_init(vec, bits):
            counts[-1]["binvec.vectors_built"] += 1
            init(vec, bits)

        self._patches.append((BinaryVector, "__init__", init))
        BinaryVector.__init__ = counted_init

    def _hamming_wrapper(self, fn):
        """hamming_to_rows runs once per kNN step, epsilon row and BFS node:
        its row counts are taken inline, charged to the calling layer."""
        names, parents, counts = self.names, self.parents, self.counts

        def traced(packed_rows, q_packed):
            i = self._open("binvec.hamming_to_rows")
            try:
                return fn(packed_rows, q_packed)
            finally:
                self._close(i)
                rows, words = packed_rows.shape
                c = counts[-1]
                c["binvec.rows_scanned"] += rows
                c["binvec.hamming_bytes_computed"] += rows * words * 8
                caller = parents[i]
                layer = _layer(names[caller]) if caller >= 0 else "cli"
                c[f"{layer}.rows_scanned"] += rows

        return traced

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # --- analysis -----------------------------------------------------------

    def command_metrics(self) -> list[dict]:
        """Per traced command: every per-layer metric except the trace.*
        timings that need the untraced run, which `run.py` adds."""
        n_cmd = len(self.counts)
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        per_cmd = [Counter() for _ in range(n_cmd)]
        for i, name in enumerate(self.names):
            c = per_cmd[self.commands[i]]
            layer = _layer(name)
            c[f"{layer}.self_s"] += dur[i] - child[i]
            c["trace.spans"] += 1
            p = self.parents[i]
            parent_name = self.names[p] if p >= 0 else ""
            if name == "knn.knn_indices":
                c["knn.calls"] += 1
                if _layer(parent_name) == "bga":
                    c["bga.step_evals"] += 1
            elif name == "binvec.hamming_to_rows":
                c["binvec.hamming_calls"] += 1
                c["binvec.hamming_s"] += dur[i]
            elif name == "binvec.pack_bits":
                c["binvec.pack_s"] += dur[i]
            elif name == "ingest.load_binary_csv":
                c["ingest.load_s"] += dur[i]
            elif name == "bga.ascend_all":
                c["bga.ascent_s"] += dur[i]
            elif name == "labeling.compute_epsilon":
                c["labeling.epsilon_s"] += dur[i]
            elif name == "labeling.label_clusters":
                c["labeling.label_s"] += dur[i]
                c["labeling.calls"] += 1
            elif name == "median.median_center":
                c["median.center_calls"] += 1
                c["median.center_s"] += dur[i]
            elif name == "kmodes.kmodes_repeated":
                c["kmodes.run_s"] += dur[i]
            if layer == "metrics" and _layer(parent_name) != "metrics":
                c["metrics.score_s"] += dur[i]
        out = []
        for c, counted in zip(per_cmd, self.counts):
            c.update(counted)
            c["trace.stats_s"] = c.pop("trace.self_s", 0.0)
            c["trace.layers_self_s"] = sum(
                v for k, v in c.items()
                if k.endswith(".self_s") and _layer(k) in LAYERS)
            steps = c["bga.steps"]
            c["bga.memo_hit_ratio"] = (1 - c["bga.step_evals"] / steps
                                       if steps else 0.0)
            out.append({k: c.get(k, 0) for k in PER_LAYER})
        return out

    def dump(self, path: Path) -> None:
        """Write every span as [name, start_ns, end_ns, parent, command], with
        times in nanoseconds from the first span's start."""
        index = {n: k for k, n in enumerate(dict.fromkeys(self.names))}
        t0 = self.starts[0] if self.starts else 0.0
        spans = [[index[n], round((s - t0) * 1e9), round((e - t0) * 1e9), p, c]
                 for n, s, e, p, c in zip(self.names, self.starts, self.ends,
                                          self.parents, self.commands)]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": list(index), "fields": [
            "name", "start_ns", "end_ns", "parent", "command"], "spans": spans},
            separators=(",", ":")))


def medians(rows: list[dict]) -> dict:
    """Per metric, the median over commands; counts repeat exactly, so they
    take the low median, which keeps them whole."""
    return {k: (statistics.median if PER_LAYER[k] == "s"
                else statistics.median_low)([r[k] for r in rows])
            for k in rows[0]}


# --- counts derived from arguments and results -------------------------------

def _ascend_stats(c, args, kwargs, traj) -> None:
    c["bga.steps"] += traj.steps
    c["bga.steps_max"] = max(c["bga.steps_max"], traj.steps)
    c[f"bga.{traj.termination}"] += 1


def _ascend_all_stats(c, args, kwargs, trajectories) -> None:
    c["bga.distinct_endpoints"] += len(
        {t.endpoint.bits.tobytes() for t in trajectories})


def _label_stats(c, args, kwargs, labeling) -> None:
    converged = args[0] if args else kwargs["converged"]
    c["labeling.unique_points"] += len({p.bits.tobytes() for p in converged})


def _kmodes_stats(c, args, kwargs, result) -> None:
    c["kmodes.iterations"] += result.iterations

"""Command-line front end: cluster, sweep, eval, encode, summary.

Outputs are plot-ready CSV/JSON; timing goes to stderr so the artifacts
stay byte-identical for a given config and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from .bga import DEFAULT_J_MAX, ascend_bits
from .binvec import DimensionMismatch
from .ingest import (
    DataFormatError,
    Dataset,
    _decode,
    dataset_summary,
    load_binary_csv,
    load_categorical_csv,
    load_uci,
    parse_schema_file,
    write_binary_csv,
)
from .kmodes import kmodes_repeated
from .labeling import epsilon_bits, label_bits
from .median import group_majority_bits
from .metrics import quantization_error, scores

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _parse_label_column(value):
    if value is None:
        return None
    try:
        return int(value)
    except ValueError:
        return value


def _load_dataset(args) -> Dataset:
    fmt = getattr(args, "format", "auto")
    if fmt not in ("auto", "binary", "categorical"):
        return load_uci(fmt, args.data)
    label = _parse_label_column(args.label_column)
    if args.schema or fmt == "categorical":
        if not args.schema:
            raise DataFormatError("categorical format requires --schema")
        schema = parse_schema_file(args.schema)
        return load_categorical_csv(args.data, schema, delimiter=args.delimiter,
                                    header=args.header, label_column=label)
    return load_binary_csv(args.data, delimiter=args.delimiter,
                           header=args.header, label_column=label)


def _parse_int_list(spec: str) -> list[int]:
    """Comma lists and inclusive ranges: "2,4,8" or "2..30" or a mix."""
    out = []
    for part in spec.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        elif part:
            out.append(int(part))
    if not out:
        raise ValueError(f"empty integer list {spec!r}")
    return out


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_labels(path: Path, labels: np.ndarray) -> None:
    path.write_text("index,label\n" + "".join(
        f"{i},{lab}\n" for i, lab in enumerate(labels.tolist())))


def _write_prototypes(path: Path, prototypes: np.ndarray) -> None:
    """One line per prototype row: its bits as digits separated by spaces."""
    k, d = prototypes.shape
    text = np.full((k, 2 * d), ord(" "), dtype=np.uint8)
    text[:, 0::2] = prototypes + ord("0")
    text[:, -1] = ord("\n")
    path.write_bytes(text.tobytes())


# --- binnnms / kmodes pipelines --------------------------------------------

def _endpoints(data: Dataset, k1: int, j_max: int):
    """(endpoints, the BatchAscent or None): the ascent endpoints of every
    point, or the points themselves when k1 == 0 (no ascent)."""
    if k1 == 0:
        return data.bits, None
    ascent = ascend_bits(data, data.bits, k1, j_max)
    return ascent.endpoints, ascent


def _label(endpoints, k2: int, epsilon_mode: str):
    """(labeling, epsilon) of the endpoints at the k2 epsilon threshold."""
    epsilon = epsilon_bits(endpoints, k2, mode=epsilon_mode)
    return label_bits(endpoints, epsilon), epsilon


def _scores(data: Dataset, labels) -> dict:
    if data.truth_labels is None:
        return {"nmi": None, "arand": None}
    nmi, arand = scores(data.truth_labels, labels.tolist())
    return {"nmi": round(nmi, 12), "arand": round(arand, 12)}


def cmd_cluster(args) -> int:
    data = _load_dataset(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    if args.algo == "binnnms":
        if args.k1 < 1:
            raise ValueError("cluster requires k1 >= 1 (k1=0 exists only in sweep)")
        endpoints, _ = _endpoints(data, args.k1, args.jmax)
        labeling, epsilon = _label(endpoints, args.k2, args.epsilon_mode)
        labels, prototypes = labeling.labels, labeling.prototypes
        metrics = {
            "algo": "binnnms", "k1": args.k1, "k2": args.k2, "jmax": args.jmax,
            "epsilon": epsilon, "epsilon_mode": args.epsilon_mode,
            "num_clusters": labeling.num_clusters,
            "single_cluster": labeling.single_cluster,
            "quantization_error": quantization_error(data, labels, prototypes),
        }
        metrics.update(_scores(data, labels))
    else:
        results = kmodes_repeated(data, args.k, args.runs, base_seed=args.seed)
        per_run = []
        for r in results:
            entry = {"seed": r.seed, "total_inertia": r.total_inertia,
                     "iterations": r.iterations,
                     "quantization_error": quantization_error(data, r.labels,
                                                             r.prototypes)}
            entry.update(_scores(data, r.labels))
            per_run.append(entry)
        best, best_entry = min(
            zip(results, per_run),
            key=lambda pair: (pair[0].total_inertia, pair[0].seed))
        labels, prototypes = best.labels, best.prototypes
        metrics = {
            "algo": "kmodes", "k": args.k, "runs": args.runs, "seed": args.seed,
            "num_clusters": best.k, "single_cluster": best.k == 1,
            "best_seed": best.seed, "total_inertia": best.total_inertia,
            "quantization_error": best_entry["quantization_error"],
            "nmi": best_entry["nmi"], "arand": best_entry["arand"],
            "runs_detail": per_run,
        }
        if data.truth_labels is not None and args.runs > 1:
            vals = np.array([e["nmi"] for e in per_run], dtype=float)
            avals = np.array([e["arand"] for e in per_run], dtype=float)
            metrics["nmi_mean"] = float(vals.mean())
            metrics["nmi_std"] = float(vals.std(ddof=1))
            metrics["arand_mean"] = float(avals.mean())
            metrics["arand_std"] = float(avals.std(ddof=1))
    _write_labels(out / "labels.csv", labels)
    _write_prototypes(out / "prototypes.txt", prototypes)
    _write_json(out / "metrics.json", metrics)
    print(f"wall time: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    print(json.dumps({k: v for k, v in metrics.items() if k != "runs_detail"},
                     sort_keys=True))
    return EXIT_OK


# --- sweep ------------------------------------------------------------------

def _target_prototypes(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per ground-truth class: (class index per point, prototype bit rows)."""
    classes = list(dict.fromkeys(data.truth_labels))
    cidx = np.array([classes.index(c) for c in data.truth_labels])
    return cidx, group_majority_bits(data.bits, cidx, len(classes))


def _trajectory_errors(data: Dataset, rounds) -> list[dict]:
    """Per BGA iteration: quantization error of the current iterates against
    the fixed target prototypes and against intermediate (recomputed) ones.

    `rounds` are the per-round (candidate ids, next iterates) of an ascent
    from every data point (`BatchAscent.rounds`); a finished ascent stays at
    its endpoint."""
    cidx, target = _target_prototypes(data)
    cur = data.bits.copy()
    rows = []
    for it in range(len(rounds) + 1):
        if it:
            ids, bits = rounds[it - 1]
            cur[ids] = bits
        err_target = float((cur != target[cidx]).sum(axis=1).mean())
        inter = group_majority_bits(cur, cidx, len(target))
        err_inter = float((cur != inter[cidx]).sum(axis=1).mean())
        rows.append({"iteration": it, "error_vs_target": err_target,
                     "error_vs_intermediate": err_inter})
    return rows


def _sweep_cell(data: Dataset, endpoints, k1: int, k2: int, epsilon_mode: str) -> dict:
    labeling, epsilon = _label(endpoints, k2, epsilon_mode)
    return {"k1": k1, "k2": k2, "epsilon": epsilon,
            "num_clusters": labeling.num_clusters,
            "quant_error_final": quantization_error(data, labeling.labels,
                                                  labeling.prototypes),
            "status": "ok", **_scores(data, labeling.labels)}


def _write_csv(path: Path, fields: list[str], rows) -> None:
    with path.open("w", newline="") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(fields)
        # str first: csv would write None as an empty field, not as `None`
        writer.writerows([str(row.get(f, "")) for f in fields] for row in rows)


def cmd_sweep(args) -> int:
    data = _load_dataset(args)
    k1_list = _parse_int_list(args.k1)
    k2_list = _parse_int_list(args.k2)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows, trajectories = [], {}
    for k1 in k1_list:
        try:
            endpoints, ascent = _endpoints(data, k1, args.jmax)
        except Exception as exc:  # record the whole k1 column as failed
            rows.extend({"k1": k1, "k2": k2, "status": f"error: {exc}"}
                        for k2 in k2_list)
            continue
        for k2 in k2_list:
            try:
                rows.append(_sweep_cell(data, endpoints, k1, k2,
                                        args.epsilon_mode))
            except Exception as exc:
                rows.append({"k1": k1, "k2": k2, "status": f"error: {exc}"})
        if ascent is not None and data.truth_labels is not None:
            trajectories[k1] = _trajectory_errors(data, ascent.rounds)
    _write_csv(out / "sweep.csv",
               ["k1", "k2", "epsilon", "num_clusters", "nmi", "arand",
                "quant_error_final", "status"], rows)
    for k1, traj in trajectories.items():
        _write_csv(out / f"trajectory_k1={k1}.csv",
                   ["iteration", "error_vs_target", "error_vs_intermediate"], traj)
    print(f"sweep: {len(k1_list) * len(k2_list)} cells -> {out / 'sweep.csv'}")
    return EXIT_OK


# --- small commands ---------------------------------------------------------

def _read_label_file(path) -> list[str]:
    labels = []
    for line in _decode(Path(path).read_bytes(), path).splitlines():
        line = line.strip()
        if not line or line.lower().startswith("index,"):
            continue
        labels.append(line.replace(",", " ").split()[-1])
    if not labels:
        raise DataFormatError(f"{path}: no labels found")
    return labels


def cmd_eval(args) -> int:
    truth = _read_label_file(args.truth)
    pred = _read_label_file(args.pred)
    if len(truth) != len(pred):
        raise DataFormatError(
            f"label files differ in length: {len(truth)} vs {len(pred)}")
    nmi, arand = scores(truth, pred)
    print(json.dumps({"nmi": nmi, "arand": arand}, sort_keys=True))
    return EXIT_OK


def cmd_encode(args) -> int:
    schema = parse_schema_file(args.schema)
    ds = load_categorical_csv(args.data, schema, delimiter=args.delimiter,
                              header=args.header,
                              label_column=_parse_label_column(args.label_column))
    write_binary_csv(ds, args.out)
    print(f"encoded {ds.n} rows x {ds.d} bits -> {args.out}")
    return EXIT_OK


def cmd_summary(args) -> int:
    data = _load_dataset(args)
    print(json.dumps(dataset_summary(data), indent=2, sort_keys=True))
    return EXIT_OK


# --- entry point ------------------------------------------------------------

def _add_data_opts(p, schema_required=False):
    p.add_argument("--data", required=True, help="input data file")
    p.add_argument("--schema", required=schema_required,
                   help="feature schema file (categorical input)")
    p.add_argument("--format", default="auto",
                   choices=["auto", "binary", "categorical", "zoo", "digits",
                            "spect", "soybean", "car"],
                   help="input format; dataset names select raw UCI adapters")
    p.add_argument("--delimiter", default=None)
    p.add_argument("--header", action="store_true")
    p.add_argument("--label-column", default=None,
                   help="truth label column, by name or index")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="binnnms",
                     description="Median shift clustering for binary data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="run one clustering end to end")
    _add_data_opts(p)
    p.add_argument("--algo", choices=["binnnms", "kmodes"], default="binnnms")
    p.add_argument("--k1", type=int, default=10)
    p.add_argument("--k2", type=int, default=5)
    p.add_argument("--jmax", type=int, default=DEFAULT_J_MAX)
    p.add_argument("--epsilon-mode", choices=["mean_all", "kth_only"],
                   default="mean_all")
    p.add_argument("--k", type=int, default=2, help="kmodes cluster count")
    p.add_argument("--runs", type=int, default=1, help="kmodes restarts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("sweep", help="grid sweep over (k1, k2)")
    _add_data_opts(p)
    p.add_argument("--k1", required=True,
                   help='k1 grid, e.g. "0,2..30" (0 = skip gradient ascent)')
    p.add_argument("--k2", required=True, help='k2 grid, e.g. "1..20"')
    p.add_argument("--jmax", type=int, default=DEFAULT_J_MAX)
    p.add_argument("--epsilon-mode", choices=["mean_all", "kth_only"],
                   default="mean_all")
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="score predicted labels against truth")
    p.add_argument("--truth", required=True)
    p.add_argument("--pred", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("encode", help="categorical CSV -> binary CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--delimiter", default=None)
    p.add_argument("--header", action="store_true")
    p.add_argument("--label-column", default=None)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("summary", help="dataset sizes and class histogram")
    _add_data_opts(p)
    p.set_defaults(func=cmd_summary)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataFormatError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, DimensionMismatch) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

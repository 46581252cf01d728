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
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .bga import DEFAULT_J_MAX, ascend_bits
from .ingest import (
    UCI_LOADERS,
    DataFormatError,
    Dataset,
    _read_rows,
    dataset_summary,
    load_binary_csv,
    load_categorical_csv,
    load_uci,
    parse_schema_file,
    write_binary_csv,
)
from .kmodes import kmodes_repeated
from .labeling import EPSILON_MODES, Endpoints
from .median import group_majority_bits
from .metrics import label_codes, quantization_error, scores

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
    if args.format in UCI_LOADERS:  # a fixed layout: no option may reshape it
        for flag, given in (("--schema", args.schema is not None),
                            ("--delimiter", args.delimiter is not None),
                            ("--header", args.header),
                            ("--label-column", args.label_column is not None)):
            if given:
                raise ValueError(f"{flag} does not apply to --format {args.format}")
        return load_uci(args.format, args.data)
    if args.format == "binary" and args.schema is not None:
        raise ValueError("--schema does not apply to --format binary")
    if args.format == "categorical" and args.schema is None:
        raise ValueError("--format categorical requires --schema")
    label = _parse_label_column(args.label_column)
    if args.schema is not None:
        schema = parse_schema_file(args.schema)
        return load_categorical_csv(args.data, schema, delimiter=args.delimiter,
                                    header=args.header, label_column=label)
    return load_binary_csv(args.data, delimiter=args.delimiter,
                           header=args.header, label_column=label)


def _parse_int_list(spec: str) -> list[int]:
    """Comma lists and inclusive ranges, "2,4,8" or "2..30" or a mix: the
    argparse type of a grid, so a bad or empty one is a usage error."""
    out = []
    try:
        for part in filter(None, map(str.strip, spec.split(","))):
            lo, dots, hi = part.partition("..")
            out.extend(range(int(lo), int(hi if dots else lo) + 1))
    except ValueError:
        out = []  # one bad part spoils the grid
    if not out:
        raise argparse.ArgumentTypeError(f"invalid or empty integer grid {spec!r}")
    return out


@contextmanager
def _output(flag: str, path):
    """`path` as a Path; failing to create or open it is a config error (exit 1)."""
    try:
        yield Path(path)
    except (FileExistsError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError) as exc:
        raise ValueError(f"{flag} {path}: {exc.strerror}") from None


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_labels(path: Path, labels: np.ndarray) -> None:
    """A header, then one `index,label` line per label, formatted by one
    `%` over the interleaved indices and labels."""
    pairs = np.column_stack([np.arange(len(labels)), labels]).ravel().tolist()
    path.write_text("index,label\n" + ("%d,%d\n" * len(labels)) % tuple(pairs))


def _write_prototypes(path: Path, prototypes: np.ndarray) -> None:
    """One line per prototype row: its bits as digits separated by spaces."""
    k, d = prototypes.shape
    text = np.full((k, 2 * d), ord(" "), dtype=np.uint8)
    text[:, 0::2] = prototypes + ord("0")
    text[:, -1] = ord("\n")
    path.write_bytes(text.tobytes())


# --- binnnms / kmodes pipelines --------------------------------------------

def _endpoints(data: Dataset, k1: int, j_max: int, k2s):
    """(Endpoints for the k2s, the BatchAscent): each point's ascent
    endpoint, or at k1 = 0 the point itself; j_max stops warn on stderr."""
    ascent = ascend_bits(data, data.bits, k1, j_max)
    if stopped := np.count_nonzero(ascent.at_j_max):
        print(f"warning: k1 = {k1}: {stopped} of {data.n} ascents stopped at "
              f"j_max = {j_max}", file=sys.stderr)
    return Endpoints(ascent.endpoints, k2s), ascent


def _truth_codes(data: Dataset) -> np.ndarray | None:
    """The class index of each point in first-appearance order of the truth
    labels, or None without them: coded once per command, so each score
    starts from integer codes."""
    if data.truth_labels is None:
        return None
    return label_codes(data.truth_labels)[0]


def _scores(truth, labels) -> dict:
    if truth is None:
        return {"nmi": None, "arand": None}
    nmi, arand = scores(truth, labels)
    return {"nmi": round(nmi, 12), "arand": round(arand, 12)}


def _cell(data: Dataset, truth, endpoints: Endpoints, k2: int, epsilon_mode: str,
          scored: dict):
    """(labeling, values) of the endpoints at the k2 epsilon threshold: one
    `cluster` run, or one (k1, k2) cell of a `sweep`. The labeling cuts at
    the exact floor of epsilon; the values hold the float. Cells that share
    a labeling share its quantization error and scores, kept in `scored`."""
    epsilon, threshold = endpoints.epsilon(k2, epsilon_mode)
    labeling = endpoints.labeling(threshold)
    if labeling not in scored:
        scored[labeling] = {"quantization_error": quantization_error(
            data, labeling.labels, labeling.prototypes), **_scores(truth, labeling.labels)}
    return labeling, {"epsilon": epsilon, "num_clusters": labeling.num_clusters,
                      **scored[labeling]}


# each `cluster` option that one --algo alone reads, with its default
_ALGO_OPTS = {"binnnms": dict(k1=10, k2=5, jmax=DEFAULT_J_MAX, epsilon_mode="mean_all"),
              "kmodes": dict(k=2, runs=1, seed=0)}


def cmd_cluster(args) -> int:
    for algo, defaults in _ALGO_OPTS.items():
        for name, default in defaults.items():
            if getattr(args, name) is None:
                setattr(args, name, default)
            elif algo != args.algo:
                raise ValueError(f"--{name.replace('_', '-')} does not apply to "
                                 f"--algo {args.algo}")
    data = _load_dataset(args)
    with _output("--out-dir", args.out_dir) as out:
        out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    truth = _truth_codes(data)
    if args.algo == "binnnms":
        endpoints, _ = _endpoints(data, args.k1, args.jmax, [args.k2])
        labeling, metrics = _cell(data, truth, endpoints, args.k2, args.epsilon_mode, {})
        labels, prototypes = labeling.labels, labeling.prototypes
        metrics.update(algo="binnnms", k1=args.k1, k2=args.k2, jmax=args.jmax,
                       epsilon_mode=args.epsilon_mode,
                       single_cluster=labeling.single_cluster)
    else:
        results = kmodes_repeated(data, args.k, args.runs, base_seed=args.seed)
        per_run = []
        for r in results:
            # the inertia sums each point's distance to its prototype, so
            # this is quantization_error(data, r.labels, r.prototypes)
            entry = {"seed": r.seed, "total_inertia": r.total_inertia,
                     "iterations": r.iterations,
                     "quantization_error": r.total_inertia / data.n}
            entry.update(_scores(truth, r.labels))
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
        if truth is not None and args.runs > 1:
            for name in ("nmi", "arand"):
                vals = np.array([e[name] for e in per_run], dtype=float)
                metrics[f"{name}_mean"] = float(vals.mean())
                metrics[f"{name}_std"] = float(vals.std(ddof=1))
    _write_labels(out / "labels.csv", labels)
    _write_prototypes(out / "prototypes.txt", prototypes)
    _write_json(out / "metrics.json", metrics)
    print(f"wall time: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    print(json.dumps({k: v for k, v in metrics.items() if k != "runs_detail"},
                     sort_keys=True))
    return EXIT_OK


# --- sweep ------------------------------------------------------------------

def _trajectory_errors(data: Dataset, cidx: np.ndarray, rounds) -> list[dict]:
    """Per BGA iteration: quantization error of the current iterates against
    the fixed target prototypes and against intermediate (recomputed) ones.

    `cidx` is each point's class index, numbered from 0 (`_truth_codes`).
    `rounds` are the per-round (candidate ids, next iterates) of an ascent
    from every data point (`BatchAscent.rounds`); a finished ascent stays at
    its endpoint."""
    classes = int(cidx.max()) + 1
    target = group_majority_bits(data.bits, cidx, classes)
    cur = data.bits.copy()
    rows = []
    for it in range(len(rounds) + 1):
        if it:
            ids, bits = rounds[it - 1]
            cur[ids] = bits
        err_target = float((cur != target[cidx]).sum(axis=1).mean())
        inter = group_majority_bits(cur, cidx, classes)
        err_inter = float((cur != inter[cidx]).sum(axis=1).mean())
        rows.append({"iteration": it, "error_vs_target": err_target,
                     "error_vs_intermediate": err_inter})
    return rows


def _write_csv(path: Path, fields: list[str], rows) -> None:
    with path.open("w", newline="") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(fields)
        # str first: csv would write None as an empty field, not as `None`
        writer.writerows([str(row.get(f, "")) for f in fields] for row in rows)


def cmd_sweep(args) -> int:
    data = _load_dataset(args)
    with _output("--out-dir", args.out_dir) as out:
        out.mkdir(parents=True, exist_ok=True)
    truth = _truth_codes(data)
    rows, trajectories = [], {}
    # only a config error (ValueError) is a status row; others end the command
    for k1 in args.k1:
        try:
            endpoints, ascent = _endpoints(data, k1, args.jmax, args.k2)
        except ValueError as exc:  # the whole k1 column fails
            rows.extend({"k1": k1, "k2": k2, "status": f"error: {exc}"} for k2 in args.k2)
            continue
        scored = {}  # each labeling's values, shared by this column's cells
        for k2 in args.k2:
            try:
                _, cell = _cell(data, truth, endpoints, k2, args.epsilon_mode, scored)
            except ValueError as exc:
                cell = {"status": f"error: {exc}"}
            else:
                cell.update(quant_error_final=cell["quantization_error"], status="ok")
            rows.append({"k1": k1, "k2": k2, **cell})
        if ascent.rounds and truth is not None:
            trajectories[k1] = _trajectory_errors(data, truth, ascent.rounds)
    _write_csv(out / "sweep.csv",
               ["k1", "k2", "epsilon", "num_clusters", "nmi", "arand",
                "quant_error_final", "status"], rows)
    for k1, traj in trajectories.items():
        _write_csv(out / f"trajectory_k1={k1}.csv",
                   ["iteration", "error_vs_target", "error_vs_intermediate"], traj)
    print(f"sweep: {len(rows)} cells -> {out / 'sweep.csv'}")
    return EXIT_OK


# --- small commands ---------------------------------------------------------

def _read_label_file(path) -> list[str]:
    """The last cell of each row: one label a line, or the `index,label`
    rows of a `labels.csv`, whose header is a first row starting `index`."""
    rows, _, _ = _read_rows(path, header="index")
    return [row[-1] for row in rows]


def cmd_eval(args) -> int:
    truth = _read_label_file(args.truth)
    pred = _read_label_file(args.pred)
    if len(truth) != len(pred):
        raise DataFormatError(
            f"{args.pred}: {len(pred)} labels, but {args.truth} has {len(truth)}")
    nmi, arand = scores(truth, pred)
    print(json.dumps({"nmi": nmi, "arand": arand}, sort_keys=True))
    return EXIT_OK


def cmd_encode(args) -> int:
    ds = _load_dataset(args)
    with _output("--out", args.out) as out:
        write_binary_csv(ds, out)
    print(f"encoded {ds.n} rows x {ds.d} bits -> {args.out}")
    return EXIT_OK


def cmd_summary(args) -> int:
    data = _load_dataset(args)
    print(json.dumps(dataset_summary(data), indent=2, sort_keys=True))
    return EXIT_OK


# --- entry point ------------------------------------------------------------

def _add_data_opts(p):
    p.add_argument("--data", required=True, help="input data file")
    p.add_argument("--schema", help="feature schema file (categorical input)")
    p.add_argument("--format", default="auto",
                   choices=["auto", "binary", "categorical", *UCI_LOADERS],
                   help="input format; dataset names select raw UCI adapters")
    p.add_argument("--delimiter", default=None)
    p.add_argument("--header", action="store_true")
    p.add_argument("--label-column", default=None,
                   help="truth label column, by name or index")


def _add_run_opts(p):
    """The options `cluster` and `sweep` share, with one meaning in both."""
    defaults = _ALGO_OPTS["binnnms"]  # cluster's are unset until cmd_cluster
    p.add_argument("--jmax", type=int, default=defaults["jmax"])
    p.add_argument("--epsilon-mode", choices=EPSILON_MODES, default=defaults["epsilon_mode"])
    p.add_argument("--out-dir", default="out")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="binnnms",
                     description="Median shift clustering for binary data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="run one clustering end to end")
    _add_data_opts(p)
    _add_run_opts(p)
    p.add_argument("--algo", choices=list(_ALGO_OPTS), default="binnnms")
    p.add_argument("--k1", type=int)
    p.add_argument("--k2", type=int)
    p.add_argument("--k", type=int, help="kmodes cluster count")
    p.add_argument("--runs", type=int, help="kmodes restarts")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_cluster, **{name: None for opts in _ALGO_OPTS.values()
                                        for name in opts})

    p = sub.add_parser("sweep", help="grid sweep over (k1, k2)")
    _add_data_opts(p)
    _add_run_opts(p)
    p.add_argument("--k1", required=True, type=_parse_int_list,
                   help='k1 grid, e.g. "0,2..30" (0 = skip gradient ascent)')
    p.add_argument("--k2", required=True, type=_parse_int_list, help='k2 grid, e.g. "1..20"')
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="score predicted labels against truth")
    p.add_argument("--truth", required=True)
    p.add_argument("--pred", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("encode", help="any input format -> binary CSV, label last")
    _add_data_opts(p)
    p.add_argument("--out", required=True)
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
    except ValueError as exc:  # DimensionMismatch is one too
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

"""Correctness checks on the artifacts a command writes.

Two checks, both independent of the code under test:

* digests: every file the command wrote is hashed and compared with the
  reference recorded at the seed commit (`reference_digests.json`), or, for a
  seed with no recorded reference, with the artifacts of the fresh-process
  run of the same command (byte identity across processes);
* semantics: labels, prototypes and the scores in metrics.json or sweep.csv
  are recomputed here from the generated data and checked.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("reference_digests.json")
KMODES_MAX_ITER = 100  # kmodes_run's default; the CLI does not change it


def artifact_digests(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def first_difference(expected: dict, got: dict) -> str | None:
    """The first artifact (in name order) whose digest differs, or None."""
    for name in sorted(set(expected) | set(got)):
        if expected.get(name) != got.get(name):
            return (f"{name}: expected {expected.get(name, 'no file')}, "
                    f"got {got.get(name, 'no file')}")
    return None


def recorded_reference(workload: str, seed: int) -> dict | None:
    table = json.loads(REFERENCE.read_text())
    return table.get(workload, {}).get(str(seed))


def _nmi(truth: np.ndarray, pred: np.ndarray) -> float:
    """Geometric-mean NMI from the contingency table."""
    _, t = np.unique(truth, return_inverse=True)
    _, p = np.unique(pred, return_inverse=True)
    table = np.zeros((t.max() + 1, p.max() + 1))
    np.add.at(table, (t, p), 1)
    pij = table / table.sum()
    pi, pj = pij.sum(axis=1), pij.sum(axis=0)
    hu = -(pi * np.log(pi)).sum()
    hv = -(pj * np.log(pj)).sum()
    if hu == 0 or hv == 0:
        return 1.0 if hu == hv == 0 else 0.0
    nz = pij > 0
    mi = (pij[nz] * np.log(pij[nz] / np.outer(pi, pj)[nz])).sum()
    return float(min(1.0, max(0.0, mi / np.sqrt(hu * hv))))


def _check_clustering(out: Path, bits: np.ndarray, truth: np.ndarray) -> list[str]:
    errors = []
    rows = list(csv.reader((out / "labels.csv").read_text().splitlines()))
    if rows[0] != ["index", "label"] or len(rows) != bits.shape[0] + 1:
        return ["labels.csv: wrong header or row count"]
    if [int(r[0]) for r in rows[1:]] != list(range(bits.shape[0])):
        errors.append("labels.csv: indices are not 0..n-1")
    labels = np.array([int(r[1]) for r in rows[1:]])
    protos = np.array([[int(b) for b in line.split()] for line in
                       (out / "prototypes.txt").read_text().splitlines()])
    metrics = json.loads((out / "metrics.json").read_text())
    kmodes = metrics.get("algo") == "kmodes"
    first_seen = list(dict.fromkeys(labels.tolist()))
    if not kmodes and first_seen != list(range(len(first_seen))):
        errors.append("labels.csv: labels not numbered by first appearance")
    k = metrics["k"] if kmodes else len(first_seen)
    if protos.shape != (k, bits.shape[1]) or labels.max() >= k:
        errors.append(f"prototypes.txt: shape {protos.shape} does not fit "
                      f"{k} clusters of {bits.shape[1]} bits")
        return errors
    if metrics["num_clusters"] != k:
        errors.append("metrics.json: num_clusters differs from labels.csv")
    qe = float((bits != protos[labels]).sum(axis=1).mean())
    if abs(metrics["quantization_error"] - qe) > 1e-9:
        errors.append(f"metrics.json: quantization_error "
                      f"{metrics['quantization_error']} != recomputed {qe}")
    nmi = _nmi(truth, labels)
    if abs(metrics["nmi"] - nmi) > 1e-9:
        errors.append(f"metrics.json: nmi {metrics['nmi']} != recomputed {nmi}")
    if kmodes:
        dist = (bits[:, None, :] != protos[None, :, :]).sum(axis=2)
        best = next(r for r in metrics["runs_detail"]
                    if r["seed"] == metrics["best_seed"])
        converged = best["iterations"] < KMODES_MAX_ITER
        if converged and not np.array_equal(dist.argmin(axis=1), labels):
            errors.append("kmodes: a point is not labelled with its nearest "
                          "prototype (lowest index on ties)")
        if abs(metrics["total_inertia"] - dist.min(axis=1).sum()) > 1e-9:
            errors.append("kmodes: total_inertia differs from recomputed")
    return errors


def _check_sweep(out: Path, cells: int) -> list[str]:
    rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
    if len(rows) != cells:
        return [f"sweep.csv: {len(rows)} cells, expected {cells}"]
    bad = [r for r in rows if r["status"] != "ok"
           or not 0.0 <= float(r["nmi"]) <= 1.0
           or int(r["num_clusters"]) < 1]
    if bad:
        return [f"sweep.csv: cell k1={bad[0]['k1']} k2={bad[0]['k2']} "
                f"is not a valid result: {bad[0]}"]
    return []


def semantic_errors(command: str, out: Path, bits: np.ndarray,
                    truth: np.ndarray, cells: int) -> list[str]:
    if command == "sweep":
        return _check_sweep(out, cells)
    return _check_clustering(out, bits, truth)


def reported_nmi(command: str, out: Path) -> float:
    """NMI of the output against the planted truth; a sweep's best cell."""
    if command == "sweep":
        rows = csv.DictReader((out / "sweep.csv").read_text().splitlines())
        return max(float(r["nmi"]) for r in rows)
    return float(json.loads((out / "metrics.json").read_text())["nmi"])

"""Clustering quality indices (NMI, adjusted Rand) and the quantization error."""

from __future__ import annotations

import numpy as np

from .binvec import DimensionMismatch, bit_matrix, pack_bits
from .ingest import Dataset


def contingency(truth, pred) -> np.ndarray:
    """The int64 cross-tabulation of two labelings over the same points, rows
    and columns in first-appearance order of their labels."""
    truth, pred = list(truth), list(pred)
    if len(truth) != len(pred):
        raise ValueError(f"label lengths differ: {len(truth)} vs {len(pred)}")
    if not truth:
        raise ValueError("labelings must be nonempty")
    rows = {u: i for i, u in enumerate(dict.fromkeys(truth))}
    cols = {v: j for j, v in enumerate(dict.fromkeys(pred))}
    t = np.fromiter(map(rows.__getitem__, truth), dtype=np.int64, count=len(truth))
    p = np.fromiter(map(cols.__getitem__, pred), dtype=np.int64, count=len(pred))
    cells = np.bincount(t * len(cols) + p, minlength=len(rows) * len(cols))
    return cells.reshape(len(rows), len(cols))


def _entropy(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def nmi(truth, pred) -> float:
    """Normalized mutual information between two labelings, normalised by the
    geometric mean of the entropies. A degenerate pair where either partition
    carries zero entropy scores 1.0 only when both are single-cluster, else
    0.0."""
    return _nmi(contingency(truth, pred))


def arand(truth, pred) -> float:
    """Hubert-Arabie adjusted Rand index; 1 for identical partitions,
    about 0 for independent ones, negative for systematic disagreement."""
    return _arand(contingency(truth, pred))


def scores(truth, pred) -> tuple[float, float]:
    """(nmi, arand) of two labelings from one contingency table; the same
    values as `nmi(truth, pred)` and `arand(truth, pred)`."""
    ct = contingency(truth, pred)
    return _nmi(ct), _arand(ct)


def _nmi(table: np.ndarray) -> float:
    n = int(table.sum())
    rows, cols = table.sum(axis=1), table.sum(axis=0)
    hu, hv = _entropy(rows, n), _entropy(cols, n)
    if hu == 0.0 or hv == 0.0:
        return 1.0 if hu == hv == 0.0 else 0.0
    nz = table > 0
    pij = table[nz] / n
    outer = np.outer(rows, cols)[nz] / (n ** 2)
    mi = float((pij * np.log(pij / outer)).sum())
    return min(1.0, max(0.0, mi / np.sqrt(hu * hv)))


def _arand(table: np.ndarray) -> float:
    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = comb2(table.astype(float)).sum()
    sum_a = comb2(table.sum(axis=1).astype(float)).sum()
    sum_b = comb2(table.sum(axis=0).astype(float)).sum()
    pairs = comb2(float(table.sum()))
    expected = sum_a * sum_b / pairs if pairs else 0.0
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        # both all-singletons or both one cluster: partitions are identical
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))


def quantization_error(data: Dataset, labels, prototypes) -> float:
    """Mean Hamming distance from each point to its cluster's prototype:
    point i's is row `labels[i]` of the (k, d) 0/1 matrix `prototypes`."""
    labels = np.asarray(labels)
    protos = bit_matrix(prototypes)
    if labels.shape[0] != data.n:
        raise ValueError("one label per data point required")
    if labels.min() < 0:
        raise ValueError(f"negative cluster label {int(labels.min())}")
    if labels.max() >= len(protos):
        raise ValueError(f"missing prototype for cluster {int(labels.max())}")
    if protos.shape[1] != data.d:
        raise DimensionMismatch(
            f"prototype dim {protos.shape[1]} != dataset dim {data.d}")
    # pad bits are zero in both packings, so the word popcounts are exact
    mism = np.bitwise_count(data.packed ^ pack_bits(protos)[labels])
    return int(mism.sum(dtype=np.int64)) / data.n

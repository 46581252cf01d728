"""Clustering quality indices (NMI, adjusted Rand) and the quantization error."""

from __future__ import annotations

import numpy as np

from .binvec import DimensionMismatch, bit_matrix, pack_bits
from .ingest import Dataset


class _LabelShapeError(ValueError, TypeError):
    """Labels that are not 1-d. It is also a TypeError, which such labels
    raised before (their rows are unhashable)."""


def label_codes(labels) -> tuple[np.ndarray, int]:
    """(codes, count): each label's index among the `count` distinct labels,
    numbered in order of first appearance.

    A 1-d integer array of labels in [0, n) is coded without a Python pass
    or a sort (coding each integer array with `np.unique` made a 30-restart
    k-modes command 5-8% slower); any other labels must be hashable. An
    array or a nested list of labels that is not 1-d raises a ValueError
    naming its shape.
    """
    if isinstance(labels, np.ndarray) and labels.ndim != 1:
        raise _LabelShapeError(f"labels must be 1-d, got shape {labels.shape}")
    if (isinstance(labels, np.ndarray) and labels.dtype.kind in "iu" and labels.size
            and labels.min() >= 0 and labels.max() < labels.size):
        first = np.full(int(labels.max()) + 1, labels.size, dtype=np.intp)
        np.minimum.at(first, labels, np.arange(labels.size))
        seen = np.flatnonzero(first < labels.size)
        rank = np.empty(len(first), dtype=np.intp)
        rank[seen[np.argsort(first[seen])]] = np.arange(len(seen))
        return rank[labels], len(seen)
    labels = labels.tolist() if isinstance(labels, np.ndarray) else list(labels)
    try:
        index = {u: i for i, u in enumerate(dict.fromkeys(labels))}
    except TypeError:
        if any(isinstance(u, (list, np.ndarray)) for u in labels):
            raise _LabelShapeError(
                f"labels must be 1-d, got shape {np.shape(labels)}") from None
        raise
    codes = np.fromiter(map(index.__getitem__, labels), dtype=np.intp,
                        count=len(labels))
    return codes, len(index)


def contingency(truth, pred) -> np.ndarray:
    """The int64 cross-tabulation of two labelings over the same points, rows
    and columns in first-appearance order of their labels."""
    (t, rows), (p, cols) = label_codes(truth), label_codes(pred)
    if len(t) != len(p):
        raise ValueError(f"label lengths differ: {len(t)} vs {len(p)}")
    if not len(t):
        raise ValueError("labelings must be nonempty")
    cells = np.bincount(t * cols + p, minlength=rows * cols)
    return cells.reshape(rows, cols)


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
    point i's is row `labels[i]` of the (k, d) 0/1 matrix `prototypes`.
    `labels` is a 1-d integer (not bool) vector with one label per point."""
    labels = np.asarray(labels)
    protos = bit_matrix(prototypes)
    if labels.shape != (data.n,):
        raise ValueError(f"one label per data point required: labels must have "
                         f"shape ({data.n},), got {labels.shape}")
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
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

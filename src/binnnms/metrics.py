"""Clustering quality indices (NMI, adjusted Rand) and the quantization error."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binvec import DimensionMismatch, bit_matrix, pack_bits
from .ingest import Dataset

NMI_NORMALIZATIONS = ("geometric", "arithmetic", "max")


@dataclass
class Contingency:
    """Cross-tabulation of two labelings over the same points."""

    table: np.ndarray
    n: int

    @property
    def row_marginals(self) -> np.ndarray:
        return self.table.sum(axis=1)

    @property
    def col_marginals(self) -> np.ndarray:
        return self.table.sum(axis=0)


def contingency(truth, pred) -> Contingency:
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
    return Contingency(cells.reshape(len(rows), len(cols)), len(truth))


def _entropy(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def nmi(truth, pred, normalization: str = "geometric") -> float:
    """Normalized mutual information between two labelings.

    Default normalization is the geometric mean of the entropies; arithmetic
    and max are available. A degenerate pair where either partition carries
    zero entropy scores 1.0 only when both are single-cluster, else 0.0.
    """
    if normalization not in NMI_NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalization!r}")
    return _nmi(contingency(truth, pred), normalization)


def arand(truth, pred) -> float:
    """Hubert-Arabie adjusted Rand index; 1 for identical partitions,
    about 0 for independent ones, negative for systematic disagreement."""
    return _arand(contingency(truth, pred))


def scores(truth, pred) -> tuple[float, float]:
    """(nmi, arand) of two labelings from one contingency table; the same
    values as `nmi(truth, pred)` and `arand(truth, pred)`."""
    ct = contingency(truth, pred)
    return _nmi(ct, "geometric"), _arand(ct)


def _nmi(ct: Contingency, normalization: str) -> float:
    hu = _entropy(ct.row_marginals, ct.n)
    hv = _entropy(ct.col_marginals, ct.n)
    if hu == 0.0 or hv == 0.0:
        return 1.0 if hu == hv == 0.0 else 0.0
    nz = ct.table[ct.table > 0]
    pij = nz / ct.n
    outer = np.outer(ct.row_marginals, ct.col_marginals)[ct.table > 0] / (ct.n ** 2)
    mi = float((pij * np.log(pij / outer)).sum())
    if normalization == "geometric":
        denom = np.sqrt(hu * hv)
    elif normalization == "arithmetic":
        denom = 0.5 * (hu + hv)
    else:
        denom = max(hu, hv)
    return min(1.0, max(0.0, mi / denom))


def _arand(ct: Contingency) -> float:
    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = comb2(ct.table.astype(float)).sum()
    sum_a = comb2(ct.row_marginals.astype(float)).sum()
    sum_b = comb2(ct.col_marginals.astype(float)).sum()
    pairs = comb2(float(ct.n))
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

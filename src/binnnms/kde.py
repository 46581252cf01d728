"""Discrete kernel density and gradient estimates with the Aitchison-Aitken kernel.

These estimators are the theoretical underpinning of the median shift; the
clustering hot path never evaluates them, they exist for verification and
analysis.
"""

from __future__ import annotations

import math

import numpy as np

from .binvec import BinaryVector, DimensionMismatch, hamming_blocks
from .ingest import Dataset

# above this width the lambda^d factors underflow in linear space
_LOG_SPACE_DIM = 30


def _check_lambda(lam: float):
    if not 0.5 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [1/2, 1], got {lam}")


def _kernel_values(mismatches: np.ndarray, d: int, lam: float) -> np.ndarray:
    """lambda^(d-m) (1-lambda)^m for an array of mismatch counts m."""
    m = np.asarray(mismatches, dtype=float)
    if lam == 1.0:
        return (m == 0).astype(float)
    if d > _LOG_SPACE_DIM:
        return np.exp((d - m) * math.log(lam) + m * math.log1p(-lam))
    return lam ** (d - m) * (1.0 - lam) ** m


def aa_kernel(diff, lam: float) -> float:
    """Aitchison-Aitken kernel on a difference vector with entries in {-1,0,1}.

    Value is lambda^(d-m) (1-lambda)^m where m counts nonzero entries.
    lambda = 1/2 is the flat kernel, lambda = 1 the point mass at zero.
    """
    _check_lambda(lam)
    arr = np.asarray(diff, dtype=np.int64)
    if not np.isin(arr, (-1, 0, 1)).all():
        raise ValueError("difference components must be -1, 0, or 1")
    m = int(np.count_nonzero(arr))
    return float(_kernel_values(np.array([m]), arr.size, lam)[0])


def _mismatches(data: Dataset, x: BinaryVector) -> np.ndarray:
    """Hamming distances from x to every data row."""
    if x.dim != data.d:
        raise DimensionMismatch(f"point dim {x.dim} != dataset dim {data.d}")
    _, dist = next(hamming_blocks(x.packed[None], data.packed))
    return dist[0]


def kde_estimate(data: Dataset, x: BinaryVector, lam: float) -> float:
    """Kernel density estimate at x: mean of kernel values over the data."""
    _check_lambda(lam)
    return float(_kernel_values(_mismatches(data, x), data.d, lam).mean())


def kde_gradient(data: Dataset, x: BinaryVector, lam: float) -> np.ndarray:
    """Density gradient estimate at x.

    2 log(lam/(1-lam)) n^-1 [sum_i X_i K(x - X_i) - x sum_i K(x - X_i)].
    lam = 1 is rejected: the log factor diverges and the point-mass case is
    handled symbolically by the majority-vote recurrence instead.
    """
    _check_lambda(lam)
    if lam == 1.0:
        raise ValueError("gradient undefined at lambda = 1 (log factor diverges)")
    kv = _kernel_values(_mismatches(data, x), data.d, lam)
    weighted = kv @ data.bits.astype(float)
    scale = 2.0 * math.log(lam / (1.0 - lam)) / data.n
    return scale * (weighted - x.bits.astype(float) * kv.sum())

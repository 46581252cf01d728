"""Median center (majority vote) under the Hamming distance.

The vector that minimizes the weighted Hamming inertia of a sample of rows
is their component-wise weighted majority vote: `majority_bits` computes it
for one weighted sample, `group_majority_bits` for every group of a labeled
matrix at once.
"""

from __future__ import annotations

import numpy as np

from .binvec import bit_matrix


def majority_bits(bits, weights, tie_bits: np.ndarray | None = None) -> np.ndarray:
    """Component-wise weighted majority over the rows of a 0/1 matrix.

    The matrix needs at least one row and `weights` one positive weight per
    row. Exact ties take the corresponding bit of `tie_bits` when given,
    else 0. Integer weights sum exactly in float64, so their tie test is
    exact; other weights tie within `np.isclose`.
    """
    bits = bit_matrix(bits)
    weights = np.asarray(weights, dtype=float)
    if not bits.shape[0]:
        raise ValueError("need at least one row")
    if weights.shape != (bits.shape[0],):
        raise ValueError(f"need one weight per row: got shape {weights.shape} "
                         f"for {bits.shape[0]} rows")
    if not (weights > 0).all():
        raise ValueError("weights must be positive")
    twice = 2.0 * (weights @ bits)
    total = weights.sum()
    out = (twice > total).astype(np.uint8)
    if (weights == np.round(weights)).all():
        tied = twice == total
    else:
        tied = np.isclose(twice, total)
    if tie_bits is not None:
        out[tied] = tie_bits[tied]
    else:
        out[tied] = 0
    return out


def group_majority_bits(bits: np.ndarray, groups: np.ndarray, k: int,
                        tie_bits: np.ndarray | None = None) -> np.ndarray:
    """Row g, for g in range(k), is the component-wise majority of the rows
    of the 0/1 matrix `bits` whose `groups` entry is g, counted in integers.

    A tie, and so an empty group, takes row g of `tie_bits` when given,
    else 0.
    """
    sizes = np.bincount(groups, minlength=k)
    # group by group; a narrow key takes numpy's radix sort
    order = np.argsort(groups.astype(np.min_scalar_type(k)), kind="stable")
    rows = np.take(bits, order, axis=0)
    ends = np.cumsum(sizes).tolist()
    # every count fits the narrowest type that holds the largest group size;
    # only the (k, d) counts widen, for the tie test
    count = np.min_scalar_type(sizes.max())
    ones = np.stack([rows[e - s:e].sum(axis=0, dtype=count)
                     for s, e in zip(sizes.tolist(), ends)])
    twice, sizes = 2 * ones.astype(np.int64), sizes[:, None]
    tie = 0 if tie_bits is None else tie_bits
    return np.where(twice == sizes, tie, twice > sizes).astype(np.uint8)

"""Median center (majority vote) and inertia under the Hamming distance."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .binvec import BinaryVector, DimensionMismatch


@dataclass
class WeightedSample:
    """A nonempty set of equal-width binary vectors with positive weights."""

    points: list[BinaryVector]
    weights: np.ndarray | None = None

    def __post_init__(self):
        if not self.points:
            raise ValueError("sample must be nonempty")
        d = self.points[0].dim
        if any(p.dim != d for p in self.points):
            raise DimensionMismatch("all sample points must share one dimension")
        if self.weights is None:
            self.weights = np.ones(len(self.points))
        else:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != (len(self.points),):
                raise ValueError("one weight per point required")
            if not (self.weights > 0).all():
                raise ValueError("weights must be positive")

    @property
    def dim(self) -> int:
        return self.points[0].dim

    def bit_matrix(self) -> np.ndarray:
        return np.stack([p.bits for p in self.points])


def majority_bits(bits: np.ndarray, weights: np.ndarray,
                  tie_bits: np.ndarray | None = None) -> np.ndarray:
    """Component-wise weighted majority over the rows of a 0/1 matrix.

    Exact ties take the corresponding bit of `tie_bits` when given, else 0.
    Integer weights sum exactly in float64, so their tie test is exact;
    other weights tie within `np.isclose`.
    """
    weights = np.asarray(weights, dtype=float)
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


def median_center(s: WeightedSample, tie_breaker: BinaryVector | None = None) -> BinaryVector:
    """The binary vector minimizing the weighted Hamming inertia of the sample.

    Equals the component-wise weighted majority vote; ties follow
    `tie_breaker`'s bit when supplied, else 0.
    """
    if tie_breaker is not None and tie_breaker.dim != s.dim:
        raise DimensionMismatch("tie_breaker dimension must match the sample")
    tie = tie_breaker.bits if tie_breaker is not None else None
    return BinaryVector(majority_bits(s.bit_matrix(), s.weights, tie))


def inertia(s: WeightedSample, x: BinaryVector) -> float:
    """Weighted sum of Hamming distances from the sample points to x."""
    if x.dim != s.dim:
        raise DimensionMismatch("x dimension must match the sample")
    mism = (s.bit_matrix() != x.bits).sum(axis=1)
    return float(s.weights @ mism)

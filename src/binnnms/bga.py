"""Binary gradient ascent: the median-shift recurrence over k1 nearest neighbors.

Each step replaces the current iterate with the component-wise majority vote
of its k1 nearest dataset points (ties keep the current iterate's bit, which
makes fixed points stable). `ascend_bits` is the one engine: it steps every
candidate's ascent together, in rounds, on the shared blocked Hamming top-k,
and returns the iterates of each round as matrices.

An ascent cannot cycle: each moving step strictly lowers f(x), the sum of the
Hamming distances from x to its k1 nearest rows. The vote is a Hamming median
of those rows, strictly nearer to them than x when it moves (a tie keeps x's
bit), and its own k1 nearest rows are nearer still. So every ascent ends at a
fixed point or at j_max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binvec import (
    DimensionMismatch,
    bit_matrix,
    hamming_topk,
    pack_bits,
    row_blocks,
    unique_rows,
)
from .ingest import Dataset

DEFAULT_J_MAX = 50


def _vote(data: Dataset, x: np.ndarray, packed: np.ndarray, k1: int) -> np.ndarray:
    """One median-shift step for every row of the (m, d) bit matrix x, whose
    `pack_bits` words are `packed`."""
    idx, _ = hamming_topk(packed, data.packed, k1)
    out = np.empty_like(x)
    # a vote count fits the narrowest type that holds k1, twice it the
    # narrowest that holds 2 * k1
    count, tie_test = np.min_scalar_type(k1), np.min_scalar_type(2 * k1)
    # per row: k1 * d neighbor bits gathered, d counts of at most 8 bytes.
    # The gather is neighbor-major, (k1, rows, d), so the count is k1 adds of
    # whole contiguous (rows, d) planes.
    for sl in row_blocks(len(x), (k1 + 8) * data.d):
        ones = data.bits[idx[sl].T].sum(axis=0, dtype=count)
        twice = 2 * ones.astype(tie_test, copy=False)
        out[sl] = np.where(twice == k1, x[sl], twice > k1)
    return out


@dataclass(eq=False)
class BatchAscent:
    """The ascents of every row of a candidate bit matrix, as matrices.

    `rounds[j]` is (ids, bits): the ids of the candidates still active at
    step j + 1 and their (len(ids), d) iterates x_{j+1}. `at_j_max` is True
    for each candidate that stopped at j_max rather than at a fixed point;
    `endpoints` is the (m, d) matrix of last iterates. Ascents compare (and
    hash) by identity.
    """

    rounds: list[tuple[np.ndarray, np.ndarray]]
    at_j_max: np.ndarray
    endpoints: np.ndarray


def ascend_bits(data: Dataset, x0: np.ndarray, k1: int,
                j_max: int = DEFAULT_J_MAX) -> BatchAscent:
    """The ascent from every row of the (m, d) 0/1 matrix x0.

    Each ascent iterates the median shift until a fixed point or j_max
    steps (it cannot cycle; see the module docstring); j_max counts total
    steps including the first. k1 ranges over [0, n]: at k1 = 0 no ascent
    takes a step, whatever j_max, so the endpoints are x0 itself (the
    no-ascent baseline). Candidates may coincide with the dataset but need
    not.

    The ascents run together in rounds over one bit matrix of the active
    iterates. Each round dedupes them, steps every distinct iterate with one
    batched kNN (`hamming_topk`) and majority vote, and retires the
    candidates that stopped.
    """
    if not 0 <= k1 <= data.n:
        raise ValueError(f"k1 must be in [0, {data.n}], got {k1}")
    if k1 and j_max < 1:
        raise ValueError("j_max must be at least 1")
    cur = bit_matrix(x0)
    if cur.shape[1] != data.d:
        raise DimensionMismatch(f"candidate dim {cur.shape[1]} != dataset dim {data.d}")
    endpoints = cur.copy()
    rounds = []
    active = np.arange(len(cur) if k1 else 0)
    for _ in range(j_max):
        if not active.size:
            break
        packed = pack_bits(cur)
        first, inverse = unique_rows(packed)
        nxt = _vote(data, cur[first], packed[first], k1)[inverse]
        rounds.append((active, nxt))
        endpoints[active] = nxt
        going = (nxt != cur).any(axis=1)
        active, cur = active[going], nxt[going]
    at_j_max = np.zeros(len(endpoints), dtype=bool)
    at_j_max[active] = True
    return BatchAscent(rounds, at_j_max, endpoints)

"""Binary vectors, Hamming distance, and categorical-to-binary coding."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_WORD_BITS = 64

# Cap, in bytes, on each temporary of the blocked Hamming kernel: the
# (queries, rows) uint64 XOR block; its narrow counts and distances are
# smaller.
BLOCK_BYTES = 256 * 1024


class DimensionMismatch(ValueError):
    """Raised when two binary vectors of different widths are combined."""


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a 0/1 array (last axis = bit axis) into uint64 words, each word's
    first bit in its most significant place.

    Numeric word order is then row order, and trailing pad bits are zero, so
    XOR + popcount over words is an exact Hamming distance.
    """
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    d = bits.shape[-1]
    pad = (-d) % _WORD_BITS
    if pad:
        pad_shape = bits.shape[:-1] + (pad,)
        bits = np.concatenate([bits, np.zeros(pad_shape, dtype=np.uint8)], axis=-1)
    return np.packbits(bits, axis=-1).view(">u8").astype(np.uint64)


def bit_matrix(bits) -> np.ndarray:
    """`bits` as an (m, d) uint8 matrix; ValueError unless it is 2-d with
    every cell exactly 0 or 1."""
    arr = np.asarray(bits)
    if arr.ndim != 2:
        raise ValueError(f"bits must be an (m, d) matrix, got shape {arr.shape}")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError("components must be exactly 0 or 1")
    return arr.astype(np.uint8, copy=False)


def unique_rows(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) of the distinct rows of an (m, words) `pack_bits`
    matrix, as `np.unique(bits, axis=0, return_index=True,
    return_inverse=True)` gives them for the bits it packs: `packed[first]`
    are the distinct rows in ascending order, each at its first occurrence,
    and `packed[first][inverse]` is `packed`.

    The words order like the bits, so one stable lexsort over them does it.
    """
    order = np.lexsort(packed.T[::-1])  # the first word is the primary key
    ranked = packed[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def row_blocks(m: int, row_bytes: int):
    """Slices covering range(m), each with at most BLOCK_BYTES // row_bytes
    rows (at least one; all m in one slice when rows take no bytes)."""
    step = max(1, BLOCK_BYTES // max(row_bytes, 1))
    return [slice(s, min(s + step, m)) for s in range(0, m, step)]


def _distance_dtype(words: int):
    """The narrowest unsigned type that holds a distance over `words` words."""
    return np.min_scalar_type(64 * words)


def _word_major(q_packed: np.ndarray, packed_rows: np.ndarray) -> np.ndarray:
    """The (words, rows) contiguous copy of `packed_rows` that the kernel
    scans. Queries and rows of different word counts raise DimensionMismatch;
    equal counts cannot tell a 10-bit row from a 64-bit one, so callers
    check d."""
    words = packed_rows.shape[1]
    if q_packed.shape[1] != words:
        raise DimensionMismatch(f"incompatible packed widths: "
                                f"{q_packed.shape[1]} words vs {words}")
    return np.ascontiguousarray(packed_rows.T)


def _hamming_cols(q_packed: np.ndarray, cols: np.ndarray):
    """The kernel of `hamming_blocks`, over rows given word-major: column j
    of the (words, rows) `cols` is row j's words, and each `cols[w]` is
    contiguous. Each word of a query block is one (block, rows) XOR and
    popcount; the first word's popcount lands in the distances themselves."""
    words, n = cols.shape
    dtype = _distance_dtype(words)
    blocks = row_blocks(q_packed.shape[0], 8 * n)
    size = blocks[0].stop if blocks else 0
    xor = np.empty((size, n), dtype=np.uint64)
    ones = np.empty((size, n), dtype=dtype)
    for sl in blocks:
        q = q_packed[sl]
        b = len(q)
        dist = np.empty((b, n), dtype=dtype)
        np.bitwise_xor(q[:, 0, None], cols[0], out=xor[:b])
        np.bitwise_count(xor[:b], out=dist)
        for w in range(1, words):
            np.bitwise_xor(q[:, w, None], cols[w], out=xor[:b])
            dist += np.bitwise_count(xor[:b], out=ones[:b])
        yield sl, dist


def hamming_blocks(q_packed: np.ndarray, packed_rows: np.ndarray):
    """Hamming distances from packed queries to every packed row, one query
    block at a time: yields (block slice, (block, rows) distances), every
    per-block temporary within BLOCK_BYTES.

    The distances come in the narrowest unsigned type that holds 64 * words
    (uint8 up to 3 words, uint16 above), so mind wraparound in arithmetic on
    them. The rows are copied word-major once per call. Queries and rows of
    different word counts raise DimensionMismatch; equal counts cannot tell
    a 10-bit row from a 64-bit one, so callers check d.
    """
    return _hamming_cols(q_packed, _word_major(q_packed, packed_rows))


def _key_dtype(n: int, words: int):
    """int32 when every top-k key `distance * n + index` over n rows of
    `words` words fits in it, else int64."""
    return np.int32 if (64 * words + 1) * n <= np.iinfo(np.int32).max else np.int64


# Every ceil(m / _LEADERS)-th query of a pruned `hamming_topk` is a leader.
# Measured on the round-2 and round-3 iterates of the k1 = 20 ascent at
# 5000x64 with 20% flips (seeds 1 and 4): 8 leaders planned 0.33-0.40 of
# the dense pairs in round 3, and their sample fell back in round 2; 16
# planned 0.12-0.15 in both rounds; 32 planned 0.12-0.14, with the prefix
# lengths rounded up to powers of two, and the ascent's top-k total was no
# faster (61.5-68.0 ms against 61.7-68.9 ms) for twice the leader pass.
_LEADERS = 16


def _select(keys: np.ndarray, blocks, index: np.ndarray, n: int) -> np.ndarray:
    """Fill each row of the (queries, k) `keys` with the k least keys
    `distance * n + index[j]` of its query's distances, from the (block
    slice, distances) pairs `blocks`, column j holding row index[j]; the k
    come unordered. Returns `keys`."""
    k = keys.shape[1]
    for sl, dist in blocks:
        key = np.multiply(dist, n, dtype=keys.dtype)
        key += index
        key.partition(k - 1, axis=1)
        keys[sl] = key[:, :k]
    return keys


def _nearest(lead_q: np.ndarray, q_packed: np.ndarray):
    """(nearest, delta): the index into the packed leaders `lead_q` of each
    packed query's nearest leader (the lower on a tie), and its distance."""
    to_leader = np.concatenate([dist for _, dist in _hamming_cols(
        lead_q, np.ascontiguousarray(q_packed.T))])
    key = np.multiply(to_leader, len(lead_q), dtype=np.intp)
    key += np.arange(len(lead_q))[:, None]
    delta, nearest = np.divmod(key.min(axis=0), len(lead_q))
    return nearest, delta


def _span(length: np.ndarray, n: int) -> np.ndarray:
    """Each prefix length rounded up to a power of two, at most n."""
    return np.minimum(np.left_shift(1, np.frexp(length - 1)[1].astype(np.intp)), n)


def _pays(groups: np.ndarray, counts, n: int, m: int) -> bool:
    """Whether batches of `counts` queries, one per distinct key of `groups`
    (leader * (n + 1) + prefix length), cost less than half a dense pass
    of m queries over n rows, each batch weighing one block and its area
    its blocks."""
    size = groups % (n + 1)
    return 2 * (len(groups) * BLOCK_BYTES + 8 * (size * counts).sum()) < 8 * m * n


def _select_pruned(keys: np.ndarray, q_packed: np.ndarray, cols: np.ndarray,
                   index: np.ndarray) -> None:
    """`_select` for every query, scanning only rows that can be in its
    top-k (a pivot bound; Chavez et al., ACM CSUR 2001).

    Leaders take the dense pass. Every other query q takes its nearest
    leader p, at delta = d(q, p). Each row r of q's top-k, a boundary tie
    included, has d(p, r) <= d(q, r) + delta <= T_q + delta <= T_p + 2 delta,
    T being the k-th distance. So q scans only the prefix of p's rows in
    (distance from p, index) order up to that bound, rounded up to a power
    of two, in one batch with the other queries of the same leader and
    length; the key still carries the row's own index.

    The other queries take the dense pass instead when the plan does not
    pay (`_pays`), judged first on the queries midway between leaders, a
    sample planned on its own, then on the full plan. The sample spares a
    pass that no bound prunes, such as a self-join of noisy rows, the full
    plan: that cost 4% of a 2000x240 self-join.
    """
    (m, k), (words, n) = keys.shape, cols.shape
    step = -(-m // _LEADERS)
    leaders = np.arange(0, m, step)
    lead_q = q_packed[leaders]
    blocks = list(_hamming_cols(lead_q, cols))
    keys[leaders] = _select(np.empty((len(leaders), k), keys.dtype), blocks, index, n)
    kth = keys[leaders].max(axis=1) // n
    lead_dist = np.concatenate([dist for _, dist in blocks])
    rest = np.delete(np.arange(m), leaders)
    top = 64 * words  # the largest distance; the bounds are cut to it

    # the sample's own batches, each standing for len(rest) / len(sample)
    # queries: at most as many batches as the full plan, about its area
    nearest, delta = _nearest(lead_q, q_packed[step // 2::step])
    bound = np.minimum(kth[nearest] + 2 * delta, top).astype(lead_dist.dtype)
    span = _span((lead_dist[nearest] <= bound[:, None]).sum(axis=1), n)
    groups, counts = np.unique(nearest * (n + 1) + span, return_counts=True)
    if _pays(groups, counts * len(rest) / len(span), n, m):
        nearest, delta = _nearest(lead_q, q_packed[rest])
        # within[p, t]: the rows within distance t of leader p
        offset = (top + 1) * np.arange(len(leaders))[:, None]
        within = np.bincount((lead_dist + offset).ravel(), minlength=offset.size * (top + 1))
        within = within.reshape(len(leaders), top + 1).cumsum(axis=1)
        span = _span(within[nearest, np.minimum(kth[nearest] + 2 * delta, top)], n)
        groups, inverse, counts = np.unique(nearest * (n + 1) + span,
                                            return_inverse=True, return_counts=True)
        if _pays(groups, counts, n, m):
            leader, size = np.divmod(groups, n + 1)
            batches = np.split(rest[np.argsort(inverse, kind="stable")],
                               np.cumsum(counts)[:-1])
            for p in np.unique(leader):
                lo, hi = np.searchsorted(leader, [p, p + 1])
                # p's rows in (distance from p, index) order, up to its longest prefix
                order = np.argsort(lead_dist[p], kind="stable")[:size[hi - 1]]
                p_cols, p_index = cols[:, order], order.astype(keys.dtype)
                for s, rows in zip(size[lo:hi], batches[lo:hi]):
                    keys[rows] = _select(np.empty((len(rows), k), keys.dtype),
                                         _hamming_cols(q_packed[rows], p_cols[:, :s]),
                                         p_index[:s], n)
            return
    keys[rest] = _select(np.empty((len(rest), k), keys.dtype),
                         _hamming_cols(q_packed[rest], cols), index, n)


def hamming_topk(q_packed: np.ndarray, packed_rows: np.ndarray,
                 k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest packed rows to each packed query, as (indices, distances).

    Both are (queries, k), ordered by (distance, row index), so a boundary
    tie goes to the lower index. The row index rides in the low part of the
    partition key `distance * n + index`, which makes every key unique; the
    key is cast from the narrow distances by the multiply itself. A dense
    pass spanning more than 16 blocks is pruned exactly: see
    `_select_pruned`.
    """
    n, words = packed_rows.shape
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    cols = _word_major(q_packed, packed_rows)
    m = q_packed.shape[0]
    dtype = _key_dtype(n, words)
    keys = np.empty((m, k), dtype=dtype)
    index = np.arange(n, dtype=dtype)
    if k and 8 * m * n > 16 * BLOCK_BYTES:
        _select_pruned(keys, q_packed, cols, index)
    else:
        _select(keys, _hamming_cols(q_packed, cols), index, n)
    keys.sort(axis=1)
    return keys % n, keys // n


class BinaryVector:
    """Immutable fixed-width vector over {0,1}^d, bit-packed for fast distances."""

    __slots__ = ("_bits",)

    def __init__(self, bits):
        arr = np.asarray(bits)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("bits must be a nonempty 1-d sequence")
        if not ((arr == 0) | (arr == 1)).all():
            raise ValueError("components must be exactly 0 or 1")
        arr = arr.astype(np.uint8)
        arr.flags.writeable = False
        self._bits = arr

    @classmethod
    def from_string(cls, s: str) -> "BinaryVector":
        return cls([int(c) for c in s])

    @property
    def bits(self) -> np.ndarray:
        return self._bits

    @property
    def dim(self) -> int:
        return self._bits.shape[0]

    @property
    def packed(self) -> np.ndarray:
        return pack_bits(self._bits)

    def to01(self) -> str:
        return "".join("1" if b else "0" for b in self._bits)

    def __len__(self) -> int:
        return self.dim

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryVector):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self._bits, other._bits)

    def __hash__(self) -> int:
        return hash((self.dim, self._bits.tobytes()))

    def __repr__(self) -> str:
        return f"BinaryVector({self.to01()!r})"


def hamming(a: BinaryVector, b: BinaryVector) -> int:
    """Number of mismatching components between two binary vectors."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"incompatible vectors: dim {a.dim} vs {b.dim}")
    return int(np.bitwise_count(a.packed ^ b.packed).sum())


# --- categorical coding -----------------------------------------------------

CODINGS = ("additive", "disjunctive")


@dataclass(frozen=True)
class Feature:
    """One feature of a schema: a single bit, or an encoded categorical.

    `vocab` maps raw cell strings to 1-based levels by position; a
    categorical feature given only a level count has the vocabulary
    ("1", ..., str(levels)), so its cells are exactly those strings.
    """

    name: str
    kind: str  # "binary" | "categorical"
    levels: int = 1
    coding: str = "disjunctive"
    vocab: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("binary", "categorical"):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.kind == "categorical":
            if self.levels < 1:
                raise ValueError("categorical feature needs levels >= 1")
            if self.coding not in CODINGS:
                raise ValueError(f"unknown coding {self.coding!r}")
            if self.vocab is None:
                object.__setattr__(self, "vocab", range(1, self.levels + 1))
        if self.vocab is not None:
            object.__setattr__(self, "vocab", tuple(str(v) for v in self.vocab))
            if len(self.vocab) != self.levels:
                raise ValueError("vocab length must equal levels")
            if len(set(self.vocab)) != self.levels:  # a column no cell could set
                raise ValueError(f"vocab repeats a level: {','.join(self.vocab)}")

    @property
    def width(self) -> int:
        return 1 if self.kind == "binary" else self.levels


@dataclass(frozen=True)
class FeatureSchema:
    features: tuple[Feature, ...]

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))

    @property
    def encoded_dim(self) -> int:
        return sum(f.width for f in self.features)


def codewords(levels: int, coding: str) -> np.ndarray:
    """The (levels, levels) uint8 codeword matrix: row l - 1 codes level l,
    one-hot (disjunctive) or as its first l bits set (additive)."""
    if coding not in CODINGS:
        raise ValueError(f"unknown coding {coding!r}")
    return (np.eye if coding == "disjunctive" else np.tri)(levels, dtype=np.uint8)


def encode_categorical(level: int, levels: int, coding: str) -> BinaryVector:
    """A 1-based categorical level as row `level - 1` of `codewords(levels, coding)`."""
    if coding not in CODINGS:
        raise ValueError(f"unknown coding {coding!r}")
    if not 1 <= level <= levels:
        raise ValueError(f"level {level} out of range [1, {levels}]")
    return BinaryVector(codewords(levels, coding)[level - 1])


@dataclass(frozen=True)
class DecodedLevel:
    level: int
    exact: bool


def decode_categorical(v: BinaryVector, levels: int, coding: str) -> DecodedLevel:
    """Inverse of encode_categorical.

    Invalid codewords (which gradient ascent can produce inside a coded block)
    resolve to the nearest valid codeword under Hamming distance, flagged
    inexact; ties break to the lowest level.
    """
    if v.dim != levels:
        raise DimensionMismatch(f"codeword width {v.dim} != levels {levels}")
    dist = (codewords(levels, coding) != v.bits).sum(axis=1)
    best = int(dist.argmin())  # the first minimum: the lowest level
    return DecodedLevel(best + 1, bool(dist[best] == 0))

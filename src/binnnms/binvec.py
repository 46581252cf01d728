"""Binary vectors, Hamming distance, and categorical-to-binary coding."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_WORD_BITS = 64

# Cap, in bytes, on each temporary of the blocked Hamming kernel: the
# (queries, rows) uint64 XOR block, and the int32 or int64 top-k key buffer
# of a keyed call; its narrow counts and distances are smaller.
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


def _key_layout(n: int, words: int):
    """(dtype, half) of the top-k key `distance << half | index` over n rows
    of `words` words: int32 with half = 16 while every index and distance
    fits in its half (n <= 2^16 and 64 * words < 2^15), else int64 with
    half = 32. Every key is then unique and non-negative, and orders by
    (distance, index)."""
    if n <= 1 << 16 and 64 * words < 1 << 15:
        return np.int32, 16
    return np.int64, 32


def _high(keys: np.ndarray, dtype) -> np.ndarray:
    """The view, as the narrow unsigned `dtype`, of the low end of each
    key's high half: writing a distance through it sets `distance << half`
    when the high half was zero. The sub-element is found by writing
    1 << half into a key, so it holds in either byte order."""
    probe = np.array([1 << 4 * keys.itemsize], keys.dtype).view(dtype)
    at = int(np.flatnonzero(probe)[0])
    return keys.view(dtype)[..., at::len(probe)]


def _decode(keys: np.ndarray, half: int) -> tuple[np.ndarray, np.ndarray]:
    """(index, distance) of the keys `distance << half | index`."""
    return keys & (1 << half) - 1, keys >> half


def _count(q: np.ndarray, cols: np.ndarray, xor: np.ndarray, ones: np.ndarray,
           dist: np.ndarray) -> None:
    """Fill the (block, rows) `dist` with the distances from the packed
    queries `q` to the word-major rows `cols`: one XOR and popcount per word,
    the first word's popcount landing in `dist` itself."""
    np.bitwise_xor(q[:, 0, None], cols[0], out=xor)
    np.bitwise_count(xor, out=dist)
    for w in range(1, cols.shape[0]):
        np.bitwise_xor(q[:, w, None], cols[w], out=xor)
        dist += np.bitwise_count(xor, out=ones)


def _hamming_cols(q_packed: np.ndarray, cols: np.ndarray,
                  index: np.ndarray | None = None):
    """The kernel of `hamming_blocks`, over rows given word-major: column j
    of the (words, rows) `cols` is row j's words, and each `cols[w]` is
    contiguous.

    Given the (rows,) int32 or int64 `index`, it yields top-k keys in
    place of distances: column j of each block is `distance << half |
    index[j]`, half being half the key's width (`_key_layout`). The keys
    live in one (block, rows) buffer that every block reuses, so a caller
    is done with a block before it takes the next. Each block is filled
    with `index`, and the distances land in its high half (`_high`): a
    one-word popcount writes there directly; wider rows add up in a
    contiguous buffer, copied there once. At 20000x256 (one query per
    block) adding the last word through the strided view cost about 3% over
    the copy, and every word's add through it made the 2000x240 digits
    shape 16% slower.

    Below np.getbufsize() / 3 rows NumPy sends the broadcast query column
    through its ufunc buffer, and the XOR runs 1.5-3x slower per element. A
    block of at least 8192 elements there runs under a buffer just over one
    row, scoped by np.errstate, which restores it before each yield: at
    2000x2000 and 4 words 1.65 -> 0.95 ns per element, and 10 queries against
    2000 rows of 4 words 143 -> 86 us (2 vCPUs, numpy 2.4.6)."""
    words, n = cols.shape
    dtype = _distance_dtype(words)
    blocks = row_blocks(q_packed.shape[0], 8 * n)
    size = blocks[0].stop if blocks else 0
    xor = np.empty((size, n), dtype=np.uint64)
    ones = np.empty((size, n), dtype=dtype)
    if index is not None:
        keys = np.empty((size, n), dtype=index.dtype)
        high = _high(keys, dtype)
        sums = high if words == 1 else np.empty((size, n), dtype=dtype)
    # the first block is the largest: smaller calls never read the buffer size
    short = size * n >= 8192 and 3 * n < np.getbufsize()
    for sl in blocks:
        q = q_packed[sl]
        b = len(q)
        if index is None:
            dist = np.empty((b, n), dtype=dtype)
        else:
            dist = sums[:b]
            np.copyto(keys[:b], index)
        if short and b * n >= 8192:
            with np.errstate():
                np.setbufsize(max(16, 1 << n.bit_length()))  # a multiple of 16
                _count(q, cols, xor[:b], ones[:b], dist)
        else:
            _count(q, cols, xor[:b], ones[:b], dist)
        if index is not None:
            if sums is not high:
                np.copyto(high[:b], dist)
            dist = keys[:b]
        yield sl, dist


def hamming_blocks(q_packed: np.ndarray, packed_rows: np.ndarray):
    """Hamming distances from packed queries to every packed row, one query
    block at a time: yields (block slice, (block, rows) distances), every
    per-block temporary within BLOCK_BYTES.

    The distances come in the narrowest unsigned type that holds 64 * words
    (uint8 up to 3 words, uint16 up to 1023, uint32 from 1024 words, that is
    65,473 bits), so mind wraparound in arithmetic on them. The rows are
    copied word-major once per call. Queries and rows of different word
    counts raise DimensionMismatch; equal counts cannot tell a 10-bit row
    from a 64-bit one, so callers check d.
    """
    return _hamming_cols(q_packed, _word_major(q_packed, packed_rows))


# Every ceil(m / _LEADERS)-th query of a pruned `hamming_topk` is a leader.
# Measured on the round-2 and round-3 iterates of the k1 = 20 ascent at
# 5000x64 with 20% flips (seeds 1 and 4): 8 leaders planned 0.33-0.40 of
# the dense pairs in round 3, and their plan, judged on a sample, fell back
# in round 2; 16 planned 0.12-0.15 in both rounds; 32 planned 0.12-0.14,
# with the prefix lengths rounded up to powers of two, and the ascent's
# top-k total was no faster (61.5-68.0 ms against 61.7-68.9 ms) for twice
# the leader pass.
_LEADERS = 16


def _select(keys: np.ndarray, blocks) -> np.ndarray:
    """Fill each row of the (queries, k) `keys` with the k least of its
    query's keys, from the (block slice, keys) pairs `blocks` of a keyed
    `_hamming_cols`, each block partitioned in place; the k come
    unordered. Returns `keys`."""
    k = keys.shape[1]
    for sl, key in blocks:
        key.partition(k - 1, axis=1)
        keys[sl] = key[:, :k]
    return keys


class _Nearest:
    """Which of k packed queries is nearest each of n packed rows, the lower
    query on a tie. Row j of the (k, n) key matrix holds `distance << half
    | j` (`_key_layout` over k ids), the ids written once; `dist`, the view
    of the keys' high half, holds query j's distances in its row j, as
    `write` last set them. The rows are copied word-major once."""

    def __init__(self, k: int, packed_rows: np.ndarray):
        self._cols = np.ascontiguousarray(packed_rows.T)
        words = packed_rows.shape[1]
        dtype, self._half = _key_layout(k, words)
        self._keys = np.empty((k, len(packed_rows)), dtype=dtype)
        np.copyto(self._keys, np.arange(k, dtype=dtype)[:, None])
        self.dist = _high(self._keys, _distance_dtype(words))

    def write(self, ids: np.ndarray, q_packed: np.ndarray) -> None:
        """Rewrite the rows `ids` of `dist` with the distances from their
        packed queries `q_packed`, in one kernel call (none for no ids)."""
        if len(ids):
            for sl, block in _hamming_cols(q_packed, self._cols):
                self.dist[ids[sl]] = block

    def nearest(self) -> tuple[np.ndarray, np.ndarray]:
        """(query, distance) nearest each row, from one column minimum of
        the keys: each is unique, so a tie goes to the lower query."""
        return _decode(self._keys.min(axis=0), self._half)


def _span(length: np.ndarray, n: int) -> np.ndarray:
    """Each prefix length rounded up to a power of two, at most n."""
    return np.minimum(np.left_shift(1, np.frexp(length - 1)[1].astype(np.intp)), n)


def _select_pruned(keys: np.ndarray, q_packed: np.ndarray, cols: np.ndarray,
                   index: np.ndarray) -> None:
    """`_select` for every query, scanning only rows that can be in its
    top-k (a pivot bound; Chavez et al., ACM CSUR 2001).

    Leaders take the dense pass. Every other query q takes its nearest
    leader p, at delta = d(q, p), from one `_Nearest` pass, the routine
    that also assigns k-modes' rows to prototypes. Each row r of q's
    top-k, a boundary tie included, has d(p, r) <= d(q, r) + delta <=
    T_q + delta <= T_p + 2 delta, T being the k-th distance. So q scans
    only the prefix of p's rows in (distance from p, index) order up to
    that bound, rounded up to a power of two, in one batch with the other
    queries of the same leader and length; the batch's kernel call takes
    those rows' own indices, so each key still carries its row's index.
    `keys` and `index` are in `hamming_topk`'s layout.

    A query whose rounded bound reaches n, as round 1's self-join of noisy
    rows does for almost all, joins one batch that scans `cols` and `index`
    in place, with no leader order or gather. The plan costs a histogram of
    the leaders' distances, one (leaders, queries) pass and one sort of the
    queries: on a pass that no bound prunes about 0.5 ms of the 37 at
    5000x64, on top of the dense pass.
    """
    (m, k), (words, n) = keys.shape, cols.shape
    half = 4 * keys.itemsize
    leaders = np.arange(0, m, -(-m // _LEADERS))
    lead_q = q_packed[leaders]
    lead_keys = np.empty((len(leaders), n), keys.dtype)
    for sl, key in _hamming_cols(lead_q, cols, index):
        lead_keys[sl] = key
    lead_dist = np.ascontiguousarray(_high(lead_keys, _distance_dtype(words)))
    keys[leaders] = _select(np.empty((len(leaders), k), keys.dtype),
                            [(slice(None), lead_keys)])
    kth = keys[leaders].max(axis=1) >> half
    rest = np.delete(np.arange(m), leaders)
    top = 64 * words  # the largest distance; the bounds are cut to it

    # within[p, t]: the rows within distance t of leader p
    offset = (top + 1) * np.arange(len(leaders))[:, None]
    within = np.bincount((lead_dist + offset).ravel(), minlength=offset.size * (top + 1))
    within = within.reshape(len(leaders), top + 1).cumsum(axis=1)
    near = _Nearest(len(leaders), q_packed[rest])
    near.write(np.arange(len(leaders)), lead_q)
    nearest, delta = near.nearest()
    span = _span(within[nearest, np.minimum(kth[nearest] + 2 * delta, top)], n)
    nearest[span == n] = len(leaders)  # the in-place batch, sorted last
    # the batches: runs of one group key (leader, span), in the stable order
    # of one sort of the unique keys `group * len(rest) + position`
    group, order = np.divmod(np.sort((nearest * (n + 1) + span) * len(rest)
                                     + np.arange(len(rest))), len(rest))
    bounds = np.append(np.flatnonzero(np.diff(group, prepend=-1)), len(rest))
    rest = rest[order]
    leader, size = np.divmod(group[bounds[:-1]], n + 1)
    for p in np.unique(leader):
        lo, hi = np.searchsorted(leader, [p, p + 1])
        if p == len(leaders):
            p_cols, p_index = cols, index
        else:  # p's rows in (distance from p, index) order, to its longest prefix
            p_order = np.argsort(lead_dist[p], kind="stable")[:size[hi - 1]]
            p_cols, p_index = cols[:, p_order], p_order.astype(keys.dtype)
        for s, a, b in zip(size[lo:hi], bounds[lo:hi], bounds[lo + 1:hi + 1]):
            rows = rest[a:b]
            keys[rows] = _select(np.empty((len(rows), k), keys.dtype),
                                 _hamming_cols(q_packed[rows], p_cols[:, :s],
                                               p_index[:s]))


def hamming_topk(q_packed: np.ndarray, packed_rows: np.ndarray,
                 k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest packed rows to each packed query, as (indices, distances).

    Both are (queries, k), ordered by (distance, row index), so a boundary
    tie goes to the lower index. The row index rides in the low half of the
    partition key `distance << half | index` (`_key_layout`), which makes
    every key unique; the kernel prefills each key with its index and
    writes the distance into the high half. A dense pass spanning more than
    16 blocks is pruned exactly: see `_select_pruned`.
    """
    n, words = packed_rows.shape
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    cols = _word_major(q_packed, packed_rows)
    m = q_packed.shape[0]
    dtype, half = _key_layout(n, words)
    keys = np.empty((m, k), dtype=dtype)
    index = np.arange(n, dtype=dtype)
    if k and 8 * m * n > 16 * BLOCK_BYTES:
        _select_pruned(keys, q_packed, cols, index)
    else:
        _select(keys, _hamming_cols(q_packed, cols, index))
    keys.sort(axis=1)
    return _decode(keys, half)


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

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
    rows (at least one)."""
    step = max(1, BLOCK_BYTES // row_bytes)
    return [slice(s, min(s + step, m)) for s in range(0, m, step)]


def _distance_dtype(words: int):
    """The narrowest unsigned type that holds a distance over `words` words."""
    return np.min_scalar_type(64 * words)


def hamming_blocks(q_packed: np.ndarray, packed_rows: np.ndarray):
    """Hamming distances from packed queries to every packed row, one query
    block at a time: yields (block slice, (block, rows) distances), every
    per-block temporary within BLOCK_BYTES.

    The distances come in the narrowest unsigned type that holds 64 * words
    (uint8 up to 3 words, uint16 above), so mind wraparound in arithmetic on
    them. The rows are copied word-major once per call, so each word of a
    query block is one (block, rows) XOR and popcount over contiguous
    memory; the first word's popcount lands in the distances themselves.
    """
    n, words = packed_rows.shape
    dtype = _distance_dtype(words)
    cols = np.ascontiguousarray(packed_rows.T)
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


def _key_dtype(n: int, words: int):
    """int32 when every top-k key `distance * n + index` over n rows of
    `words` words fits in it, else int64."""
    return np.int32 if (64 * words + 1) * n <= np.iinfo(np.int32).max else np.int64


def hamming_topk(q_packed: np.ndarray, packed_rows: np.ndarray,
                 k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest packed rows to each packed query, as (indices, distances).

    Both are (queries, k), ordered by (distance, row index), so a boundary
    tie goes to the lower index. The row index rides in the low part of the
    partition key `distance * n + index`, which makes every key unique; the
    key is cast from the narrow distances by the multiply itself.
    """
    n, words = packed_rows.shape
    dtype = _key_dtype(n, words)
    keys = np.empty((q_packed.shape[0], k), dtype=dtype)
    index = np.arange(n, dtype=dtype)
    for sl, dist in hamming_blocks(q_packed, packed_rows):
        key = np.multiply(dist, n, dtype=dtype)
        key += index
        key.partition(k - 1, axis=1)
        keys[sl] = key[:, :k]
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

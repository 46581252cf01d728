"""Binary vectors, Hamming distance, and categorical-to-binary coding."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_WORD_BITS = 64

# Cap, in bytes, on each temporary of the blocked Hamming kernel: the
# (queries, rows) uint64 XOR block; its uint8 counts and int32 distances are
# smaller.
BLOCK_BYTES = 256 * 1024


class DimensionMismatch(ValueError):
    """Raised when two binary vectors of different widths are combined."""


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a 0/1 array (last axis = bit axis) into little-endian uint64 words.

    Trailing pad bits are zero, so XOR + popcount over words is an exact
    Hamming distance.
    """
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    d = bits.shape[-1]
    pad = (-d) % _WORD_BITS
    if pad:
        pad_shape = bits.shape[:-1] + (pad,)
        bits = np.concatenate([bits, np.zeros(pad_shape, dtype=np.uint8)], axis=-1)
    packed = np.packbits(bits, axis=-1, bitorder="little")
    return packed.view("<u8")


def bit_matrix(bits) -> np.ndarray:
    """`bits` as an (m, d) uint8 matrix; ValueError unless it is 2-d with
    every cell exactly 0 or 1."""
    arr = np.asarray(bits)
    if arr.ndim != 2:
        raise ValueError(f"bits must be an (m, d) matrix, got shape {arr.shape}")
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError("components must be exactly 0 or 1")
    return arr.astype(np.uint8, copy=False)


def unique_rows(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(first, inverse, counts) of the distinct rows of an (m, d) 0/1 matrix,
    as `np.unique(bits, axis=0, return_index=True, return_inverse=True,
    return_counts=True)` gives them: `bits[first]` are the distinct rows in
    ascending order, each at its first occurrence, and `bits[first][inverse]`
    is `bits`.

    The rows pack big-endian, so their bytes, read as big-endian words,
    order like the bits; one stable lexsort over the words does the rest.
    """
    packed = np.packbits(bits, axis=1)
    pad = (-packed.shape[1]) % 8
    if pad:
        packed = np.concatenate(
            [packed, np.zeros((packed.shape[0], pad), dtype=np.uint8)], axis=1)
    words = np.ascontiguousarray(packed).view(">u8").astype(np.uint64)
    order = np.lexsort(words.T[::-1])  # the first word is the primary key
    ranked = words[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[starts], inverse, np.diff(starts, append=len(order))


def row_blocks(m: int, row_bytes: int):
    """Slices covering range(m), each with at most BLOCK_BYTES // row_bytes
    rows (at least one)."""
    step = max(1, BLOCK_BYTES // row_bytes)
    return [slice(s, min(s + step, m)) for s in range(0, m, step)]


def hamming_blocks(q_packed: np.ndarray, packed_rows: np.ndarray):
    """Hamming distances from packed queries to every packed row, one query
    block at a time: yields (block slice, (block, rows) int32 distances),
    every per-block temporary within BLOCK_BYTES.

    The rows are copied word-major once per call, so each word of a query
    block is one (block, rows) XOR and popcount over contiguous memory.
    """
    n, words = packed_rows.shape
    cols = np.ascontiguousarray(packed_rows.T)
    blocks = row_blocks(q_packed.shape[0], 8 * n)
    size = blocks[0].stop if blocks else 0
    xor = np.empty((size, n), dtype=np.uint64)
    ones = np.empty((size, n), dtype=np.uint8)
    for sl in blocks:
        q = q_packed[sl]
        b = len(q)
        dist = np.zeros((b, n), dtype=np.int32)
        for w in range(words):
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
    partition key `distance * n + index`, which makes every key unique.
    """
    n, words = packed_rows.shape
    dtype = _key_dtype(n, words)
    keys = np.empty((q_packed.shape[0], k), dtype=dtype)
    index = np.arange(n, dtype=dtype)
    for sl, dist in hamming_blocks(q_packed, packed_rows):
        key = dist.astype(dtype, copy=False)
        key *= n
        key += index
        keys[sl] = np.partition(key, k - 1, axis=1)[:, :k]
    keys.sort(axis=1)
    return keys % n, keys // n


class BinaryVector:
    """Immutable fixed-width vector over {0,1}^d, bit-packed for fast distances."""

    __slots__ = ("_bits", "_packed", "_hash")

    def __init__(self, bits):
        arr = np.asarray(bits)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("bits must be a nonempty 1-d sequence")
        if not ((arr == 0) | (arr == 1)).all():
            raise ValueError("components must be exactly 0 or 1")
        arr = arr.astype(np.uint8)
        arr.flags.writeable = False
        self._bits = arr
        self._packed = None
        self._hash = None

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
        if self._packed is None:
            self._packed = pack_bits(self._bits)
        return self._packed

    def to01(self) -> str:
        return "".join("1" if b else "0" for b in self._bits)

    def __len__(self) -> int:
        return self.dim

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryVector):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self._bits, other._bits)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.dim, self._bits.tobytes()))
        return self._hash

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

    `vocab`, when set, maps raw cell strings to 1-based levels by position.
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
        if self.vocab is not None:
            object.__setattr__(self, "vocab", tuple(str(v) for v in self.vocab))
            if len(self.vocab) != self.levels:
                raise ValueError("vocab length must equal levels")

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


def encode_categorical(level: int, levels: int, coding: str) -> BinaryVector:
    """Encode a 1-based categorical level as a width-`levels` binary vector.

    disjunctive: one-hot.  additive: first `level` bits set (unary staircase).
    """
    if coding not in CODINGS:
        raise ValueError(f"unknown coding {coding!r}")
    if not 1 <= level <= levels:
        raise ValueError(f"level {level} out of range [1, {levels}]")
    bits = np.zeros(levels, dtype=np.uint8)
    if coding == "disjunctive":
        bits[level - 1] = 1
    else:
        bits[:level] = 1
    return BinaryVector(bits)


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
    best_level, best_dist = 1, levels + 1
    for level in range(1, levels + 1):
        d = hamming(v, encode_categorical(level, levels, coding))
        if d < best_dist:
            best_level, best_dist = level, d
    return DecodedLevel(best_level, best_dist == 0)

"""Dataset container, CSV loaders, and the categorical encoding pipeline.

Loaders cover plain binary CSV, schema-driven categorical CSV, and the raw
UCI formats used in the experiments (zoo, digits, spect, soybean, car).
Datasets themselves are never bundled; see scripts/fetch_datasets.py.
"""

from __future__ import annotations

import io
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .binvec import (
    BinaryVector,
    Feature,
    FeatureSchema,
    bit_matrix,
    codewords,
    pack_bits,
)


class DataFormatError(ValueError):
    """Malformed input; a file's error names it, and `_at` places a row or cell."""


@dataclass(eq=False)
class Dataset:
    """Immutable collection of equal-width binary vectors.

    `bits` is an (n, d) 0/1 matrix; `packed` is its `pack_bits` uint64 words,
    used for fast Hamming work and dedupe. Both are read-only, and `packed` is
    always packed from `bits`. Datasets compare (and hash) by identity.
    """

    bits: np.ndarray
    name: str = "dataset"
    truth_labels: list | None = None
    missing_cells: int = 0
    packed: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # bit_matrix may return the caller's own array: freeze a copy
        arr = bit_matrix(self.bits).copy()
        if arr.size == 0:
            raise ValueError("bits must be a nonempty (n, d) matrix")
        arr.flags.writeable = False
        self.bits = arr
        self.packed = pack_bits(arr)
        self.packed.flags.writeable = False
        if self.truth_labels is not None:
            self.truth_labels = list(self.truth_labels)
            if len(self.truth_labels) != arr.shape[0]:
                raise ValueError("truth_labels length must equal n")

    @property
    def n(self) -> int:
        return self.bits.shape[0]

    @property
    def d(self) -> int:
        return self.bits.shape[1]

    def points(self) -> list[BinaryVector]:
        return [BinaryVector(row) for row in self.bits]


# --- delimited text ---------------------------------------------------------

def _read_input(path) -> bytes:
    """The bytes of an input file. A path that names a directory, lies under
    a file or lacks read permission is a DataFormatError naming it."""
    try:
        return Path(path).read_bytes()
    except (IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        raise DataFormatError(f"{path}: cannot read the input: {exc.strerror}") from None


def _decode(raw: bytes, path) -> str:
    """The text `open` reads from the file's bytes; bytes that do not decode
    are a DataFormatError naming the file."""
    try:
        return io.TextIOWrapper(io.BytesIO(raw)).read()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: cannot decode the file as text: {exc}") from None


def _at(path, r, c=None) -> str:
    """Where a data error lies in a file: `path: row r, column c`. r counts
    the file's data rows (nonblank lines after any header) from 0, and c the
    raw row's cells from 0, label and skipped cells included."""
    return f"{path}: row {r}" if c is None else f"{path}: row {r}, column {c}"


def _read_rows(path, delimiter=None, header=False, label_column=None,
               width=None, raw: bytes | None = None):
    """(rows, labels, columns): a file's data rows as lists of stripped cells
    less the label cell, the labels (None without a label column), and each
    remaining cell's raw column. Every row must have `width` cells, by
    default as many as the first. `header` is True when the first row names
    the columns, or the first cell that marks such a row. `raw` is the
    bytes, if already read."""
    text = _decode(_read_input(path) if raw is None else raw, path)
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if delimiter is None:
            cells = line.split(",") if "," in line else line.split()
        else:
            cells = line.split(delimiter)
        # the line is stripped, so without inner whitespace its cells are too
        if len(line.split(None, 1)) > 1:
            cells = [c.strip() for c in cells]
        rows.append(cells)
    if not rows:
        raise DataFormatError(f"{path}: empty file")
    names = rows.pop(0) if header is True or rows[0][0] == header else None
    if not rows:
        raise DataFormatError(f"{path}: no data rows after header")
    idx = label_column  # an index, or a name the header must hold
    if idx is not None and not isinstance(idx, int):
        if names is None or idx not in names:
            raise DataFormatError(f"{path}: label column {idx!r} not found in header")
        idx = names.index(idx)
    if width is None:
        width = len(rows[0])
    for r, row in enumerate(rows):
        if len(row) != width:
            raise DataFormatError(
                f"{_at(path, r)}: ragged row ({len(row)} cells, expected {width})")
    columns = list(range(width))
    if idx is None:
        return rows, None, columns
    if not -width <= idx < width:
        raise DataFormatError(
            f"{path}: label column {idx} out of range for rows of {width} cells")
    if width == 1:
        raise DataFormatError(
            f"{path}: label column {idx} is the only column; no data cells remain")
    idx %= width
    del columns[idx]
    return rows, [row.pop(idx) for row in rows], columns


def _bits(path, rows, columns, allowed: set, what: str) -> np.ndarray:
    """The bits of rows whose every cell is one of the one-character strings
    `allowed`, "0" giving 0 and the others 1; the first other cell,
    row-major, is a DataFormatError `what` at its place in the file."""
    if not set(chain.from_iterable(rows)) <= allowed:
        r, c, cell = next((r, c, cell) for r, row in enumerate(rows)
                          for c, cell in zip(columns, row) if cell not in allowed)
        raise DataFormatError(f"{_at(path, r, c)}: {what} {cell!r}")
    # every cell is exactly one character, so the joined text is the matrix
    text = "".join(chain.from_iterable(rows)).encode("ascii")
    return np.frombuffer(text, dtype=np.uint8).reshape(len(rows), len(columns)) != ord("0")


# Bytes a plain file may hold: printable ASCII other than space, and "\n".
_PLAIN_BYTES = bytes(range(0x21, 0x7F)) + b"\n"


def _plain_bits(raw: bytes, delimiter, label_column):
    """(bits, labels) of a plain binary file, read from its bytes with no
    per-cell string; None when the file is not plain.

    A plain file holds only `_PLAIN_BYTES`, so it decodes the same in any
    ASCII-compatible encoding, and no blank line except after the final
    newline. Its delimiter is one byte other than 0 and 1: the given one,
    or "," when none is given and the first line has one. Every line is
    one-character cells joined by it, plus a label cell first or last when
    `label_column` asks for one. On such a file the general reader gives
    the same bits and labels; the caller runs it on None.
    """
    if not raw or raw.translate(None, _PLAIN_BYTES):
        return None
    lines = raw.split(b"\n")
    if not lines[-1]:
        lines.pop()  # any other empty line fails the length test below
    if delimiter is None:
        delim = b"," if b"," in lines[0] else b""
    else:
        delim = delimiter.encode("utf-8", "surrogatepass")
    if len(delim) != 1 or delim in b"01":
        return None
    width = lines[0].count(delim) + 1
    if label_column is None:
        bodies, labels = lines, None
    else:
        if (not isinstance(label_column, int) or width < 2
                or not -width <= label_column < width):
            return None
        if label_column % width == 0:
            parts = [line.partition(delim) for line in lines]
            labels, bodies = [p[0] for p in parts], [p[2] for p in parts]
        elif label_column % width == width - 1:
            parts = [line.rpartition(delim) for line in lines]
            labels, bodies = [p[2] for p in parts], [p[0] for p in parts]
        else:
            return None
        labels = [label.decode("ascii") for label in labels]
        width -= 1
    # a body of `width` one-byte cells has the delimiter at every odd offset
    size, seps = 2 * width - 1, delim * (width - 1)
    for body in bodies:
        if len(body) != size or body[1::2] != seps:
            return None
    bits = np.frombuffer(b"".join(body[::2] for body in bodies), dtype=np.uint8) - ord("0")
    if (bits > 1).any():
        return None
    return bits.reshape(len(bodies), width), labels


def load_binary_csv(path, delimiter=None, header=False, label_column=None,
                    name=None) -> Dataset:
    """Load a 0/1 delimited file; an optional label column becomes truth_labels.

    A plain file (see `_plain_bits`) is read straight from its bytes; any
    other file goes through the general reader, with the same result.
    """
    raw = _read_input(path)
    plain = None if header else _plain_bits(raw, delimiter, label_column)
    if plain is not None:
        bits, labels = plain
    else:
        rows, labels, columns = _read_rows(path, delimiter, header, label_column, raw=raw)
        bits = _bits(path, rows, columns, {"0", "1"}, "non-binary cell")
    return Dataset(bits, name=name or Path(path).stem, truth_labels=labels)


def load_categorical_csv(path, schema: FeatureSchema, delimiter=None,
                         header=False, label_column=None, name=None) -> Dataset:
    """Load a categorical CSV and encode it per the schema.

    Missing cells (`?`) encode as an all-zero block, so they mismatch every
    concrete level equally under the Hamming distance.
    """
    rows, labels, columns = _read_rows(path, delimiter, header, label_column,
                                       len(schema.features) + (label_column is not None))
    bits, missing = _encode(rows, schema, lambda r, c: _at(path, r, columns[c]))
    return Dataset(bits, name=name or Path(path).stem, truth_labels=labels,
                   missing_cells=missing)


def encode_rows(rows: list[list[str]], schema: FeatureSchema) -> tuple[np.ndarray, int]:
    """Encode rows of categorical cells per the schema, in memory, as
    (bits, number of missing cells); see `load_categorical_csv`."""
    return _encode(rows, schema, lambda r, c: f"row {r}, column {c}")


def _encode(rows, schema: FeatureSchema, where) -> tuple[np.ndarray, int]:
    """`encode_rows`, placing a bad cell's error by `where(r, c)`."""
    feats = schema.features
    nfeat = len(feats)
    if len(rows[0]) != nfeat:
        raise DataFormatError(
            f"rows have {len(rows[0])} cells but schema declares {nfeat} features")
    index = []
    for r, row in enumerate(rows):
        if len(row) != nfeat:
            raise DataFormatError(
                f"row {r}: ragged row ({len(row)} cells, expected {nfeat})")
        index.append([_codeword_row(cell, feat, r, c, where)
                      for c, (cell, feat) in enumerate(zip(row, feats))])
    index = np.array(index, dtype=np.intp)
    bits = np.empty((len(rows), schema.encoded_dim), dtype=np.uint8)
    col = 0
    for c, feat in enumerate(feats):
        # a binary cell's row is its bit; `?` takes row -1, an appended zero row
        words = (np.arange(2)[:, None] if feat.kind == "binary"
                 else codewords(feat.levels, feat.coding))
        bits[:, col:col + feat.width] = np.pad(words, ((0, 1), (0, 0)))[index[:, c]]
        col += feat.width
    return bits, int((index < 0).sum())


def _codeword_row(cell: str, feat: Feature, r: int, c: int, where) -> int:
    """The row of `feat`'s codeword matrix that codes `cell`, placed by
    `where(r, c)`: -1 for a missing `?`, a binary cell's bit, a level less one."""
    if cell == "?":
        return -1
    if feat.kind == "binary":
        if cell not in ("0", "1"):
            raise DataFormatError(
                f"{where(r, c)} ({feat.name}): non-binary cell {cell!r}")
        return int(cell)
    try:
        return feat.vocab.index(cell)
    except ValueError:
        raise DataFormatError(
            f"{where(r, c)} ({feat.name}): unknown level {cell!r}") from None


def categorical_feature(name: str, coding: str, levels_or_vocab) -> Feature:
    """Build a categorical Feature from a level count or a level vocabulary."""
    if isinstance(levels_or_vocab, int):
        return Feature(name, "categorical", levels_or_vocab, coding)
    vocab = tuple(str(v) for v in levels_or_vocab)
    return Feature(name, "categorical", len(vocab), coding, vocab)


def parse_schema_file(path) -> FeatureSchema:
    """Parse the declarative schema format.

    One feature per line:
        <name> binary
        <name> categorical <additive|disjunctive> <levels | v1,v2,...>
    '#' starts a comment.
    """
    feats = []
    text = _decode(_read_input(path), path)
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if len(parts) == 2 and parts[1] == "binary":
                feats.append(Feature(parts[0], "binary"))
            elif len(parts) == 4 and parts[1] == "categorical":
                name, _, coding, spec = parts
                levels = spec.split(",") if "," in spec or not spec.isdigit() else int(spec)
                feats.append(categorical_feature(name, coding, levels))
            else:
                raise ValueError(f"cannot parse schema line {line!r}")
        except ValueError as exc:  # a bad line, or a Feature that rejects it
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    if not feats:
        raise DataFormatError(f"{path}: schema declares no features")
    return FeatureSchema(tuple(feats))


def write_binary_csv(ds: Dataset, path) -> None:
    """One line a row, ended by a line feed alone: its bits as 0/1 cells
    joined by ",", then its truth label, if any, as `str` gives it. These are
    the very cells the readers split, so a file whose labels are printable
    ASCII without spaces reads back on the fast path (`_plain_bits`). A label
    the readers would split otherwise, one holding ",", a line break or outer
    whitespace, is a DataFormatError naming it."""
    lines = [",".join(map(str, row)) for row in ds.bits.tolist()]
    if ds.truth_labels is not None:
        labels = [str(label) for label in ds.truth_labels]
        for r, label in enumerate(labels):
            if "," in label or label != label.strip() or len(label.splitlines()) > 1:
                raise DataFormatError(
                    f"{path}: row {r}: label {label!r} cannot be one cell; it holds "
                    "',', a line break or outer whitespace")
        lines = [f"{line},{label}" for line, label in zip(lines, labels)]
    with open(path, "w", newline="") as fh:
        fh.write("".join(line + "\n" for line in lines))


def dataset_summary(ds: Dataset) -> dict:
    out = {"name": ds.name, "n": ds.n, "d": ds.d,
           "missing_cells": ds.missing_cells}
    if ds.truth_labels is not None:
        counts = Counter(ds.truth_labels)
        classes = sorted(counts, key=str)
        hist = {str(c): counts[c] for c in classes}
        out["num_classes"] = len(classes)
        out["class_histogram"] = hist
        out["class_percent"] = {c: round(100.0 * v / ds.n, 2) for c, v in hist.items()}
    return out


# --- raw UCI adapters -------------------------------------------------------

ZOO_FEATURES = ["hair", "feathers", "eggs", "milk", "airborne", "aquatic",
                "predator", "toothed", "backbone", "breathes", "venomous",
                "fins", "legs", "tail", "domestic", "catsize"]
ZOO_LEGS_VALUES = ["0", "2", "4", "5", "6", "8"]

CAR_VOCABS = {
    "buying": ["vhigh", "high", "med", "low"],
    "maint": ["vhigh", "high", "med", "low"],
    "doors": ["2", "3", "4", "5more"],
    "persons": ["2", "4", "more"],
    "lug_boot": ["small", "med", "big"],
    "safety": ["low", "med", "high"],
}

SOYBEAN_KEEP_CLASSES = 15
_SOYBEAN_CODE = re.compile(r"\?|0|[1-9][0-9]*")


def zoo_schema() -> FeatureSchema:
    return FeatureSchema(tuple(
        categorical_feature(fname, "disjunctive", ZOO_LEGS_VALUES) if fname == "legs"
        else Feature(fname, "binary") for fname in ZOO_FEATURES))


def car_schema() -> FeatureSchema:
    return FeatureSchema(tuple(
        categorical_feature(fname, "disjunctive", vocab)
        for fname, vocab in CAR_VOCABS.items()))


def load_zoo(path) -> Dataset:
    """zoo.data: animal name, 16 features (legs is 6-valued), class 1-7."""
    rows, labels, columns = _read_rows(path, ",", label_column=-1, width=18)
    bits, missing = _encode([row[1:] for row in rows], zoo_schema(),
                            lambda r, c: _at(path, r, columns[c + 1]))
    return Dataset(bits, name="zoo", truth_labels=labels, missing_cells=missing)


def load_digits(path) -> Dataset:
    """mfeat-pix: 2000 rows of 240 grayscale counts, 200 per digit. Each
    pixel must be an integer 0-6, one digit, and binarizes as pixel != 0;
    labels follow the fixed row blocks (digit = row // 200)."""
    rows, _, columns = _read_rows(path, width=240)
    bits = _bits(path, rows, columns, set("0123456"), "bad pixel")
    return Dataset(bits, name="digits",
                   truth_labels=[str(i // 200) for i in range(len(rows))])


def load_spect(path) -> Dataset:
    """SPECT.train/.test concatenation: label first, then 22 binary features."""
    return load_binary_csv(path, delimiter=",", label_column=0, name="spect")


def load_soybean(path) -> Dataset:
    """soybean-large.data: class name first, 35 numeric attributes, '?' missing.

    Keeps the first 15 classes in file order; attribute arities are derived
    from the observed values (codes are 0-based in the raw file). A cell is
    `?` or a code v >= 0 written as str(v), exactly what its attribute's
    encoder accepts; the rows of the dropped classes are checked too.
    """
    rows, labels, columns = _read_rows(path, ",", label_column=0)
    for r, row in enumerate(rows):
        for c, cell in zip(columns, row):
            if not _SOYBEAN_CODE.fullmatch(cell):
                raise DataFormatError(f"{_at(path, r, c)}: bad code {cell!r}")
    keep = set(list(dict.fromkeys(labels))[:SOYBEAN_KEEP_CLASSES])
    rows, labels = zip(*[(row, label) for row, label in zip(rows, labels) if label in keep])
    codes = [[int(code) for code in column if code != "?"] for column in zip(*rows)]
    schema = FeatureSchema(tuple(
        categorical_feature(f"attr{c}", "disjunctive",
                            [str(v) for v in range(max(vals, default=0) + 1)])
        for c, vals in enumerate(codes)))
    # every kept code is one of its attribute's levels, so this cannot fail
    bits, missing = encode_rows(rows, schema)
    return Dataset(bits, name="soybean", truth_labels=labels, missing_cells=missing)


def load_car(path) -> Dataset:
    """car.data: 6 categorical string features, class last."""
    return load_categorical_csv(path, car_schema(), delimiter=",", label_column=-1,
                                name="car")


UCI_LOADERS = {
    "zoo": load_zoo,
    "digits": load_digits,
    "spect": load_spect,
    "soybean": load_soybean,
    "car": load_car,
}


def load_uci(name: str, path) -> Dataset:
    try:
        loader = UCI_LOADERS[name]
    except KeyError:
        raise ValueError(f"unknown dataset {name!r}; know {sorted(UCI_LOADERS)}") from None
    return loader(path)

"""Dataset container, CSV loaders, and the categorical encoding pipeline.

Loaders cover plain binary CSV, schema-driven categorical CSV, and the raw
UCI formats used in the experiments (zoo, digits, spect, soybean, car).
Datasets themselves are never bundled; see scripts/fetch_datasets.py.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .binvec import (
    BinaryVector,
    Feature,
    FeatureSchema,
    bit_matrix,
    encode_categorical,
    pack_bits,
)


class DataFormatError(ValueError):
    """Raised for malformed input files; message carries row/column position."""


@dataclass(eq=False)
class Dataset:
    """Immutable collection of equal-width binary vectors.

    `bits` is an (n, d) 0/1 matrix; `packed` is its uint64 bit-packed view,
    used for fast Hamming work. Both are read-only, and `packed` is always
    packed from `bits`. Datasets compare (and hash) by identity.
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

def _decode(raw: bytes, path) -> str:
    """The text `open` reads from the file's bytes; bytes that do not decode
    are a DataFormatError naming the file."""
    try:
        return io.TextIOWrapper(io.BytesIO(raw)).read()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: cannot decode the file as text: {exc}") from None


def _read_rows(path, delimiter=None, raw: bytes | None = None) -> list[list[str]]:
    """Nonblank lines as lists of stripped cells. `raw` is the file's bytes
    when the caller has already read them."""
    if raw is None:
        raw = Path(path).read_bytes()
    rows = []
    for line in _decode(raw, path).splitlines():
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
    return rows


def _split_label(rows, header, label_column):
    """Resolve the label column (by name or index) and strip it from rows."""
    names = None
    if header:
        names = rows[0]
        rows = rows[1:]
        if not rows:
            raise DataFormatError("no data rows after header")
    idx = None
    if label_column is not None:
        if isinstance(label_column, int):
            idx = label_column
        elif names is not None and label_column in names:
            idx = names.index(label_column)
        else:
            raise DataFormatError(f"label column {label_column!r} not found in header")
    width = len(rows[0])
    for r, row in enumerate(rows):
        if len(row) != width:
            raise DataFormatError(f"row {r}: ragged row ({len(row)} cells, expected {width})")
    labels = None
    if idx is not None:
        if not -width <= idx < width:
            raise DataFormatError(
                f"label column {idx} out of range for rows of {width} cells")
        if width == 1:
            raise DataFormatError(
                f"label column {idx} is the only column; no data cells remain")
        if idx < 0:
            idx += width
        labels = [row[idx] for row in rows]
        rows = [row[:idx] + row[idx + 1:] for row in rows]
    return rows, labels


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
    raw = Path(path).read_bytes()
    plain = None if header else _plain_bits(raw, delimiter, label_column)
    if plain is not None:
        bits, labels = plain
    else:
        rows, labels = _split_label(_read_rows(path, delimiter, raw), header, label_column)
        if not set(chain.from_iterable(rows)) <= {"0", "1"}:
            r, c, cell = next((r, c, cell) for r, row in enumerate(rows)
                              for c, cell in enumerate(row) if cell not in ("0", "1"))
            raise DataFormatError(f"row {r}, column {c}: non-binary cell {cell!r}")
        # every cell is exactly one character, so the joined text is the matrix
        text = "".join(chain.from_iterable(rows)).encode("ascii")
        bits = np.frombuffer(text, dtype=np.uint8) - ord("0")
        bits = bits.reshape(len(rows), len(rows[0]))
    return Dataset(bits, name=name or Path(path).stem, truth_labels=labels)


def load_categorical_csv(path, schema: FeatureSchema, delimiter=None,
                         header=False, label_column=None, name=None) -> Dataset:
    """Load a categorical CSV and encode it per the schema.

    Missing cells (`?`) encode as an all-zero block, so they mismatch every
    concrete level equally under the Hamming distance.
    """
    rows, labels = _split_label(_read_rows(path, delimiter), header, label_column)
    bits, missing = encode_rows(rows, schema)
    return Dataset(bits, name=name or Path(path).stem, truth_labels=labels,
                   missing_cells=missing)


def encode_rows(rows: list[list[str]], schema: FeatureSchema) -> tuple[np.ndarray, int]:
    """Encode rows of categorical cells per the schema, in memory, as
    (bits, number of missing cells); see `load_categorical_csv`."""
    nfeat = len(schema.features)
    if len(rows[0]) != nfeat:
        raise DataFormatError(
            f"rows have {len(rows[0])} cells but schema declares {nfeat} features")
    bits = np.zeros((len(rows), schema.encoded_dim), dtype=np.uint8)
    missing = 0
    for r, row in enumerate(rows):
        if len(row) != nfeat:
            raise DataFormatError(
                f"row {r}: ragged row ({len(row)} cells, expected {nfeat})")
        col = 0
        for c, feat in enumerate(schema.features):
            cell = row[c]
            if cell == "?":
                missing += 1  # all-zero block
            elif feat.kind == "binary":
                if cell not in ("0", "1"):
                    raise DataFormatError(
                        f"row {r}, column {c} ({feat.name}): non-binary cell {cell!r}")
                bits[r, col] = int(cell)
            else:
                level = _resolve_level(cell, feat, r, c)
                block = encode_categorical(level, feat.levels, feat.coding)
                bits[r, col:col + feat.levels] = block.bits
            col += feat.width
    return bits, missing


def _resolve_level(cell: str, feat: Feature, r: int, c: int) -> int:
    if feat.vocab is not None:
        if cell not in feat.vocab:
            raise DataFormatError(
                f"row {r}, column {c} ({feat.name}): unknown level {cell!r}")
        return feat.vocab.index(cell) + 1
    try:
        level = int(cell)
    except ValueError:
        raise DataFormatError(
            f"row {r}, column {c} ({feat.name}): unknown level {cell!r}") from None
    if not 1 <= level <= feat.levels:
        raise DataFormatError(
            f"row {r}, column {c} ({feat.name}): level {level} out of [1, {feat.levels}]")
    return level


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
    text = _decode(Path(path).read_bytes(), path)
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 2 and parts[1] == "binary":
            feats.append(Feature(parts[0], "binary"))
        elif len(parts) == 4 and parts[1] == "categorical":
            name, _, coding, spec = parts
            if "," in spec or not spec.isdigit():
                feats.append(categorical_feature(name, coding, spec.split(",")))
            else:
                feats.append(categorical_feature(name, coding, int(spec)))
        else:
            raise DataFormatError(f"{path}:{lineno}: cannot parse schema line {line!r}")
    if not feats:
        raise DataFormatError(f"{path}: schema declares no features")
    return FeatureSchema(tuple(feats))


def write_binary_csv(ds: Dataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for i in range(ds.n):
            row = [str(b) for b in ds.bits[i]]
            if ds.truth_labels is not None:
                row.append(str(ds.truth_labels[i]))
            writer.writerow(row)


def dataset_summary(ds: Dataset) -> dict:
    out = {"name": ds.name, "n": ds.n, "d": ds.d,
           "missing_cells": ds.missing_cells}
    if ds.truth_labels is not None:
        classes = sorted(set(ds.truth_labels), key=str)
        hist = {str(c): ds.truth_labels.count(c) for c in classes}
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


def zoo_schema() -> FeatureSchema:
    feats = []
    for fname in ZOO_FEATURES:
        if fname == "legs":
            feats.append(categorical_feature("legs", "disjunctive", ZOO_LEGS_VALUES))
        else:
            feats.append(Feature(fname, "binary"))
    return FeatureSchema(tuple(feats))


def car_schema() -> FeatureSchema:
    return FeatureSchema(tuple(
        categorical_feature(fname, "disjunctive", vocab)
        for fname, vocab in CAR_VOCABS.items()))


def load_zoo(path) -> Dataset:
    """zoo.data: animal name, 16 features (legs is 6-valued), class 1-7."""
    rows = _read_rows(path, ",")
    # drop the animal name and the class
    bits, missing = encode_rows([row[1:-1] for row in rows], zoo_schema())
    return Dataset(bits, name="zoo", truth_labels=[row[-1] for row in rows],
                   missing_cells=missing)


def load_digits(path) -> Dataset:
    """mfeat-pix: 2000 rows of 240 grayscale counts (0-6), 200 per digit.

    Pixels binarize as value >= 1; labels follow the fixed row blocks
    (digit = row // 200).
    """
    try:
        raw = np.loadtxt(path)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    if raw.ndim != 2 or raw.shape[1] != 240:
        raise DataFormatError(f"{path}: expected 240 columns, got {raw.shape}")
    bits = (raw >= 1).astype(np.uint8)
    labels = [str(i // 200) for i in range(raw.shape[0])]
    return Dataset(bits, name="digits", truth_labels=labels)


def load_spect(path) -> Dataset:
    """SPECT.train/.test concatenation: label first, then 22 binary features."""
    return load_binary_csv(path, delimiter=",", label_column=0, name="spect")


def load_soybean(path) -> Dataset:
    """soybean-large.data: class name first, 35 numeric attributes, '?' missing.

    Keeps the first 15 classes in file order; attribute arities are derived
    from the observed values (codes are 0-based in the raw file).
    """
    rows = _read_rows(path, ",")
    width = len(rows[0])
    for r, row in enumerate(rows):
        if len(row) != width:
            raise DataFormatError(
                f"row {r}: ragged row ({len(row)} cells, expected {width})")
        for c, cell in enumerate(row[1:], 1):
            if cell != "?" and not cell.isdecimal():
                raise DataFormatError(f"row {r}, column {c}: bad code {cell!r}")
    classes = list(dict.fromkeys(row[0] for row in rows))
    keep = set(classes[:SOYBEAN_KEEP_CLASSES])
    rows = [row for row in rows if row[0] in keep]
    codes = [[int(row[c]) for row in rows if row[c] != "?"]
             for c in range(1, width)]
    schema = FeatureSchema(tuple(
        categorical_feature(f"attr{c}", "disjunctive",
                            [str(v) for v in range(max(vals, default=0) + 1)])
        for c, vals in enumerate(codes)))
    bits, missing = encode_rows([row[1:] for row in rows], schema)
    return Dataset(bits, name="soybean", truth_labels=[row[0] for row in rows],
                   missing_cells=missing)


def load_car(path) -> Dataset:
    """car.data: 6 categorical string features, class last."""
    rows = _read_rows(path, ",")
    bits, missing = encode_rows([row[:-1] for row in rows], car_schema())
    return Dataset(bits, name="car", truth_labels=[row[-1] for row in rows],
                   missing_cells=missing)


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

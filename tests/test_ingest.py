from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from binnnms import ingest
from binnnms.binvec import (
    CODINGS,
    BinaryVector,
    Feature,
    FeatureSchema,
    encode_categorical,
    pack_bits,
)
from binnnms.ingest import (
    CAR_VOCABS,
    DataFormatError,
    Dataset,
    car_schema,
    categorical_feature,
    dataset_summary,
    encode_rows,
    load_binary_csv,
    load_car,
    load_categorical_csv,
    load_digits,
    load_soybean,
    load_uci,
    load_zoo,
    parse_schema_file,
    write_binary_csv,
    zoo_schema,
)
from conftest import perfbench_workloads
from oracles import binary_csv_ref, encode_rows_ref


class TestDataset:
    def test_basic_shape(self):
        ds = Dataset(np.array([[0, 1], [1, 0]]))
        assert (ds.n, ds.d) == (2, 2)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[0, 2]]))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)], ids=["no-rows", "no-columns"])
    def test_rejects_empty(self, shape):
        with pytest.raises(ValueError, match="nonempty"):
            Dataset(np.zeros(shape, dtype=np.uint8))

    def test_label_length_checked(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[0, 1]]), truth_labels=["a", "b"])

    def test_bits_immutable(self):
        ds = Dataset(np.array([[0, 1]]))
        with pytest.raises(ValueError):
            ds.bits[0, 0] = 1

    def test_packed_immutable(self):
        ds = Dataset(np.array([[0, 1]]))
        with pytest.raises(ValueError):
            ds.packed[0, 0] = 0

    def test_packed_words_always_packed_from_bits(self):
        # words that disagree with the bits sent every k1 = 1 ascent to 0000
        bits = np.array([[0, 0, 0, 0], [1, 1, 1, 1], [1, 1, 1, 0]])
        with pytest.raises(TypeError):
            Dataset(bits, _packed=np.zeros((3, 1), np.uint64))
        ds = Dataset(bits)
        assert (ds.packed == pack_bits(bits)).all()

    def test_equality_is_identity(self):
        # comparing the bits arrays field by field raised instead
        x = np.array([[0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 1, 1]])
        a, b = Dataset(x), Dataset(x)
        assert (a == b) is False
        assert (a == a) is True


class TestBinaryCsv:
    def test_small_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,1\n1,0\n")
        ds = load_binary_csv(f)
        assert (ds.n, ds.d) == (2, 2)
        assert ds.truth_labels is None

    def test_label_column_by_name(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x1,x2,class\n0,1,a\n1,0,b\n")
        ds = load_binary_csv(f, header=True, label_column="class")
        assert ds.d == 2
        assert ds.truth_labels == ["a", "b"]

    def test_label_column_by_index(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("a,0,1\nb,1,0\n")
        ds = load_binary_csv(f, label_column=0)
        assert ds.d == 2
        assert ds.truth_labels == ["a", "b"]

    def test_non_binary_cell_reports_position(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,1\n0,2\n")
        with pytest.raises(DataFormatError, match="row 1, column 1"):
            load_binary_csv(f)

    @pytest.mark.parametrize("text, where, cell", [
        # "01" and "" together fill two cells' worth of characters
        ("0,1,0\n01,,1\n", "row 1, column 0", "'01'"),
        ("1,0,1\n1,,01\n", "row 1, column 1", "''"),
        ("0,1\n1,0\n1, x\n", "row 2, column 1", "'x'"),
    ])
    def test_first_bad_cell_reported(self, tmp_path, text, where, cell):
        f = tmp_path / "d.csv"
        f.write_text(text)
        with pytest.raises(DataFormatError, match=f"{where}: non-binary cell {cell}"):
            load_binary_csv(f)

    def test_whitespace_delimited_cells(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("0  1\t1 a\n1 0 0\tb\n\n 1 1 1 a \n")
        ds = load_binary_csv(f, label_column=-1)
        assert ds.bits.tolist() == [[0, 1, 1], [1, 0, 0], [1, 1, 1]]
        assert ds.truth_labels == ["a", "b", "a"]

    @pytest.mark.parametrize("text,delimiter", [
        (" 0 , 1,1\n1 ,0 , 0 \n", None),
        ("0\t,1,\t1\n1,\t0\t,0\n", None),
        ("0,1,1\n1 , 0,0\n", None),
        ("0 1\t1\n 1  0 0\n", None),
        ("0 ; 1;1\n1;0 ;\t0\n", ";"),
    ])
    def test_padded_cells_are_stripped(self, tmp_path, text, delimiter):
        f = tmp_path / "d.txt"
        f.write_text(text)
        ds = load_binary_csv(f, delimiter=delimiter)
        assert ds.bits.tolist() == [[0, 1, 1], [1, 0, 0]]

    @pytest.mark.parametrize("text, kwargs, where", [
        ("a,0,1\nb,1,x\n", {"label_column": 0}, "row 1, column 2"),
        ("0,a,1\n1,b,x\n", {"label_column": 1}, "row 1, column 2"),
        ("0,x,a\n", {"label_column": -1}, "row 0, column 1"),
        ("c,x1\n\na,1\n\nb, 2\n", {"header": True, "label_column": "c"}, "row 1, column 1"),
    ], ids=["label-first", "label-inside", "label-last", "header-and-blank-lines"])
    def test_bad_cell_placed_in_the_file_numbering(self, tmp_path, text, kwargs, where):
        # data rows count from 0 after the header; columns count the label
        f = tmp_path / "d.csv"
        f.write_text(text)
        with pytest.raises(DataFormatError) as exc:
            load_binary_csv(f, **kwargs)
        assert str(exc.value).startswith(f"{f}: {where}: non-binary cell")

    def test_ragged_rows(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("0,1\n0\n")
        with pytest.raises(DataFormatError, match="ragged"):
            load_binary_csv(f)

    def test_whitespace_delimiter_autodetect(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("0 1 1\n1 0 0\n")
        assert load_binary_csv(f).d == 3

    def test_round_trip(self, tmp_path):
        src = tmp_path / "a.csv"
        src.write_text("0,1,1,x\n1,0,0,y\n")
        ds = load_binary_csv(src, label_column=-1)
        out = tmp_path / "b.csv"
        write_binary_csv(ds, out)
        again = load_binary_csv(out, label_column=-1)
        assert np.array_equal(ds.bits, again.bits)
        assert ds.truth_labels == again.truth_labels

    def test_writer_bytes(self, tmp_path):
        # "\n" line ends and no quoting, as the readers split a row; labels
        # go through str
        out = tmp_path / "b.csv"
        bits = np.array([[0, 1, 1], [1, 0, 0]])
        write_binary_csv(Dataset(bits, truth_labels=['"x y"', 3]), out)
        assert out.read_bytes() == b'0,1,1,"x y"\n1,0,0,3\n'
        write_binary_csv(Dataset(bits), out)
        assert out.read_bytes() == b"0,1,1\n1,0,0\n"

    @pytest.mark.parametrize("label", ["x,y", "a\nb", "a\rb", "a\u2028b", " a", "a\t"])
    def test_label_the_readers_would_split_is_data_error(self, tmp_path, label):
        # a quoted "x,y" was read back as two cells: a ragged row
        out = tmp_path / "b.csv"
        with pytest.raises(DataFormatError) as exc:
            write_binary_csv(Dataset(np.eye(2), truth_labels=["a", label]), out)
        assert str(exc.value).startswith(f"{out}: row 1: label {label!r} cannot be one cell")
        assert not out.exists()

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(labels=st.lists(st.text(st.characters(codec="utf-8"), max_size=3),
                           min_size=1, max_size=4))
    def test_written_labels_read_back(self, tmp_path, labels):
        out = tmp_path / "b.csv"
        ds = Dataset(np.ones((len(labels), 2)), truth_labels=labels)
        try:
            write_binary_csv(ds, out)
        except DataFormatError:
            assert any("," in lab or lab != lab.strip() or len(lab.splitlines()) > 1
                       for lab in labels)
            return
        again = load_binary_csv(out, label_column=-1)
        assert again.truth_labels == labels
        assert again.bits.tolist() == ds.bits.tolist()


@st.composite
def csv_files(draw):
    """(text, load_binary_csv keyword arguments, plain): a small binary CSV
    built from plain pieces, with near-plain defects mixed in unless
    `plain`, in which case the file must take the byte-level reader."""
    plain = draw(st.booleans())
    defect = (lambda: False) if plain else (lambda: draw(st.integers(0, 5)) == 0)
    n, width = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    delimiter = draw(st.sampled_from([None, ",", ";"]))
    sep = delimiter or ","
    where = draw(st.sampled_from(
        ["none", "first", "last", "neg"] if plain
        else ["none", "first", "last", "neg", "interior", "name"]))
    if plain and delimiter is None and where == "none":
        width = max(width, 2)  # "," is taken as the delimiter only when present
    ascii_label = st.text("abcxyz019_-.", min_size=1, max_size=3)
    label = (ascii_label if plain else
             st.one_of(ascii_label, st.sampled_from(["", "é", "ü x", "c 1", "x\ty"])))
    rows = []
    for _ in range(n):
        cells = [draw(st.sampled_from("01")) for _ in range(width)]
        if defect():
            c = draw(st.integers(0, width - 1))
            cells[c] = draw(st.sampled_from(["01", "2", "", " 0", "1 ", "\t1", "x"]))
        if defect() and len(cells) > 1:
            del cells[draw(st.integers(0, len(cells) - 1))]  # ragged row
        rows.append(cells)
    kwargs = {"delimiter": delimiter}
    header = None
    if where in ("first", "name"):
        pos = 0
    elif where == "interior" and width >= 2:
        pos = 1
    else:
        pos = None
    for cells in rows:
        if pos is None and where != "none":
            cells.append(draw(label))
        elif pos is not None:
            cells.insert(pos, draw(label))
    if where == "first":
        kwargs["label_column"] = 0
    elif where in ("last", "interior"):
        kwargs["label_column"] = (pos if pos is not None else width)
    elif where == "neg":
        kwargs["label_column"] = -1
    elif where == "name":
        kwargs.update(header=True, label_column="class")
        header = ["class"] + [f"x{j}" for j in range(width)]
    lines = [sep.join(cells) for cells in ([header] if header else []) + rows]
    newline = "\r\n" if defect() else "\n"
    if defect():
        lines = [line + draw(st.sampled_from([" ", "\t", " \t"])) for line in lines]
    if defect():
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " "])))
    text = newline.join(lines) + (newline if plain or draw(st.booleans()) else "")
    return text, kwargs, plain


def _outcome(load, path, kwargs):
    try:
        return load(path, **kwargs)
    except DataFormatError as exc:
        return f"DataFormatError: {exc}"


class TestPlainReader:
    @given(csv_files())
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_general_reader(self, tmp_path, case):
        text, kwargs, plain = case
        f = tmp_path / "d.csv"
        f.write_bytes(text.encode("utf-8"))
        want = _outcome(binary_csv_ref, f, kwargs)
        got = _outcome(load_binary_csv, f, kwargs)
        if plain:
            assert ingest._plain_bits(f.read_bytes(), kwargs["delimiter"],
                                      kwargs.get("label_column")) is not None
        if isinstance(want, str):
            assert got == want
        elif want[0].shape[1] == 0:  # the label was the only column
            assert got.startswith("DataFormatError") and "no data cells" in got
        else:
            bits, labels, name = want
            assert isinstance(got, Dataset), got
            assert got.bits.tolist() == bits.tolist()
            assert got.truth_labels == labels
            assert got.name == name

    def test_benchmark_csv_is_plain(self, tmp_path):
        workloads = perfbench_workloads()
        f = tmp_path / "planted.csv"
        workloads.write_planted_csv(f, workloads.Shape("t", 40, 64, 3, 0.2), 0)
        plain = ingest._plain_bits(f.read_bytes(), None, -1)
        assert plain is not None
        bits, labels, _ = binary_csv_ref(f, label_column=-1)
        assert plain[0].tolist() == bits.tolist() and plain[1] == labels

    def test_spect_style_csv_is_plain(self, tmp_path):
        f = tmp_path / "SPECT.csv"
        f.write_text("1,0,1,1\n0,1,1,0\n1,0,0,0\n")
        plain = ingest._plain_bits(f.read_bytes(), ",", 0)
        assert plain is not None
        assert plain[0].tolist() == [[0, 1, 1], [1, 1, 0], [0, 0, 0]]
        assert plain[1] == ["1", "0", "1"]
        assert load_binary_csv(f, delimiter=",", label_column=0).truth_labels == ["1", "0", "1"]

    @pytest.mark.parametrize("text, kwargs", [
        ("010\n111\n", {"delimiter": "1"}), ("101\n000\n", {"delimiter": "0"}),
        ("1\n0\n", {"delimiter": " "}), ("1\n0\n", {"delimiter": "\t"}),
        ("1é0\n0é0\n", {"delimiter": "é"}), ("1;;0\n0;;0\n", {"delimiter": ";;"}),
        ("1,0\n\n0,0\n", {}), ("\n1,0\n", {}), ("1,0\n0\n", {}), ("0\n1\n", {}),
        ("", {"delimiter": ","}), ("\n", {"delimiter": ","}),
        ("0,1\n011\n", {}), ("0,1,a\n011,b\n", {"label_column": -1}),
        ("0,1,0\n1,0,0\n", {"label_column": 1}), ("0,1,0\n1,0,0\n", {"label_column": -2}),
        ("0,1,1\n1,0,0\n", {"label_column": -3}), ("0,1\n1,0\n", {"label_column": True}),
        ("0,1\n1,0\n", {"label_column": "x"}),
    ])
    def test_edge_cases_match_general_reader(self, tmp_path, text, kwargs):
        f = tmp_path / "d.csv"
        f.write_text(text)
        want = _outcome(binary_csv_ref, f, kwargs)
        got = _outcome(load_binary_csv, f, kwargs)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.bits.tolist() == want[0].tolist()
            assert got.truth_labels == want[1]

    @pytest.mark.parametrize("text, kwargs", [
        ("a\nb\n", {"label_column": 0}),  # plain bytes
        ("a\r\nb\r\n", {"label_column": -1}),  # CRLF: the general reader
        ("class\na\nb\n", {"header": True, "label_column": "class"}),
    ])
    def test_label_as_only_column_is_data_error(self, tmp_path, text, kwargs):
        f = tmp_path / "d.csv"
        f.write_text(text, newline="")
        with pytest.raises(DataFormatError, match="no data cells"):
            load_binary_csv(f, **kwargs)

    def test_non_utf8_file_is_data_error(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_bytes(b"0,1,a\n1,0,\xff\n")
        with pytest.raises(DataFormatError, match="d.csv: cannot decode"):
            load_binary_csv(f, label_column=-1)
        with pytest.raises(DataFormatError, match="d.csv: cannot decode"):
            load_categorical_csv(f, zoo_schema())


class TestCategoricalCsv:
    def test_encoding_widths(self, tmp_path):
        schema = FeatureSchema((Feature("b1", "binary"),
                                categorical_feature("c", "disjunctive", 3)))
        f = tmp_path / "c.csv"
        f.write_text("1,2\n0,3\n")
        ds = load_categorical_csv(f, schema)
        assert ds.d == schema.encoded_dim == 4
        assert list(ds.bits[0]) == [1, 0, 1, 0]
        assert list(ds.bits[1]) == [0, 0, 0, 1]

    def test_additive_coding(self, tmp_path):
        schema = FeatureSchema((categorical_feature("c", "additive", 3),))
        f = tmp_path / "c.csv"
        f.write_text("2\n")
        assert list(load_categorical_csv(f, schema).bits[0]) == [1, 1, 0]

    def test_vocab_feature(self, tmp_path):
        schema = FeatureSchema((categorical_feature(
            "size", "disjunctive", ["small", "med", "big"]),))
        f = tmp_path / "c.csv"
        f.write_text("med\nbig\n")
        ds = load_categorical_csv(f, schema)
        assert list(ds.bits[0]) == [0, 1, 0]
        assert list(ds.bits[1]) == [0, 0, 1]

    def test_unknown_level_reports_position(self, tmp_path):
        schema = FeatureSchema((categorical_feature("c", "disjunctive", 3),))
        f = tmp_path / "c.csv"
        f.write_text("1\n7\n")
        with pytest.raises(DataFormatError, match="row 1, column 0"):
            load_categorical_csv(f, schema)

    def test_bad_cell_placed_in_the_file_numbering(self, tmp_path):
        schema = FeatureSchema((categorical_feature("c", "disjunctive", 3),))
        f = tmp_path / "c.csv"
        f.write_text("a,1\nb,7\n")
        with pytest.raises(DataFormatError) as exc:
            load_categorical_csv(f, schema, label_column=0)
        assert str(exc.value) == f"{f}: row 1, column 1 (c): unknown level '7'"

    @pytest.mark.parametrize("levels, cell", [(3, "01"), (3, "+2"), (3, " 2"), (10, "1_0")])
    def test_level_count_cell_is_exactly_str_level(self, levels, cell):
        # `int(cell)` took each of these, 1_0 as level 10
        schema = FeatureSchema((categorical_feature("c", "disjunctive", levels),))
        with pytest.raises(DataFormatError) as exc:
            encode_rows([["1"], [cell]], schema)
        assert str(exc.value) == f"row 1, column 0 (c): unknown level {cell!r}"

    def test_width_against_the_schema_names_file_and_row(self, tmp_path):
        # every row had 3 cells: "rows have 3 cells but schema declares 2 features"
        schema = FeatureSchema((Feature("a", "binary"), Feature("b", "binary")))
        f = tmp_path / "c.csv"
        f.write_text("0,1,1\n1,0,0\n")
        with pytest.raises(DataFormatError) as exc:
            load_categorical_csv(f, schema)
        assert str(exc.value) == f"{f}: row 0: ragged row (3 cells, expected 2)"
        ds = load_categorical_csv(f, schema, label_column=-1)
        assert ds.bits.tolist() == [[0, 1], [1, 0]] and ds.truth_labels == ["1", "0"]

    def test_missing_value_all_zero_block(self, tmp_path):
        schema = FeatureSchema((categorical_feature("c", "disjunctive", 3),
                                Feature("b", "binary")))
        f = tmp_path / "c.csv"
        f.write_text("?,1\n")
        ds = load_categorical_csv(f, schema)
        assert list(ds.bits[0]) == [0, 0, 0, 1]
        assert ds.missing_cells == 1

    def test_empty_file(self, tmp_path):
        f = tmp_path / "c.csv"
        f.write_text("")
        with pytest.raises(DataFormatError):
            load_categorical_csv(f, zoo_schema())


class TestEncodeRows:
    @pytest.mark.parametrize("loader, line", [
        (load_zoo, "aardvark,1,0,0,1,0,0,1,1,1,1,0,0,4,0,0,1,1"),
        (load_car, "vhigh,vhigh,2,2,small,low,unacc"),
    ])
    def test_uci_load_writes_nothing(self, tmp_path, monkeypatch, loader, line):
        # the listing is taken as the Dataset is built, while a load that
        # wrote a temporary file beside the data would still hold it
        raw = tmp_path / "raw.data"
        raw.write_text(line + "\n")
        before = sorted(tmp_path.iterdir())
        seen = []
        real = ingest.Dataset

        def spy(*args, **kw):
            seen.append(sorted(tmp_path.iterdir()))
            return real(*args, **kw)

        monkeypatch.setattr(ingest, "Dataset", spy)
        ds = loader(raw)
        assert seen and all(listing == before for listing in seen)
        assert sorted(tmp_path.iterdir()) == before
        assert ds.n == 1 and ds.truth_labels == [line.split(",")[-1]]

    def test_encode_rows_matches_file_load(self, tmp_path):
        schema = zoo_schema()
        rows = [["1"] * 12 + ["4"] + ["0"] * 3, ["0"] * 12 + ["?"] + ["1"] * 3]
        f = tmp_path / "z.csv"
        f.write_text("\n".join(",".join(r) for r in rows) + "\n")
        bits, missing = encode_rows(rows, schema)
        ds = load_categorical_csv(f, schema)
        assert bits.tolist() == ds.bits.tolist() and missing == ds.missing_cells == 1

    def test_encode_rows_ragged(self):
        rows = [["1"] * 12 + ["4"] + ["0"] * 3, ["1"] * 3]
        with pytest.raises(DataFormatError, match="row 1"):
            encode_rows(rows, zoo_schema())


# cells no feature below names: a leading zero, a sign, out-of-range and
# negative levels, a digit separator, an unknown word, an empty cell
ODD_CELLS = ["01", "+2", "0", "9", "-1", "1_0", "zz", ""]


@st.composite
def coded_rows(draw):
    """(rows, schema): binary, vocabulary and level-count features in both
    codings, and rows whose cells are mostly the feature's own names, with
    `?`, odd cells and now and then a ragged row."""
    feats, pools = [], []
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["binary", "levels", "vocab"]))
        coding = draw(st.sampled_from(CODINGS))
        if kind == "binary":
            feats.append(Feature(f"f{i}", "binary"))
            names = ["0", "1"]
        elif kind == "levels":
            levels = draw(st.integers(1, 4))
            feats.append(categorical_feature(f"f{i}", coding, levels))
            names = [str(level) for level in range(1, levels + 1)]
        else:
            names = draw(st.lists(st.sampled_from(["a", "b", "c", "2", "10"]),
                                  min_size=1, max_size=4, unique=True))
            feats.append(categorical_feature(f"f{i}", coding, names))
        pools.append(names * 4 + ["?"] + ODD_CELLS)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        row = [draw(st.sampled_from(pool)) for pool in pools]
        ragged = draw(st.sampled_from([0] * 10 + [-1, 1]))
        rows.append(row[:-1] if ragged < 0 else row + ["1"] * ragged)
    return rows, FeatureSchema(tuple(feats))


class TestCodewordEncoding:
    @given(coded_rows())
    @settings(max_examples=400, deadline=None)
    def test_matches_per_cell_reference(self, case):
        rows, schema = case
        try:
            want_bits, want_missing = encode_rows_ref(rows, schema)
        except DataFormatError as want:
            with pytest.raises(DataFormatError) as got:
                encode_rows(rows, schema)
            assert str(got.value) == str(want)
            return
        bits, missing = encode_rows(rows, schema)
        assert bits.dtype == np.uint8
        assert bits.shape == (len(rows), schema.encoded_dim)
        assert bits.tolist() == want_bits and missing == want_missing

    def test_no_features_give_an_empty_row(self):
        bits, missing = encode_rows([[], [], []], FeatureSchema(()))
        assert bits.shape == (3, 0) and bits.dtype == np.uint8 and missing == 0

    def test_categorical_load_builds_no_binary_vector(self, tmp_path, monkeypatch):
        # the car factorial, one cell missing: each cell built a vector once
        rows = [list(row) for row in product(*CAR_VOCABS.values())]
        rows[5][2] = "?"
        f = tmp_path / "car.csv"
        f.write_text("".join(",".join(row) + ",c\n" for row in rows))
        calls = []
        real = BinaryVector.__init__

        def count(self, bits):
            calls.append(1)
            real(self, bits)

        monkeypatch.setattr(BinaryVector, "__init__", count)
        ds = load_categorical_csv(f, car_schema(), label_column=-1)
        assert calls == []
        assert (ds.n, ds.d, ds.missing_cells) == (1728, 21, 1)
        encode_categorical(1, 2, "additive")
        assert calls == [1]  # the count sees a vector when one is built


class TestSoybean:
    def test_bits_labels_and_missing(self, tmp_path):
        # arities 2, 3 and 1 from the observed 0-based codes; '?' is all-zero
        f = tmp_path / "soy.data"
        f.write_text("d1,0,2,?\nd2,1,?,0\nd1,?,0,0\n")
        ds = load_soybean(f)
        assert ds.bits.tolist() == [[1, 0, 0, 0, 1, 0],
                                    [0, 1, 0, 0, 0, 1],
                                    [0, 0, 1, 0, 0, 1]]
        assert ds.truth_labels == ["d1", "d2", "d1"]
        assert ds.missing_cells == 3

    @pytest.mark.parametrize("bad", ["01", "00", "+1", "-1", "1.0", "x", "", "٣"])
    def test_code_outside_the_encoder_rule_is_data_error(self, tmp_path, bad):
        # `01` passed an isdecimal check, then failed at another column number
        f = tmp_path / "soy.data"
        f.write_bytes(f"d1,0,?\nd2,1,{bad}\n".encode())
        with pytest.raises(DataFormatError) as exc:
            load_soybean(f)
        assert str(exc.value) == f"{f}: row 1, column 2: bad code {bad!r}"

    def test_keeps_first_15_classes(self, tmp_path):
        # the 16th and 17th classes go, and so does the code 7 only they use
        f = tmp_path / "soy.data"
        f.write_text("".join(f"c{i},{i % 3}\n" for i in range(17)) + "c16,7\n")
        ds = load_soybean(f)
        assert ds.truth_labels == [f"c{i}" for i in range(15)]
        assert ds.bits.tolist() == [[i % 3 == j for j in range(3)] for i in range(15)]


class TestSchemaFile:
    def test_parse(self, tmp_path):
        f = tmp_path / "s.schema"
        f.write_text(
            "# comment\n"
            "hair binary\n"
            "legs categorical disjunctive 0,2,4,5,6,8\n"
            "temp categorical additive 3\n")
        schema = parse_schema_file(f)
        assert [ft.name for ft in schema.features] == ["hair", "legs", "temp"]
        assert schema.encoded_dim == 1 + 6 + 3
        assert schema.features[1].vocab == ("0", "2", "4", "5", "6", "8")
        # a level count names its levels "1" to str(levels), exactly
        assert schema.features[2].vocab == ("1", "2", "3")

    def test_bad_line(self, tmp_path):
        f = tmp_path / "s.schema"
        f.write_text("hair wat\n")
        with pytest.raises(DataFormatError):
            parse_schema_file(f)

    @pytest.mark.parametrize("line, message", [
        ("x categorical disjunctive 0", "categorical feature needs levels >= 1"),
        ("x categorical foo a,b", "unknown coding 'foo'"),
        ("x categorical additive a,a,b", "vocab repeats a level: a,a,b"),
    ], ids=["no-levels", "unknown-coding", "repeated-level"])
    def test_rejected_feature_at_path_line(self, tmp_path, line, message):
        # the first two raised from Feature with no file or line
        f = tmp_path / "s.schema"
        f.write_text(f"hair binary\n{line}\n")
        with pytest.raises(DataFormatError) as exc:
            parse_schema_file(f)
        assert str(exc.value) == f"{f}:2: {message}"

    def test_repeated_vocab_level_rejected(self):
        # `a,a,b` left a column that no cell could set
        with pytest.raises(ValueError, match="vocab repeats a level: a,a,b"):
            categorical_feature("x", "disjunctive", ["a", "a", "b"])
        with pytest.raises(ValueError, match="vocab repeats"):
            Feature("x", "categorical", 2, "additive", ("1", "1"))

    def test_non_utf8_is_data_error(self, tmp_path):
        f = tmp_path / "s.schema"
        f.write_bytes(b"hair binary\n\xff binary\n")
        with pytest.raises(DataFormatError, match="s.schema: cannot decode"):
            parse_schema_file(f)

    def test_zoo_schema_width(self):
        # 15 binary features + 6-level legs block = 21 encoded columns
        assert zoo_schema().encoded_dim == 21

    def test_shipped_schemas_parse(self):
        from pathlib import Path

        schemas = Path(__file__).resolve().parent.parent / "data" / "schemas"
        assert parse_schema_file(schemas / "zoo.schema") == zoo_schema()
        assert parse_schema_file(schemas / "car.schema") == car_schema()


class TestDigits:
    def test_pixels_binarize_at_nonzero(self, tmp_path):
        # one line: np.loadtxt gave a 1-d array and "expected 240 columns"
        f = tmp_path / "mfeat-pix"
        f.write_text("  " + "  ".join("0123456" * 34 + "01") + "\n")
        ds = load_digits(f)
        assert (ds.n, ds.d, ds.truth_labels) == (1, 240, ["0"])
        assert ds.bits[0].tolist() == ([0] + [1] * 6) * 34 + [0, 1]

    @pytest.mark.parametrize("bad", ["99", "-1", "7", "nan", "1.5", "x", "", "01", "٣"])
    def test_pixel_outside_0_to_6_is_data_error(self, tmp_path, bad):
        # row 1 is comma-delimited, so that an empty cell stays a cell
        cells = ["0"] * 240
        cells[7] = bad
        f = tmp_path / "mfeat-pix"
        f.write_text(" ".join(["1"] * 240) + "\n" + ",".join(cells) + "\n")
        with pytest.raises(DataFormatError) as exc:
            load_digits(f)
        assert str(exc.value) == f"{f}: row 1, column 7: bad pixel {bad!r}"

    def test_non_numeric_cell(self, tmp_path):
        f = tmp_path / "mfeat-pix"
        f.write_text(" ".join(["0"] * 239 + ["x"]) + "\n")
        with pytest.raises(DataFormatError):
            load_digits(f)

    def test_wrong_width(self, tmp_path):
        f = tmp_path / "mfeat-pix"
        f.write_text("0 1 2\n")
        with pytest.raises(DataFormatError) as exc:
            load_digits(f)
        assert str(exc.value) == f"{f}: row 0: ragged row (3 cells, expected 240)"


class TestSummary:
    def test_with_labels(self):
        ds = Dataset(np.array([[0], [1], [1], [0]]),
                     truth_labels=["a", "a", "a", "b"], name="toy")
        s = dataset_summary(ds)
        assert s["n"] == 4 and s["d"] == 1
        assert s["num_classes"] == 2
        assert s["class_histogram"] == {"a": 3, "b": 1}
        assert s["class_percent"] == {"a": 75.0, "b": 25.0}

    def test_without_labels(self):
        s = dataset_summary(Dataset(np.array([[0, 1]])))
        assert "num_classes" not in s


def test_load_uci_unknown_name(tmp_path):
    with pytest.raises(ValueError, match="unknown dataset 'nope'"):
        load_uci("nope", tmp_path / "nope.data")

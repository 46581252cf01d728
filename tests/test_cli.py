import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from binnnms.bga import BgaConfig, ascend_bits
from binnnms.binvec import BinaryVector
from binnnms.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    _trajectory_errors,
    _write_labels,
    _write_prototypes,
    main,
)
from binnnms.ingest import Dataset
from conftest import trajectories
from oracles import majority_ref


@pytest.fixture
def toy(tmp_path):
    # the 4-point set whose global majority is 111
    f = tmp_path / "toy.csv"
    f.write_text("1,1,1\n1,1,0\n1,0,1\n0,1,1\n")
    return f


@pytest.fixture
def two_blobs(tmp_path):
    # two tight groups 8 apart, with truth labels in the last column
    rng = np.random.default_rng(0)
    rows = []
    for label, base in (("a", np.zeros(10, int)), ("b", np.ones(10, int))):
        for _ in range(12):
            row = base.copy()
            flip = rng.choice(10, size=1)
            row[flip] ^= 1
            rows.append(",".join(map(str, row)) + f",{label}")
    f = tmp_path / "blobs.csv"
    f.write_text("\n".join(rows) + "\n")
    return f


class TestCluster:
    def test_toy_single_cluster(self, toy, tmp_path):
        out = tmp_path / "out"
        rc = main(["cluster", "--data", str(toy), "--k1", "4", "--k2", "1",
                   "--out-dir", str(out)])
        assert rc == EXIT_OK
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["num_clusters"] == 1
        assert metrics["single_cluster"] is True
        assert (out / "prototypes.txt").read_text().strip() == "1 1 1"
        labels = (out / "labels.csv").read_text().splitlines()
        assert labels[0] == "index,label"
        assert [l.split(",")[1] for l in labels[1:]] == ["0"] * 4

    def test_recovers_two_blobs(self, two_blobs, tmp_path):
        out = tmp_path / "out"
        rc = main(["cluster", "--data", str(two_blobs), "--label-column", "-1",
                   "--k1", "8", "--k2", "3", "--out-dir", str(out)])
        assert rc == EXIT_OK
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["num_clusters"] == 2
        assert metrics["nmi"] == pytest.approx(1.0)
        assert metrics["arand"] == pytest.approx(1.0)

    def test_kmodes_k_one(self, toy, tmp_path):
        out = tmp_path / "out"
        rc = main(["cluster", "--data", str(toy), "--algo", "kmodes",
                   "--k", "1", "--out-dir", str(out)])
        assert rc == EXIT_OK
        labels = (out / "labels.csv").read_text().splitlines()[1:]
        assert all(l.endswith(",0") for l in labels)

    def test_kmodes_runs_aggregate(self, two_blobs, tmp_path):
        out = tmp_path / "out"
        rc = main(["cluster", "--data", str(two_blobs), "--label-column", "-1",
                   "--algo", "kmodes", "--k", "2", "--runs", "3",
                   "--out-dir", str(out)])
        assert rc == EXIT_OK
        metrics = json.loads((out / "metrics.json").read_text())
        assert len(metrics["runs_detail"]) == 3
        assert "nmi_mean" in metrics and "nmi_std" in metrics

    def test_missing_input_no_partial_outputs(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["cluster", "--data", str(tmp_path / "nope.csv"),
                   "--out-dir", str(out)])
        assert rc == EXIT_DATA
        assert not out.exists()

    @pytest.mark.parametrize("column", ["99", "-99"])
    def test_label_column_out_of_range_is_data_error(self, toy, tmp_path,
                                                      column, capsys):
        rc = main(["cluster", "--data", str(toy), "--label-column", column,
                   "--k1", "2", "--out-dir", str(tmp_path / "o")])
        assert rc == EXIT_DATA
        assert "out of range" in capsys.readouterr().err

    def test_k1_zero_rejected_outside_sweep(self, toy, tmp_path):
        rc = main(["cluster", "--data", str(toy), "--k1", "0",
                   "--out-dir", str(tmp_path / "o")])
        assert rc == EXIT_USAGE

    def test_deterministic_outputs(self, two_blobs, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["cluster", "--data", str(two_blobs), "--label-column", "-1",
                  "--k1", "6", "--k2", "2", "--out-dir", str(out)])
            outs.append((out / "labels.csv").read_bytes()
                        + (out / "metrics.json").read_bytes())
        assert outs[0] == outs[1]


def test_binary_input_builds_no_binary_vector(two_blobs, tmp_path, monkeypatch):
    # prototypes stay bit matrices from the vote to the written artifacts
    def refuse(*args):
        raise AssertionError("a BinaryVector was built")

    monkeypatch.setattr(BinaryVector, "__init__", refuse)
    data = ["--data", str(two_blobs), "--label-column", "-1"]
    runs = {"binnnms": ["cluster", *data, "--k1", "6", "--k2", "2"],
            "kmodes": ["cluster", *data, "--algo", "kmodes", "--k", "2",
                       "--runs", "3"],
            "sweep": ["sweep", *data, "--k1", "0,6", "--k2", "2,3"]}
    for name, argv in runs.items():
        out = tmp_path / name
        assert main([*argv, "--out-dir", str(out)]) == EXIT_OK, name
        written = {"sweep": ["sweep.csv", "trajectory_k1=6.csv"]}.get(
            name, ["labels.csv", "metrics.json", "prototypes.txt"])
        assert sorted(p.name for p in out.iterdir()) == written


class TestSweep:
    def test_grid_and_consistency(self, two_blobs, tmp_path):
        sweep_out = tmp_path / "sweep"
        rc = main(["sweep", "--data", str(two_blobs), "--label-column", "-1",
                   "--k1", "0,6", "--k2", "2,3", "--out-dir", str(sweep_out)])
        assert rc == EXIT_OK
        lines = (sweep_out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 4  # header + 2x2 grid
        # the (6, 2) cell must match a standalone run with those params
        cell = next(l for l in lines[1:] if l.startswith("6,2,"))
        fields = dict(zip(lines[0].split(","), cell.split(",")))
        solo_out = tmp_path / "solo"
        main(["cluster", "--data", str(two_blobs), "--label-column", "-1",
              "--k1", "6", "--k2", "2", "--out-dir", str(solo_out)])
        metrics = json.loads((solo_out / "metrics.json").read_text())
        assert float(fields["nmi"]) == pytest.approx(metrics["nmi"])
        assert int(fields["num_clusters"]) == metrics["num_clusters"]
        assert float(fields["quant_error_final"]) == pytest.approx(
            metrics["quantization_error"])

    def test_k1_zero_is_labeling_only(self, two_blobs, tmp_path):
        out = tmp_path / "s"
        main(["sweep", "--data", str(two_blobs), "--label-column", "-1",
              "--k1", "0", "--k2", "3", "--out-dir", str(out)])
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[1].startswith("0,3,")
        assert "ok" in lines[1]
        # no ascent, so no trajectory file
        assert not (out / "trajectory_k1=0.csv").exists()

    def test_trajectory_files(self, two_blobs, tmp_path):
        out = tmp_path / "s"
        main(["sweep", "--data", str(two_blobs), "--label-column", "-1",
              "--k1", "6", "--k2", "2", "--out-dir", str(out)])
        traj = (out / "trajectory_k1=6.csv").read_text().splitlines()
        assert traj[0] == "iteration,error_vs_target,error_vs_intermediate"
        errs = [float(l.split(",")[1]) for l in traj[1:]]
        assert errs[-1] <= errs[0]

    def test_range_syntax(self, toy, tmp_path):
        out = tmp_path / "s"
        rc = main(["sweep", "--data", str(toy), "--k1", "2..4", "--k2", "1",
                   "--out-dir", str(out)])
        assert rc == EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 3

    def test_cell_failure_recorded_not_fatal(self, toy, tmp_path):
        out = tmp_path / "s"
        # k2=5 exceeds m-1=3 over the endpoints: the cell errors in-row
        rc = main(["sweep", "--data", str(toy), "--k1", "1", "--k2", "1,5",
                   "--out-dir", str(out)])
        assert rc == EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        assert any("error" in l for l in lines[1:])
        assert any(l.split(",")[-1] == "ok" for l in lines[1:])

    def test_artifact_bytes(self, tmp_path):
        # k1 = 99 > n fails its whole column, k2 = 9 > m - 1 fails single cells
        data = tmp_path / "small.csv"
        data.write_text("0,0,0,0,0,1,a\n0,0,0,1,0,0,a\n0,1,0,0,0,0,a\n"
                        "0,0,0,0,0,0,a\n1,1,1,1,1,0,b\n1,1,0,1,1,1,b\n"
                        "1,1,1,1,1,1,b\n0,1,1,1,1,1,b\n")
        out = tmp_path / "s"
        rc = main(["sweep", "--data", str(data), "--label-column", "-1",
                   "--k1", "0,1,99", "--k2", "1,2,9", "--out-dir", str(out)])
        assert rc == EXIT_OK
        k2_error = ',,,,,,"error: k2 must be at most m-1 = 7, got 9"\n'
        k1_error = ',,,,,,"error: k1 must be in [1, 8], got 99"\n'
        text = (out / "sweep.csv").read_text()
        assert text == (
            "k1,k2,epsilon,num_clusters,nmi,arand,quant_error_final,status\n"
            "0,1,1.0,2,1.0,1.0,0.75,ok\n"
            "0,2,1.375,2,1.0,1.0,0.75,ok\n"
            "0,9" + k2_error +
            "1,1,1.0,2,1.0,1.0,0.75,ok\n"
            "1,2,1.375,2,1.0,1.0,0.75,ok\n"
            "1,9" + k2_error +
            "99,1" + k1_error + "99,2" + k1_error + "99,9" + k1_error)
        # a status holding a comma is quoted, so every row has 8 fields
        assert {len(row) for row in csv.reader(io.StringIO(text))} == {8}
        assert (out / "trajectory_k1=1.csv").read_text() == (
            "iteration,error_vs_target,error_vs_intermediate\n"
            "0,0.75,0.75\n"
            "1,0.75,0.75\n")
        assert sorted(p.name for p in out.iterdir()) == [
            "sweep.csv", "trajectory_k1=1.csv"]


class TestTrajectoryErrors:
    def test_matches_rebuild_from_trajectories(self):
        # three noisy classes: ascents stop after different numbers of steps
        rng = np.random.default_rng(4)
        centres = rng.integers(0, 2, size=(3, 16))
        truth = rng.integers(0, 3, size=90)
        bits = centres[truth] ^ (rng.random((90, 16)) < 0.3)
        data = Dataset(bits, truth_labels=[f"c{t}" for t in truth])
        cfg = BgaConfig(k1=7, j_max=6)
        ascent = ascend_bits(data, data.bits, cfg)
        got = _trajectory_errors(data, ascent.rounds)

        iterates = [its for its, _ in trajectories(ascent, data.bits)]
        assert len({len(its) for its in iterates}) > 1
        cidx = np.array([list(dict.fromkeys(data.truth_labels)).index(c)
                         for c in data.truth_labels])

        def centres_of(cur):
            return np.array([majority_ref(cur[cidx == j].tolist())
                             for j in range(cidx.max() + 1)])

        target = centres_of(data.bits)
        assert len(got) == max(len(its) for its in iterates)
        for it, row in enumerate(got):
            cur = np.array([its[min(it, len(its) - 1)] for its in iterates])
            inter = centres_of(cur)
            assert row == {
                "iteration": it,
                "error_vs_target": float((cur != target[cidx]).sum(axis=1).mean()),
                "error_vs_intermediate": float((cur != inter[cidx]).sum(axis=1).mean())}


class TestEval:
    def test_identical(self, tmp_path, capsys):
        t = tmp_path / "t.txt"
        t.write_text("0\n0\n1\n1\n")
        rc = main(["eval", "--truth", str(t), "--pred", str(t)])
        assert rc == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out == {"nmi": 1.0, "arand": 1.0}

    def test_independent(self, tmp_path, capsys):
        t = tmp_path / "t.txt"
        p = tmp_path / "p.txt"
        t.write_text("0\n0\n1\n1\n")
        p.write_text("0\n1\n0\n1\n")
        main(["eval", "--truth", str(t), "--pred", str(p)])
        assert json.loads(capsys.readouterr().out)["nmi"] == pytest.approx(0.0)

    def test_length_mismatch(self, tmp_path):
        t = tmp_path / "t.txt"
        p = tmp_path / "p.txt"
        t.write_text("0\n1\n")
        p.write_text("0\n")
        assert main(["eval", "--truth", str(t), "--pred", str(p)]) == EXIT_DATA

    def test_reads_labels_csv_format(self, tmp_path, capsys):
        t = tmp_path / "t.csv"
        t.write_text("index,label\n0,0\n1,0\n2,1\n")
        rc = main(["eval", "--truth", str(t), "--pred", str(t)])
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["nmi"] == 1.0

    @pytest.mark.parametrize("side", ["truth", "pred"])
    def test_undecodable_label_file_is_data_error(self, tmp_path, capsys, side):
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        good.write_text("a\nb\n")
        bad.write_bytes(b"a\n\xff\n")
        files = {"truth": good, "pred": good, side: bad}
        assert main(["eval", "--truth", str(files["truth"]),
                     "--pred", str(files["pred"])]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "bad.txt" in err and "decode" in err


class TestWriters:
    @pytest.mark.parametrize("k, d", [(1, 1), (3, 7), (10, 240)])
    def test_prototypes_match_per_bit_formatter(self, tmp_path, k, d):
        rng = np.random.default_rng(k * d)
        protos = rng.integers(0, 2, size=(k, d)).astype(np.uint8)
        _write_prototypes(tmp_path / "p.txt", protos)
        want = "".join(" ".join(str(b) for b in p) + "\n" for p in protos.tolist())
        assert (tmp_path / "p.txt").read_bytes() == want.encode()

    @pytest.mark.parametrize("n", [1, 1000])
    def test_labels_match_per_line_formatter(self, tmp_path, n):
        labels = np.random.default_rng(n).integers(0, 300, size=n)
        _write_labels(tmp_path / "l.csv", labels)
        want = "index,label\n" + "".join(f"{i},{int(lab)}\n"
                                         for i, lab in enumerate(labels))
        assert (tmp_path / "l.csv").read_bytes() == want.encode()


class TestEncode:
    def test_disjunctive(self, tmp_path):
        schema = tmp_path / "s.schema"
        schema.write_text("c categorical disjunctive 3\n")
        data = tmp_path / "d.csv"
        data.write_text("1\n2\n3\n")
        out = tmp_path / "o.csv"
        rc = main(["encode", "--data", str(data), "--schema", str(schema),
                   "--out", str(out)])
        assert rc == EXIT_OK
        assert out.read_text().splitlines() == ["1,0,0", "0,1,0", "0,0,1"]

    def test_additive(self, tmp_path):
        schema = tmp_path / "s.schema"
        schema.write_text("c categorical additive 3\n")
        data = tmp_path / "d.csv"
        data.write_text("2\n")
        out = tmp_path / "o.csv"
        main(["encode", "--data", str(data), "--schema", str(schema),
              "--out", str(out)])
        assert out.read_text().splitlines() == ["1,1,0"]

    def test_bad_level(self, tmp_path):
        schema = tmp_path / "s.schema"
        schema.write_text("c categorical disjunctive 3\n")
        data = tmp_path / "d.csv"
        data.write_text("9\n")
        rc = main(["encode", "--data", str(data), "--schema", str(schema),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == EXIT_DATA


class TestSummary:
    def test_json_output(self, two_blobs, capsys):
        rc = main(["summary", "--data", str(two_blobs), "--label-column", "-1"])
        assert rc == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == 24 and out["d"] == 10
        assert out["num_classes"] == 2


class TestUciDataErrors:
    @pytest.mark.parametrize("fmt, text", [
        ("soybean", "d1,0,1\nd2,1\n"),
        ("soybean", "d1,0,1\nd2,x,1\n"),
        ("digits", " ".join(["0"] * 239 + ["x"]) + "\n"),
    ], ids=["soybean-ragged-row", "soybean-bad-code", "digits-non-numeric"])
    def test_bad_cell_is_data_error(self, tmp_path, capsys, fmt, text):
        f = tmp_path / "raw.data"
        f.write_text(text)
        assert main(["summary", "--data", str(f), "--format", fmt]) == EXIT_DATA
        assert "data error" in capsys.readouterr().err


class TestUndecodableData:
    @pytest.mark.parametrize("command", ["summary", "cluster"])
    @pytest.mark.parametrize("categorical", [False, True], ids=["binary", "categorical"])
    def test_byte_ff_is_data_error(self, tmp_path, capsys, command, categorical):
        f = tmp_path / "bad.csv"
        f.write_bytes(b"0,1,a\n1,0,\xff\n")
        argv = [command, "--data", str(f), "--label-column", "-1"]
        if categorical:
            schema = tmp_path / "s.schema"
            schema.write_text("x binary\ny binary\n")
            argv += ["--schema", str(schema)]
        if command == "cluster":
            argv += ["--k1", "1", "--k2", "1", "--out-dir", str(tmp_path / "o")]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and "bad.csv" in err and "decode" in err


class TestLabelOnlyFile:
    @pytest.mark.parametrize("text", ["a\nb\n", " a\n b\n"], ids=["plain", "padded"])
    def test_is_data_error(self, tmp_path, capsys, text):
        f = tmp_path / "labels.csv"
        f.write_text(text)
        assert main(["summary", "--data", str(f), "--label-column", "0"]) == EXIT_DATA
        assert "no data cells" in capsys.readouterr().err


class TestEntryPoint:
    def test_console_script(self, toy, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "binnnms.cli", "cluster", "--data", str(toy),
             "--k1", "4", "--k2", "1", "--out-dir", str(tmp_path / "o")],
            capture_output=True, text=True)
        assert proc.returncode == 0

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "binnnms.cli", "cluster"],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_USAGE

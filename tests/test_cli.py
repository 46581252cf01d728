import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from binnnms import cli, ingest
from binnnms.bga import DEFAULT_J_MAX, ascend_bits
from binnnms.binvec import BinaryVector
from binnnms.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    _trajectory_errors,
    _write_labels,
    _write_prototypes,
    main,
)
from binnnms.ingest import (
    UCI_LOADERS,
    Dataset,
    load_binary_csv,
    load_uci,
    write_binary_csv,
)
from binnnms.labeling import EPSILON_MODES, Endpoints
from binnnms.metrics import label_codes, quantization_error, scores
from conftest import ROOT, trajectories
from oracles import majority_ref
from test_acceptance import _raw_uci_lines


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

    @pytest.mark.parametrize("algo,option", [
        ("kmodes", ["--k1", "3"]), ("kmodes", ["--k2", "5"]),
        ("kmodes", ["--jmax", "0"]), ("kmodes", ["--epsilon-mode", "kth_only"]),
        ("binnnms", ["--k", "2"]), ("binnnms", ["--runs", "5"]),
        ("binnnms", ["--seed", "0"])], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_option_of_the_other_algo_is_rejected(self, toy, tmp_path, capsys,
                                                  algo, option):
        # each was silently ignored, and the command exited 0; a default
        # value given explicitly is refused too
        out = tmp_path / "o"
        rc = main(["cluster", "--data", str(toy), "--algo", algo, *option,
                   "--out-dir", str(out)])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"config error: {option[0]} does not apply to --algo {algo}\n")
        assert not out.exists()

    @pytest.mark.parametrize("k1", [-1, 5])
    def test_k1_outside_0_to_n_is_config_error(self, toy, tmp_path, capsys, k1):
        rc = main(["cluster", "--data", str(toy), f"--k1={k1}",
                   "--out-dir", str(tmp_path / "o")])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == f"config error: k1 must be in [0, 4], got {k1}\n"

    def test_kmodes_negative_seed_names_its_option(self, toy, tmp_path, capsys):
        rc = main(["cluster", "--data", str(toy), "--algo", "kmodes", "--seed=-1",
                   "--out-dir", str(tmp_path / "o")])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == "config error: seed must be non-negative, got -1\n"

    @pytest.mark.xfail(strict=True, reason=(
        "Endpoints.epsilon averages float per-row means, so an integer epsilon "
        "can print one ulp below it; the exact fix moves recorded benchmark "
        "digests"))
    def test_integer_epsilon_keeps_its_edges(self, tmp_path):
        # the k2 = 3 distance means are 4/3, 1, 2/3, 1: exactly 1 on average
        data = tmp_path / "eps.csv"
        data.write_text("0,0,0,1\n0,0,0,0\n0,0,1,0\n0,0,0,0\n")
        out = tmp_path / "out"
        assert main(["cluster", "--data", str(data), "--k1", "2", "--k2", "3",
                     "--jmax", "1", "--out-dir", str(out)]) == EXIT_OK
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["epsilon"] == 1.0
        assert metrics["num_clusters"] == 1  # the threshold graph at 1 is connected

    def test_integer_threshold_keeps_its_edges(self, tmp_path):
        # the printed epsilon is still one ulp below 1 (the xfail above), but
        # the labeling cuts at the exact floor of the mean distance, 1
        data = tmp_path / "eps.csv"
        data.write_text("0,0,0,1\n0,0,0,0\n0,0,1,0\n0,0,0,0\n")
        out = tmp_path / "out"
        assert main(["cluster", "--data", str(data), "--k1", "2", "--k2", "3",
                     "--jmax", "1", "--out-dir", str(out)]) == EXIT_OK
        assert json.loads((out / "metrics.json").read_text())["num_clusters"] == 1

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


@st.composite
def _grid_runs(draw):
    """(rows, truth labels, k1 grid, k2 grid, j_max, epsilon mode): 1 to 10
    labeled rows, and grids whose values reach one past each valid range,
    so that whole columns and single cells fail as well as run."""
    n, d = draw(st.integers(1, 10)), draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=d, max_size=d),
                         min_size=n, max_size=n))
    truth = draw(st.lists(st.sampled_from("ab"), min_size=n, max_size=n))
    k1s = draw(st.lists(st.sampled_from([-1, *range(n + 2)]), min_size=1, max_size=3))
    k2s = draw(st.lists(st.integers(0, n), min_size=1, max_size=3))
    return (rows, truth, k1s, k2s, draw(st.sampled_from([0, 1, 50])),
            draw(st.sampled_from(EPSILON_MODES)))


class TestSweep:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_grid_runs())
    def test_grid_and_consistency(self, tmp_path, capsys, case):
        # every sweep.csv row is what `cluster` does with that cell's options:
        # an `error: M` row is `config error: M` and exit 1; an `ok` row is
        # exit 0 with the row's values in metrics.json, which holds the same
        # floats, so both parse equal
        rows, truth, k1s, k2s, j_max, mode = case
        data = tmp_path / "rows.csv"
        data.write_text("".join(",".join(map(str, row)) + f",{t}\n"
                                for row, t in zip(rows, truth)))
        options = ["--data", str(data), "--label-column", "-1", "--jmax", str(j_max),
                   "--epsilon-mode", mode]
        assert main(["sweep", *options, f"--k1={','.join(map(str, k1s))}",
                     f"--k2={','.join(map(str, k2s))}",
                     "--out-dir", str(tmp_path / "sweep")]) == EXIT_OK
        with (tmp_path / "sweep" / "sweep.csv").open() as f:
            cells = list(csv.DictReader(f))
        assert [(int(c["k1"]), int(c["k2"])) for c in cells] == [
            (k1, k2) for k1 in k1s for k2 in k2s]
        for cell in cells:
            capsys.readouterr()
            solo_out = tmp_path / "solo"
            rc = main(["cluster", *options, f"--k1={cell['k1']}", f"--k2={cell['k2']}",
                       "--out-dir", str(solo_out)])
            if cell["status"] != "ok":
                assert cell["status"].startswith("error: "), cell
                assert rc == EXIT_USAGE, cell
                message = cell["status"].removeprefix("error: ")
                assert capsys.readouterr().err.splitlines()[-1] == (
                    f"config error: {message}"), cell
                continue
            assert rc == EXIT_OK, cell
            metrics = json.loads((solo_out / "metrics.json").read_text())
            assert {"epsilon": float(cell["epsilon"]),
                    "num_clusters": int(cell["num_clusters"]),
                    "nmi": float(cell["nmi"]), "arand": float(cell["arand"]),
                    "quantization_error": float(cell["quant_error_final"]),
                    } == {key: metrics[key] for key in (
                        "epsilon", "num_clusters", "nmi", "arand",
                        "quantization_error")}, cell

    @pytest.mark.parametrize("flag,grid", [
        ("--k1", "1..2..3"), ("--k2", "x"), ("--k1", "2.."), ("--k2", ","), ("--k2", "5..2")])
    def test_bad_grid_is_usage_error_naming_its_flag(self, toy, tmp_path, capsys,
                                                     flag, grid):
        grids = {"--k1": "1", "--k2": "1"} | {flag: grid}
        with pytest.raises(SystemExit) as exit_:
            main(["sweep", "--data", str(toy), *(f"{f}={g}" for f, g in grids.items()),
                  "--out-dir", str(tmp_path / "s")])
        assert exit_.value.code == EXIT_USAGE
        assert f"error: argument {flag}: " in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

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

    def test_other_failure_ends_the_command(self, two_blobs, tmp_path,
                                            monkeypatch, capsys):
        # only a config error (ValueError) becomes a status row; a fault of
        # any other kind is a runtime failure, not a row and exit 0
        def broken(endpoints, epsilon):
            raise RuntimeError("labeling broke")

        monkeypatch.setattr("binnnms.labeling.Endpoints.labeling", broken)
        rc = main(["sweep", "--data", str(two_blobs), "--label-column", "-1",
                   "--k1", "0,6", "--k2", "2", "--out-dir", str(tmp_path / "s")])
        assert rc == EXIT_RUNTIME
        assert capsys.readouterr().err == "runtime failure: labeling broke\n"
        assert not (tmp_path / "s" / "sweep.csv").exists()

    @pytest.mark.parametrize("mode", ["mean_all", "kth_only"])
    def test_each_cell_is_a_fresh_labeling(self, two_blobs, tmp_path, mode):
        # a k1 column shares one dedupe, one top-k and one labeling per
        # threshold across its cells; each cell must still equal a fresh
        # Endpoints of that column's endpoints and that k2 alone:
        # Endpoints.epsilon, then the labeling at its threshold, with
        # k2 = 30 > m - 1 failing alone
        k1s, k2s = (0, 6), (1, 12, 3, 30)
        out = tmp_path / "s"
        assert main(["sweep", "--data", str(two_blobs), "--label-column", "-1",
                     "--k1", ",".join(map(str, k1s)), "--k2", ",".join(map(str, k2s)),
                     "--epsilon-mode", mode, "--out-dir", str(out)]) == EXIT_OK
        with (out / "sweep.csv").open() as f:
            cells = list(csv.DictReader(f))
        data = load_binary_csv(two_blobs, label_column=-1)
        truth = label_codes(data.truth_labels)[0]
        want, merged = [], False
        for k1 in k1s:
            ends = ascend_bits(data, data.bits, k1, DEFAULT_J_MAX).endpoints
            for k2 in k2s:
                row = dict.fromkeys(cells[0], "") | {"k1": str(k1), "k2": str(k2)}
                fresh = Endpoints(ends, [k2])
                try:
                    epsilon, t = fresh.epsilon(k2, mode)
                except ValueError as exc:
                    want.append(row | {"status": f"error: {exc}"})
                    continue
                lab = fresh.labeling(t)
                nmi, arand = scores(truth, lab.labels)
                want.append(row | {
                    "epsilon": str(epsilon), "num_clusters": str(lab.num_clusters),
                    "nmi": str(round(nmi, 12)), "arand": str(round(arand, 12)),
                    "quant_error_final": str(quantization_error(
                        data, lab.labels, lab.prototypes)),
                    "status": "ok"})
                merged |= lab.num_clusters < len(np.unique(ends, axis=0))
        assert cells == want
        assert merged  # some cell's threshold merges distinct endpoints

    def test_each_labeling_is_scored_once(self, two_blobs, tmp_path, monkeypatch):
        # the cells of a k1 column that share a labeling share its
        # quantization error and scores: one call of each per labeling
        k1s, k2s = (0, 6), range(1, 13)
        columns = []  # per k1 column, the calls of each

        def counted(name, fn):
            def call(*args):
                if name == "_endpoints":  # a new column
                    columns.append(dict(quantization_error=0, scores=0))
                else:
                    columns[-1][name] += 1
                return fn(*args)
            return call

        for name in ("_endpoints", "quantization_error", "scores"):
            monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
        assert main(["sweep", "--data", str(two_blobs), "--label-column", "-1",
                     "--k1", ",".join(map(str, k1s)), "--k2", "1..12",
                     "--out-dir", str(tmp_path / "s")]) == EXIT_OK
        data = load_binary_csv(two_blobs, label_column=-1)
        want = []
        for k1 in k1s:
            ends = Endpoints(ascend_bits(data, data.bits, k1, DEFAULT_J_MAX).endpoints)
            labelings = {ends.labeling(ends.epsilon(k2)[1]) for k2 in k2s}
            want.append(dict.fromkeys(("quantization_error", "scores"), len(labelings)))
        assert columns == want
        assert sum(c["scores"] for c in columns) < len(k1s) * len(k2s)

    def test_artifact_bytes(self, tmp_path):
        # k1 = -1 and k1 = 99 > n fail their whole columns, k2 = 9 > m - 1
        # fails single cells
        data = tmp_path / "small.csv"
        data.write_text("0,0,0,0,0,1,a\n0,0,0,1,0,0,a\n0,1,0,0,0,0,a\n"
                        "0,0,0,0,0,0,a\n1,1,1,1,1,0,b\n1,1,0,1,1,1,b\n"
                        "1,1,1,1,1,1,b\n0,1,1,1,1,1,b\n")
        out = tmp_path / "s"
        rc = main(["sweep", "--data", str(data), "--label-column", "-1",
                   "--k1=-1,0,1,99", "--k2", "1,2,9", "--out-dir", str(out)])
        assert rc == EXIT_OK
        k2_error = ',,,,,,"error: k2 must be at most m-1 = 7, got 9"\n'
        k1_error = ',,,,,,"error: k1 must be in [0, 8], got 99"\n'
        k1_sign_error = ',,,,,,"error: k1 must be in [0, 8], got -1"\n'
        text = (out / "sweep.csv").read_text()
        assert text == (
            "k1,k2,epsilon,num_clusters,nmi,arand,quant_error_final,status\n"
            "-1,1" + k1_sign_error + "-1,2" + k1_sign_error + "-1,9" + k1_sign_error +
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


class TestJmaxWarning:
    # on the toy, k1 = 4 moves 110, 101 and 011 to 111 in their first step,
    # and 111 is a fixed point
    def test_cluster_and_sweep_say_when_ascents_stop_at_jmax(self, toy, tmp_path,
                                                             capsys):
        warning = "warning: k1 = 4: 3 of 4 ascents stopped at j_max = 1\n"
        runs = {"cluster": ["cluster", "--k1", "4", "--k2", "1"],
                "sweep": ["sweep", "--k1", "0,4", "--k2", "1"]}
        for name, argv in runs.items():
            rc = main([*argv, "--data", str(toy), "--jmax", "1",
                       "--out-dir", str(tmp_path / name / "j1")])
            assert rc == EXIT_OK
            captured = capsys.readouterr()
            assert captured.err.startswith(warning) and captured.err.count("warning") == 1
            assert "warning" not in captured.out
            # the second step finds every fixed point
            assert main([*argv, "--data", str(toy), "--jmax", "2",
                         "--out-dir", str(tmp_path / name / "j2")]) == EXIT_OK
            assert "warning" not in capsys.readouterr().err

    def test_default_jmax_on_planted_data_is_silent(self, two_blobs, tmp_path, capsys):
        data = ["--data", str(two_blobs), "--label-column", "-1"]
        assert main(["cluster", *data, "--k1", "6", "--k2", "2",
                     "--out-dir", str(tmp_path / "c")]) == EXIT_OK
        assert main(["sweep", *data, "--k1", "0,6,12", "--k2", "2",
                     "--out-dir", str(tmp_path / "s")]) == EXIT_OK
        assert "warning" not in capsys.readouterr().err


class TestTrajectoryErrors:
    def test_matches_rebuild_from_trajectories(self):
        # three noisy classes: ascents stop after different numbers of steps
        rng = np.random.default_rng(4)
        centres = rng.integers(0, 2, size=(3, 16))
        truth = rng.integers(0, 3, size=90)
        bits = centres[truth] ^ (rng.random((90, 16)) < 0.3)
        data = Dataset(bits, truth_labels=[f"c{t}" for t in truth])
        ascent = ascend_bits(data, data.bits, 7, j_max=6)
        got = _trajectory_errors(data, label_codes(data.truth_labels)[0],
                                 ascent.rounds)

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

    def test_length_mismatch(self, tmp_path, capsys):
        t = tmp_path / "t.txt"
        p = tmp_path / "p.txt"
        t.write_text("0\n1\n")
        p.write_text("0\n")
        assert main(["eval", "--truth", str(t), "--pred", str(p)]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {p}: 1 labels, but {t} has 2\n")

    def test_reads_labels_csv_format(self, tmp_path, capsys):
        # the label is each row's last cell, after an `index` header if any
        t, p = tmp_path / "t.csv", tmp_path / "p.txt"
        t.write_text("index,label\n0,0\n1,0\n2,1\n")
        p.write_text("x y a\nx y a\nx y b\n")
        rc = main(["eval", "--truth", str(t), "--pred", str(p)])
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["nmi"] == 1.0

    @pytest.mark.parametrize("text, where", [
        ("index,label\n0,a\n1\n2,b\n", "row 1: ragged row (1 cells, expected 2)"),
        ("index,label\n", "no data rows after header"),
        ("", "empty file"),
    ], ids=["ragged", "header-only", "empty"])
    def test_bad_label_file_is_data_error_at_path_row(self, tmp_path, capsys, text, where):
        # the ragged file scored 1.0: each line's last token was its label
        f = tmp_path / "labels.csv"
        f.write_text(text)
        assert main(["eval", "--truth", str(f), "--pred", str(f)]) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {f}: {where}\n"

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

    @pytest.mark.parametrize("n", [0, 1, 1000])
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

    @pytest.mark.parametrize("name", sorted(UCI_LOADERS))
    def test_uci_format_writes_what_load_uci_writes(self, tmp_path, name):
        raw = tmp_path / f"{name}.data"
        raw.write_text("\n".join(_raw_uci_lines(name, np.random.default_rng(1))) + "\n")
        out, want = tmp_path / "out.csv", tmp_path / "want.csv"
        rc = main(["encode", "--format", name, "--data", str(raw), "--out", str(out)])
        assert rc == EXIT_OK
        write_binary_csv(load_uci(name, raw), want)
        assert out.read_bytes() == want.read_bytes()


    def test_output_reads_back_on_the_fast_path(self, tmp_path):
        # "\r\n" line ends sent every encoded file to the general reader
        schema = tmp_path / "s.schema"
        schema.write_text("c categorical disjunctive a,b,c\n")
        data = tmp_path / "d.csv"
        data.write_text("a,x\nb,y\nc,x\n")
        out = tmp_path / "o.csv"
        assert main(["encode", "--data", str(data), "--schema", str(schema),
                     "--label-column", "-1", "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == b"1,0,0,x\n0,1,0,y\n0,0,1,x\n"
        plain = ingest._plain_bits(out.read_bytes(), None, -1)
        assert plain is not None
        ds = load_binary_csv(out, label_column=-1)
        assert plain[0].tolist() == ds.bits.tolist() == np.eye(3).tolist()
        assert plain[1] == ds.truth_labels == ["x", "y", "x"]

    def test_label_that_cannot_be_one_cell_is_data_error(self, tmp_path, capsys):
        # a quoted "x,y" label made `cluster` on the encoded file fail with
        # a ragged row
        schema = tmp_path / "s.schema"
        schema.write_text("c categorical disjunctive a,b\n")
        data = tmp_path / "d.csv"
        data.write_text("a;x\nb;x,y\n")
        out = tmp_path / "o.csv"
        rc = main(["encode", "--data", str(data), "--schema", str(schema),
                   "--delimiter", ";", "--label-column", "-1", "--out", str(out)])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err.startswith(
            f"data error: {out}: row 1: label 'x,y' cannot be one cell")
        assert not out.exists()

    def test_rejected_schema_line_is_data_error(self, tmp_path, capsys):
        # it exited 1 as a config error that named no file or line
        schema = tmp_path / "s.schema"
        schema.write_text("c categorical foo a,b\n")
        data = tmp_path / "d.csv"
        data.write_text("a\n")
        rc = main(["encode", "--data", str(data), "--schema", str(schema),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == EXIT_DATA
        assert f"data error: {schema}:1: unknown coding 'foo'" in capsys.readouterr().err


class TestSummary:
    def test_json_output(self, two_blobs, capsys):
        rc = main(["summary", "--data", str(two_blobs), "--label-column", "-1"])
        assert rc == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == 24 and out["d"] == 10
        assert out["num_classes"] == 2

    def test_label_column_by_header_name(self, tmp_path, capsys):
        f = tmp_path / "named.csv"
        f.write_text("a,b,cls\n0,1,x\n1,0,y\n1,1,x\n")
        rc = main(["summary", "--data", str(f), "--header", "--label-column", "cls"])
        assert rc == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == 3 and out["d"] == 2 and out["num_classes"] == 2

    @pytest.mark.parametrize("header, name", [(["--header"], "nope"), ([], "cls")],
                             ids=["unknown-name", "no-header"])
    def test_label_column_name_not_in_header_is_data_error(self, tmp_path, capsys,
                                                          header, name):
        f = tmp_path / "named.csv"
        f.write_text("a,b,cls\n0,1,x\n1,0,y\n")
        rc = main(["summary", "--data", str(f), *header, "--label-column", name])
        assert rc == EXIT_DATA
        assert f"label column {name!r} not found in header" in capsys.readouterr().err

    def test_schema_of_comments_only_is_data_error(self, tmp_path, capsys):
        schema = tmp_path / "s.schema"
        schema.write_text("# no features here\n")
        f = tmp_path / "d.csv"
        f.write_text("a\n")
        rc = main(["summary", "--data", str(f), "--schema", str(schema)])
        assert rc == EXIT_DATA
        assert f"data error: {schema}: schema declares no features" in capsys.readouterr().err


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


def _digits_file(bad=None):
    """Three mfeat-pix lines of valid pixels; `bad` replaces row 1, column 5."""
    rows = [["0", "3", "6"] * 80 for _ in range(3)]
    if bad is not None:
        rows[1][5] = bad
    return "".join("  " + "  ".join(row) + "\n" for row in rows)


ZOO_ROW = "aardvark,1,0,0,1,0,0,1,1,1,1,0,0,4,0,0,1,1"
SOYBEAN_16 = "".join(f"c{i},0,1\n" for i in range(15)) + "c15,01,1\n"


class TestRawFileErrors:
    """Every UCI adapter reads through the general text reader, and every
    data error names the file and places its row and cell in the file's own
    numbering: data rows and raw cells, label and animal name counted, from
    0. `{f}` stands for the file; None text makes it a directory."""

    @pytest.mark.parametrize("fmt, text, where", [
        pytest.param("digits", None, "{f}: cannot read the input: Is a directory",
                     id="digits-directory"),
        *[pytest.param("digits", _digits_file(bad),
                       f"{{f}}: row 1, column 5: bad pixel '{bad}'", id=f"digits-pixel-{bad}")
          for bad in ["99", "-1", "7", "nan", "1.5", "x"]],
        pytest.param("soybean", "d1,01,2\n", "{f}: row 0, column 1: bad code '01'",
                     id="soybean-01"),
        pytest.param("soybean", "d1,x,2\n", "{f}: row 0, column 1: bad code 'x'",
                     id="soybean-x"),
        pytest.param("soybean", SOYBEAN_16, "{f}: row 15, column 1: bad code '01'",
                     id="soybean-dropped-class"),
        pytest.param("zoo", ZOO_ROW.replace(",4,", ",3,") + "\n",
                     "{f}: row 0, column 13 (legs): unknown level '3'", id="zoo-legs"),
        pytest.param("zoo", f"{ZOO_ROW}\n{ZOO_ROW[:-2]}\n",
                     "{f}: row 1: ragged row (17 cells, expected 18)", id="zoo-short-row"),
        pytest.param("zoo", f"{ZOO_ROW},1\n", "{f}: row 0: ragged row (19 cells, expected 18)",
                     id="zoo-every-row-long"),
        pytest.param("car", "vhigh,vhigh,2,2,small,unacc\n",
                     "{f}: row 0: ragged row (6 cells, expected 7)", id="car-every-row-short"),
        pytest.param("car", "vhigh,vhigh,2,2,small,low,unacc\nlow,low,2,2,low,unacc\n",
                     "{f}: row 1: ragged row (6 cells, expected 7)", id="car-short-row"),
    ])
    def test_bad_input_is_data_error_at_file_row_column(self, tmp_path, capsys,
                                                        fmt, text, where):
        f = tmp_path / "raw.data"
        if text is None:
            f.mkdir()
        else:
            f.write_text(text)
        assert main(["summary", "--data", str(f), "--format", fmt]) == EXIT_DATA
        assert capsys.readouterr().err == "data error: " + where.format(f=f) + "\n"

    def test_one_line_digits_file_loads(self, tmp_path, capsys):
        f = tmp_path / "mfeat-pix"
        f.write_text(_digits_file().splitlines()[0] + "\n")
        assert main(["summary", "--data", str(f), "--format", "digits"]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert (summary["n"], summary["d"], summary["class_histogram"]) == (1, 240, {"0": 1})

    @pytest.mark.parametrize("option", [["--schema", "s.schema"], ["--delimiter", ","],
                                        ["--header"], ["--label-column", "-1"]],
                             ids=lambda option: option[0])
    def test_uci_format_rejects_an_option_it_would_ignore(self, tmp_path, capsys, option):
        # each was read by no adapter, and the command exited 0
        f = tmp_path / "SPECT.data"
        f.write_text("1,0,1\n0,1,1\n")
        rc = main(["summary", "--data", str(f), "--format", "spect", *option])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"config error: {option[0]} does not apply to --format spect\n")


class TestDelimiterOption:
    @pytest.mark.parametrize("command", [
        ["cluster", "--k1", "1", "--k2", "1"], ["sweep", "--k1", "1", "--k2", "1"],
        ["encode", "--out", "o.csv"], ["summary"]], ids=lambda command: command[0])
    def test_empty_is_usage_error_naming_its_flag(self, toy, tmp_path, capsys,
                                                  monkeypatch, command):
        # it exited 1 as "config error: empty separator", str.split's words
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            main([*command, "--data", str(toy), "--delimiter", ""])
        assert exit_.value.code == EXIT_USAGE
        assert "error: argument --delimiter: must not be empty" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [toy]  # no output written


CAR_SCHEMA = ["--schema", str(ROOT / "data" / "schemas" / "car.schema")]


class TestSchemaOption:
    """`--format` alone picks the reader: `--schema` with `binary` was read as
    categorical, and `categorical` without one was a data error, exit 2."""

    @pytest.mark.parametrize("command", ["summary", "encode"])
    @pytest.mark.parametrize("fmt, schema, message", [
        ("binary", True, "--schema does not apply to --format binary"),
        ("categorical", False, "--format categorical requires --schema"),
    ], ids=["binary-with-schema", "categorical-without"])
    def test_is_config_error(self, tmp_path, capsys, command, fmt, schema, message):
        f = tmp_path / "car.data"
        f.write_text("vhigh,vhigh,2,2,small,low,unacc\n")
        argv = [command, "--data", str(f), "--format", fmt, "--label-column", "-1"]
        if schema:
            argv += CAR_SCHEMA
        if command == "encode":
            argv += ["--out", str(tmp_path / "out.csv")]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out.csv").exists()


# --format: (the layout of `_raw_uci_lines` its file takes, further options);
# "eval" stands for the label files of `eval`
FORMAT_FILES = {name: (name, []) for name in UCI_LOADERS}
FORMAT_FILES.update({
    "auto": ("spect", ["--label-column", "0"]),
    "binary": ("spect", ["--label-column", "0"]),
    "categorical": ("car", [*CAR_SCHEMA, "--label-column", "-1"]),
    "eval": ("labels", []),
})


@st.composite
def mutated_inputs(draw):
    """(--format, its options, the file's bytes or None for a directory): a
    valid tiny file in the format's layout with at most one cell dropped,
    added or replaced, and now and then `--schema` added or taken away. A
    label file may have a header, no rows, or neither (an empty file)."""
    fmt = draw(st.sampled_from(sorted(FORMAT_FILES)))
    layout, options = FORMAT_FILES[fmt]
    if fmt != "eval" and draw(st.integers(0, 9)) == 0:
        options = ([o for o in options if o not in CAR_SCHEMA] if "--schema" in options
                   else [*options, *CAR_SCHEMA])
    if draw(st.integers(0, 9)) == 0:
        return fmt, options, None
    sep = b" " if layout == "digits" else b","
    if layout == "labels":
        lines = ["index,label"] * draw(st.booleans()) + [
            f"{i},c{i % 3}" for i in range(draw(st.integers(0, 8)))]
    else:
        lines = _raw_uci_lines(layout, np.random.default_rng(draw(st.integers(0, 3))))
    rows = [line.encode().split(sep) for line in lines]
    mutation = draw(st.sampled_from(["none", "drop", "add", "set"])) if rows else "none"
    if mutation != "none":
        row = rows[draw(st.integers(0, len(rows) - 1))]
        c = draw(st.integers(0, len(row) - 1))
    if mutation == "drop":
        del row[c]
    elif mutation == "add":
        row.insert(c, draw(st.sampled_from([b"0", b"1", b"?", b"x"])))
    elif mutation == "set":
        row[c] = draw(st.sampled_from([b"", b"x", b"nan", b"-1", b"01", b"?", b"\xff"]))
    return fmt, options, b"".join(sep.join(row) + b"\n" for row in rows)


class TestEveryFormat:
    @given(mutated_inputs())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bad_cell_is_exit_2_naming_the_file(self, tmp_path, capsys, case):
        """Every command that reads the file exits 0, 1 (a bad option) or 2
        (a bad file, named first), never 3; `summary` and `encode` load it
        alike, so they exit alike."""
        fmt, options, raw = case
        f = tmp_path / ("a-directory" if raw is None else "raw.data")
        if raw is None:
            f.mkdir(exist_ok=True)
        else:
            f.write_bytes(raw)
        if fmt == "eval":
            runs = [["eval", "--truth", str(f), "--pred", str(f)]]
        else:
            data = ["--data", str(f), "--format", fmt, *options]
            runs = [["summary", *data], ["encode", *data, "--out", str(tmp_path / "o.csv")]]
        codes = []
        for argv in runs:
            rc = main(argv)
            err = capsys.readouterr().err
            assert rc in (EXIT_OK, EXIT_USAGE, EXIT_DATA), err
            if rc == EXIT_USAGE:
                assert err.startswith("config error: "), err
            if rc == EXIT_DATA:
                assert err.startswith(f"data error: {f}: "), err
            codes.append(rc)
        assert len(set(codes)) == 1, codes


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


class TestUnreadableInput:
    """An input path that names no readable file is a data error, exit 2."""

    @pytest.mark.parametrize("flag", ["--data", "--schema"])
    def test_directory_as_cluster_input(self, toy, tmp_path, capsys, flag):
        argv = ["cluster", "--data", str(tmp_path if flag == "--data" else toy),
                "--k1", "1", "--out-dir", str(tmp_path / "o")]
        if flag == "--schema":
            argv += ["--schema", str(tmp_path)]
        rc = main(argv)
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and str(tmp_path) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("side", ["truth", "pred"])
    def test_directory_as_label_file(self, tmp_path, capsys, side):
        good = tmp_path / "good.txt"
        good.write_text("a\nb\n")
        files = {"truth": good, "pred": good, side: tmp_path}
        assert main(["eval", "--truth", str(files["truth"]),
                     "--pred", str(files["pred"])]) == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_permission_denied_is_data_error(self, toy, tmp_path, capsys,
                                             monkeypatch):
        def refuse(self):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_bytes", refuse)
        assert main(["summary", "--data", str(toy)]) == EXIT_DATA
        assert "Permission denied" in capsys.readouterr().err

    def test_path_under_a_file_is_data_error(self, toy, capsys):
        # "Not a directory" exited 3 as a runtime failure
        assert main(["summary", "--data", str(toy / "x")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error" in err and str(toy / "x") in err


class TestOutputPaths:
    """An output path that cannot be created or opened is a config error,
    exit 1, that names the flag and the path; each exited 3 as a runtime
    failure with only the OS error."""

    @staticmethod
    def run(command, data, out_dir):
        grid = ["--k2", "1"] if command == "sweep" else []
        return main([command, "--data", str(data), "--k1", "1", *grid,
                     "--out-dir", str(out_dir)])

    @pytest.mark.parametrize("command", ["cluster", "sweep"])
    def test_out_dir_names_a_file(self, toy, tmp_path, capsys, command):
        blocker = tmp_path / "o"
        blocker.write_text("")
        assert self.run(command, toy, blocker) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"config error: --out-dir {blocker}: File exists" in err
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("command", ["cluster", "sweep"])
    def test_out_dir_under_a_file(self, toy, tmp_path, capsys, command):
        blocker = tmp_path / "o"
        blocker.write_text("")
        assert self.run(command, toy, blocker / "sub") == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"config error: --out-dir {blocker / 'sub'}: Not a directory" in err

    def test_encode_out_names_a_directory(self, tmp_path, capsys):
        schema = tmp_path / "s.schema"
        schema.write_text("c categorical disjunctive 3\n")
        data = tmp_path / "d.csv"
        data.write_text("1\n")
        rc = main(["encode", "--data", str(data), "--schema", str(schema),
                   "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"config error: --out {tmp_path}: Is a directory" in err


    def test_encode_out_under_a_missing_directory(self, toy, tmp_path, capsys):
        # exit 2 as `data error: [Errno 2] No such file or directory`, with no flag
        out = tmp_path / "nodir" / "x.csv"
        assert main(["encode", "--data", str(toy), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"config error: --out {out}: No such file or directory\n")


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

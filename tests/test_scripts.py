import json
import runpy
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent


def test_check_digests_rejects_an_unknown_workload():
    # a misspelt name lists the known workloads instead of a traceback
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_digests.py"), "kmodes-digit"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "unknown workload kmodes-digit" in proc.stderr
    assert "kmodes-digits" in proc.stderr and "cluster-noisy5k" in proc.stderr


def test_check_digests_names_every_differing_artifact(tmp_path):
    # against a reference of two wrong digests, one seed's mismatch names
    # both, and each file the reference lacks, not only the first in name order
    reference = tmp_path / "reference.json"
    reference.write_text(json.dumps(
        {"sweep-spect": {"0": {"a.csv": "0" * 16, "sweep.csv": "1" * 16}}}))
    run = ("import runpy, sys; from pathlib import Path; "
           "main = runpy.run_path(sys.argv[1])['main']; "
           "main.__globals__['REFERENCE'] = Path(sys.argv[2]); "
           "sys.argv[1:] = []; sys.exit(main())")
    proc = subprocess.run(
        [sys.executable, "-c", run, str(ROOT / "scripts" / "check_digests.py"),
         str(reference)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    [line] = [l for l in proc.stdout.splitlines() if l.startswith("MISMATCH")]
    assert line.startswith("MISMATCH sweep-spect seed 0: a.csv: expected "
                           f"{'0' * 16}, got no file; sweep.csv: expected {'1' * 16}, got ")
    for k1 in (10, 20, 30):
        assert f"trajectory_k1={k1}.csv: expected no file, got " in line
    assert proc.stdout.endswith("0 of 1 match\n")


def _run_output(run_s, setup_s, peak_rss_mb, nmi, correct=True):
    """The standard output of one perfbench/run.py run: comment lines, then
    the result as one JSON line."""
    metrics = dict(run_s=run_s, setup_s=setup_s, peak_rss_mb=peak_rss_mb,
                   nmi=nmi, success_rate=1.0)
    result = {"correct": correct, "attempted": 5, "failed": 1 - correct,
              "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()}}
    problem = "" if correct else "# first problem: command 3: exit code 3\n"
    return problem + f"# run_s = {run_s:.6g} s\n{json.dumps(result)}\n"


def test_bench_pairs_summary(monkeypatch, capsys):
    # four canned pairs: run_s halves in each (a claim that holds), setup_s
    # ties three and loses one, peak_rss_mb loses all four beyond its bound
    outputs = {"parent": [_run_output(r, 0.1, 40.0, 0.9) for r in (1.0, 1.2, 1.1, 1.3)],
               "change": [_run_output(r, s, 50.0, 0.9) for r, s in
                          zip((0.5, 0.6, 0.55, 0.65), (0.1, 0.1, 0.2, 0.1))]}
    calls = []

    def canned(argv, cwd, **kwargs):
        option = dict(zip(argv[2::2], argv[3::2]))
        calls.append((cwd.name, option["--workload"], option["--seed"],
                      option["--seconds"]))
        stdout = outputs[cwd.name][int(option["--seed"]) - 1]
        return subprocess.CompletedProcess(argv, 0, stdout, "")

    main = runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"))["main"]
    monkeypatch.setitem(main.__globals__, "subprocess", SimpleNamespace(run=canned))
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "parent", "change",
                                      "--workload", "w", "--pairs", "4"])
    assert main() == 0
    # the side that runs first alternates, parent first in pair 1
    assert [c[0] for c in calls] == ["parent", "change", "change", "parent"] * 2
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert {c[1:] for c in calls[:2]} == {("w", "1", str(seconds))}
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("pair 1 (parent first): run_s 1 -> 0.5, setup_s 0.1 -> 0.1, "
                      "peak_rss_mb 40 -> 50, nmi 0.9 -> 0.9, success_rate 1 -> 1")
    assert out[1].startswith("pair 2 (change first): run_s 1.2 -> 0.6,")
    assert out[4:] == [
        "run_s: parent 1.15 [1.075, 1.225], change 0.575 [0.5375, 0.6125] s; "
        "4 won, 0 lost, 0 tied; median -50.0% (bound 25%); claim holds",
        "setup_s: parent 0.1 [0.1, 0.1], change 0.1 [0.1, 0.125] s; "
        "0 won, 1 lost, 3 tied; median +0.0% (bound 25%); claim does not hold",
        "peak_rss_mb: parent 40 [40, 40], change 50 [50, 50] MB; "
        "0 won, 4 lost, 0 tied; median +25.0% (bound 10%, beyond it); "
        "claim does not hold",
        "nmi: parent 0.9 [0.9, 0.9], change 0.9 [0.9, 0.9] ratio; "
        "0 won, 0 lost, 4 tied; median +0.0% (bound 25%); claim does not hold",
        "success_rate: parent 1 [1, 1], change 1 [1, 1] ratio; "
        "0 won, 0 lost, 4 tied; median +0.0% (bound 1%); claim does not hold"]

    # a result that is not correct ends the comparison before any summary
    outputs["change"][1] = _run_output(0.6, 0.1, 50.0, 0.9, correct=False)
    assert main() == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == ["pair 2: change not correct: command 3: exit code 3"]
    assert calls[-1][:3] == ("change", "w", "2")  # the parent's pair 2 never ran


def test_bench_pairs_marks_a_wide_parent_spread(monkeypatch, capsys):
    # setup_s's parent quartiles span 39% of its median, beyond the 25%
    # bound: unresolved while the runs overlap, resolved once every change
    # run beats every parent run; the other metrics keep their lines
    parent_setup = (0.08, 0.10, 0.14, 0.06)  # quartiles [0.075, 0.11], median 0.09
    change_setup = {"overlap": (0.09, 0.07, 0.12, 0.08), "apart": (0.05, 0.04, 0.05, 0.03)}
    seen = {}

    def canned(argv, cwd, **kwargs):
        option = dict(zip(argv[2::2], argv[3::2]))
        setups = parent_setup if cwd.name == "parent" else change_setup[seen["case"]]
        stdout = _run_output(1.0, setups[int(option["--seed"]) - 1], 40.0, 0.9)
        return subprocess.CompletedProcess(argv, 0, stdout, "")

    main = runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"))["main"]
    monkeypatch.setitem(main.__globals__, "subprocess", SimpleNamespace(run=canned))
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "parent", "change",
                                      "--workload", "w", "--pairs", "4"])
    for case, verdict in (
            ("overlap", "does not hold; unresolved (parent spread 39% > bound)"),
            ("apart", "holds; parent spread 39% > bound, but every change run "
                      "beats every parent run")):
        seen["case"] = case
        assert main() == 0
        out = capsys.readouterr().out.splitlines()
        assert out[5].startswith("setup_s: parent 0.09 [0.075, 0.11], change ")
        assert out[5].endswith(f"claim {verdict}"), out[5]
        assert out[4].endswith("claim does not hold")  # run_s: no spread
        assert all(line.endswith("claim does not hold") for line in out[6:])


def test_bench_pairs_summarizes_each_workload(monkeypatch, capsys):
    # two workloads of two pairs: run_s halves on "fast" and stays on "same";
    # each workload's pairs and summary follow its own header line
    run_s = {("parent", "fast"): 1.0, ("change", "fast"): 0.5,
             ("parent", "same"): 0.2, ("change", "same"): 0.2}
    calls = []

    def canned(argv, cwd, **kwargs):
        option = dict(zip(argv[2::2], argv[3::2]))
        calls.append((option["--workload"], cwd.name, option["--seed"]))
        value = run_s[cwd.name, option["--workload"]]  # None: a failed run
        stdout = _run_output(value or 1.0, 0.1, 40.0, 0.9, correct=value is not None)
        return subprocess.CompletedProcess(argv, 0, stdout, "")

    main = runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"))["main"]
    monkeypatch.setitem(main.__globals__, "subprocess", SimpleNamespace(run=canned))
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "parent", "change", "--pairs", "2",
                                      "--workload", "fast", "--workload", "same"])
    assert main() == 0
    assert calls == [("fast", "parent", "1"), ("fast", "change", "1"),
                     ("fast", "change", "2"), ("fast", "parent", "2"),
                     ("same", "parent", "1"), ("same", "change", "1"),
                     ("same", "change", "2"), ("same", "parent", "2")]
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 * (1 + 2 + 5)
    assert [out[0], out[8]] == ["workload fast", "workload same"]
    assert out[1].startswith("pair 1 (parent first): run_s 1 -> 0.5,")
    assert out[9].startswith("pair 1 (parent first): run_s 0.2 -> 0.2,")
    assert out[3].startswith("run_s: parent 1 [1, 1], change 0.5 [0.5, 0.5] s; 2 won")
    assert out[3].endswith("claim holds")
    assert out[11].startswith("run_s: parent 0.2 [0.2, 0.2], change 0.2 [0.2, 0.2] s; "
                              "0 won, 0 lost, 2 tied")
    assert out[11].endswith("claim does not hold")

    # a result that is not correct in the second workload ends the
    # comparison after the first workload's summary
    run_s["change", "same"] = None
    assert main() == 1
    out = capsys.readouterr().out.splitlines()
    assert out[8:] == ["workload same", "pair 1: change not correct: command 3: exit code 3"]

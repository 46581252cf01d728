import json
import subprocess
import sys
from pathlib import Path

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

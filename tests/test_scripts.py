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

#!/usr/bin/env python3
"""Check every recorded artifact digest of the benchmark workloads.

For each workload and each seed in perfbench/reference_digests.json, write
the seed's planted-cluster CSV, run the workload's command in this process
through `binnnms.cli.main`, and compare the digests of the files it wrote
with the recorded ones. Exits 1, listing each mismatch with every artifact
that differs, if any differs, and 2, listing the known workloads, if a named
workload has no digests.

    python3 scripts/check_digests.py [WORKLOAD ...]
"""

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from binnnms.cli import main as cli_main  # noqa: E402
from checks import REFERENCE, artifact_digests  # noqa: E402
from workloads import WORKLOADS, write_planted_csv  # noqa: E402


def differences(expected: dict, got: dict) -> str:
    """Every artifact whose digest differs, in name order, or ""."""
    return "; ".join(f"{name}: expected {expected.get(name, 'no file')}, "
                     f"got {got.get(name, 'no file')}"
                     for name in sorted(set(expected) | set(got))
                     if expected.get(name) != got.get(name))


def main() -> int:
    table = json.loads(REFERENCE.read_text())
    names = sys.argv[1:] or sorted(table)
    unknown = [name for name in names if name not in table]
    if unknown:
        print(f"unknown workload {', '.join(unknown)}; known workloads: "
              f"{', '.join(sorted(table))}", file=sys.stderr)
        return 2
    mismatches = checked = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in names:
            w = WORKLOADS[name]
            for seed in sorted(table[name], key=int):
                data, out = work / "data.csv", work / "out"
                shutil.rmtree(out, ignore_errors=True)
                write_planted_csv(data, w.shape, int(seed))
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    rc = cli_main(w.command(data, out))
                diff = (f"exit {rc}: {err.getvalue().strip()}" if rc else
                        differences(table[name][seed], artifact_digests(out)))
                checked += 1
                if diff:
                    mismatches += 1
                    print(f"MISMATCH {name} seed {seed}: {diff}")
            print(f"{name}: {len(table[name])} seeds checked", flush=True)
    print(f"{checked - mismatches} of {checked} match")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())

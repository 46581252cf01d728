"""Record reference artifact digests for seeds FIRST..LAST of each workload.

Run it from the root of a checkout of the commit whose outputs are the
reference (the digests in reference_digests.json were recorded at the seed
commit, before any optimisation):

    python3 perfbench/record_reference.py FIRST LAST [WORKLOAD ...]

Each command runs in a fresh process, exactly as the benchmark's fresh run
does. New digests are merged into the existing table; a seed already in the
table whose digests differ is an error, never overwritten.
"""

from __future__ import annotations

import json
import shutil
import sys

from checks import REFERENCE, artifact_digests
from run import WORK, run_fresh
from workloads import WORKLOADS, write_planted_csv


def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    names = sys.argv[3:] or list(WORKLOADS)
    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    work = WORK / "record"
    for seed in range(first, last + 1):
        for w in map(WORKLOADS.get, names):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            data = work / "data.csv"
            write_planted_csv(data, w.shape, seed)
            rc, err = run_fresh(w.command(data, work / "out"))
            if rc != 0:
                print(f"{w.name} seed {seed}: exit {rc}: {err}", file=sys.stderr)
                return 1
            digests = artifact_digests(work / "out")
            known = table.setdefault(w.name, {}).get(str(seed))
            if known is not None and known != digests:
                print(f"{w.name} seed {seed}: digests differ from the table",
                      file=sys.stderr)
                return 1
            table[w.name][str(seed)] = digests
        REFERENCE.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
        print(f"seed {seed} recorded", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

import importlib.util
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "data" / "raw"


def uci_path(filename: str) -> Path:
    return DATA_DIR / filename


def trajectories(ascent, x0):
    """Per candidate row of x0, (its iterates x_0 .. x_J as lists, its
    termination name), rebuilt from the round matrices of the `BatchAscent`
    that `ascend_bits` returned for x0: the pair `oracles.ascend_ref` gives."""
    its = [[row] for row in np.asarray(x0).tolist()]
    for ids, bits in ascent.rounds:
        for c, row in zip(ids.tolist(), bits.tolist()):
            its[c].append(row)
    return [(it, "max_iterations" if stop else "fixed_point")
            for it, stop in zip(its, ascent.at_j_max.tolist())]


def perfbench_workloads():
    """The benchmark's `workloads` module, loaded from its file."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def planted_bits(n, d, centres, flip, seed):
    """(bits, labels, centre rows): `centres` planted clusters of n points
    in d bits, each bit of a point flipped with probability `flip`. The
    stream is that of `perfbench/workloads.planted_bits`, so the tests see
    the benchmark's data."""
    rng = np.random.default_rng([seed, n, d, centres])
    centre_rows = (rng.random((centres, d)) < 0.5).astype(np.uint8)
    labels = np.argsort(rng.random(n), kind="stable") % centres
    flips = (rng.random((n, d)) < flip).astype(np.uint8)
    return centre_rows[labels] ^ flips, labels, centre_rows

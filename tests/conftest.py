import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "raw"


def uci_path(filename: str) -> Path:
    return DATA_DIR / filename


def trajectories(ascent, x0):
    """Per candidate row of x0, (its iterates x_0 .. x_J as lists, its
    termination name), rebuilt from the round matrices of the `BatchAscent`
    that `ascend_bits` returned for x0: the pair `oracles.ascend_ref` gives."""
    from binnnms.bga import TERMINATIONS

    its = [[row] for row in np.asarray(x0).tolist()]
    for ids, bits in ascent.rounds:
        for c, row in zip(ids.tolist(), bits.tolist()):
            its[c].append(row)
    return [(it, TERMINATIONS[e]) for it, e in zip(its, ascent.ends.tolist())]

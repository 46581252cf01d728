"""Seeded planted-cluster data and the benchmark's workload definitions.

Every workload is synthetic: the UCI files cannot be fetched, so each one
plants clusters in a UCI shape. The program only ever sees the CSV that
`write_planted_csv` produces; the workload seed reaches it through the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Shape:
    """A planted-cluster data set: n points, d bits, `centres` clusters."""

    name: str
    n: int
    d: int
    centres: int
    flip: float


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    argv: tuple[str, ...]  # subcommand and its options, without data and output
    why: str

    def command(self, data: Path, out: Path) -> list[str]:
        """The binnnms command line that runs this workload on `data`."""
        return [self.argv[0], "--data", str(data), "--label-column", "-1",
                *self.argv[1:], "--out-dir", str(out)]

    @property
    def cells(self) -> int:
        """Grid cells a sweep writes (zero for a cluster command)."""
        if self.argv[0] != "sweep":
            return 0
        k1 = self.argv[self.argv.index("--k1") + 1]
        k2 = self.argv[self.argv.index("--k2") + 1]
        return len(_int_list(k1)) * len(_int_list(k2))


def _int_list(spec: str) -> list[int]:
    """Expand the CLI's grid syntax, e.g. "0,2..30"."""
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("..")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def planted_bits(shape: Shape, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(bits, labels): each point is a copy of its centre with each bit flipped
    independently with probability `shape.flip`.

    Centres get equal shares of the points, in a seeded random order. Only
    `Generator.random` draws are used, whose stream numpy keeps stable.
    """
    rng = np.random.default_rng([seed, shape.n, shape.d, shape.centres])
    centres = (rng.random((shape.centres, shape.d)) < 0.5).astype(np.uint8)
    labels = np.argsort(rng.random(shape.n), kind="stable") % shape.centres
    flips = (rng.random((shape.n, shape.d)) < shape.flip).astype(np.uint8)
    return centres[labels] ^ flips, labels


def write_planted_csv(path: Path, shape: Shape, seed: int) -> None:
    """Write the bits with the planted label as the last column, one row per
    line; the same shape and seed give a byte-identical file."""
    bits, labels = planted_bits(shape, seed)
    lines = [",".join(map(str, row)) + f",c{lab}"
             for row, lab in zip(bits.tolist(), labels.tolist())]
    path.write_text("\n".join(lines) + "\n")


DIGITS = Shape("digits", 2000, 240, 10, 0.15)
NOISY5K = Shape("noisy5k", 5000, 64, 10, 0.20)
SPECT = Shape("spect", 267, 22, 2, 0.10)

WORKLOADS = {w.name: w for w in [
    Workload(
        "cluster-digits", DIGITS,
        ("cluster", "--k1", "20", "--k2", "5"),
        "cluster on digits shape 2000x240: wide rows converge in few steps, "
        "the step memo hits half of them; ingest is about a seventh"),
    Workload(
        "cluster-noisy5k", NOISY5K,
        ("cluster", "--k1", "20", "--k2", "5"),
        "cluster on 5000x64 with 20% flips: longer ascents over many distinct "
        "iterates, so kNN selection dominates; O(n^2) epsilon/labeling show"),
    Workload(
        "sweep-spect", SPECT,
        ("sweep", "--k1", "0,10,20,30", "--k2", "1..20"),
        "sweep of 80 (k1, k2) cells on spect shape 267x22, k1=0 included: "
        "epsilon and labeling run per cell and dominate, the ascent is light"),
    Workload(
        "kmodes-digits", DIGITS,
        ("cluster", "--algo", "kmodes", "--k", "10", "--runs", "30"),
        "k-modes with 30 restarts on the digits data: the only k-modes load; "
        "it never ascends or labels, so those changes must leave it alone"),
]}

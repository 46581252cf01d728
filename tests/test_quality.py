"""Offline quality gates for the paper's claim that BinNNMS can "discover
accurately the location of clusters", on planted-cluster data that needs no
download. The UCI gates (criteria 8-12 in test_acceptance) are unchanged.

Each shape runs seeds 0-19. BinNNMS runs at k1 = 20 and k2 = 5; k-modes
runs with the true k and 10 restarts, keeping the lowest-inertia run as the
`cluster --algo kmodes` command does. Each NMI floor sits below the minimum
over the 20 seeds measured when the gate was set, by the margin noted.
"""

import numpy as np
import pytest

from binnnms.bga import BgaConfig, ascend_bits
from binnnms.ingest import Dataset
from binnnms.kmodes import kmodes_repeated
from binnnms.labeling import epsilon_bits, label_bits
from binnnms.metrics import nmi
from conftest import perfbench_workloads, planted_bits

SEEDS = range(20)
# name: ((n, d, centres, flip), BinNNMS NMI floor, k-modes NMI floor);
# measured minima: BinNNMS 0.788 / 0.974 / 0.744, k-modes 0.912 / 1.0 / 0.986
SHAPES = {
    "spect": ((267, 22, 2, 0.10), 0.75, 0.85),  # margins 0.038, 0.062
    "digits": ((2000, 240, 10, 0.15), 0.95, 0.95),  # margins 0.024, 0.05
    "noisy600": ((600, 64, 4, 0.20), 0.70, 0.95),  # margins 0.044, 0.036
}


def test_generator_is_the_benchmark_stream():
    workloads = perfbench_workloads()
    for name, ((n, d, c, flip), _, _) in SHAPES.items():
        bits, labels, _ = planted_bits(n, d, c, flip, seed=3)
        want = workloads.planted_bits(workloads.Shape(name, n, d, c, flip), 3)
        assert np.array_equal(bits, want[0]) and np.array_equal(labels, want[1])


@pytest.mark.parametrize("shape", SHAPES)
def test_binnnms_finds_every_planted_centre(shape):
    (n, d, c, flip), floor, _ = SHAPES[shape]
    worst = 1.0
    for seed in SEEDS:
        bits, labels, centres = planted_bits(n, d, c, flip, seed)
        data = Dataset(bits)
        endpoints = ascend_bits(data, data.bits, BgaConfig(k1=20)).endpoints
        lab = label_bits(endpoints, epsilon_bits(endpoints, 5))
        # the prototypes of the c largest clusters hold every planted centre
        largest = np.argsort(-np.bincount(lab.labels), kind="stable")[:c]
        found = {tuple(row) for row in lab.prototypes[largest].tolist()}
        planted = {tuple(row) for row in centres.tolist()}
        assert planted <= found, f"seed {seed}"
        worst = min(worst, nmi(labels.tolist(), lab.labels.tolist()))
    assert worst >= floor


@pytest.mark.parametrize("shape", SHAPES)
def test_kmodes_with_true_k(shape):
    (n, d, c, flip), _, floor = SHAPES[shape]
    worst = 1.0
    for seed in SEEDS:
        bits, labels, _ = planted_bits(n, d, c, flip, seed)
        runs = kmodes_repeated(Dataset(bits), c, 10, base_seed=0)
        best = min(runs, key=lambda r: (r.total_inertia, r.seed))
        worst = min(worst, nmi(labels.tolist(), best.labels.tolist()))
    assert worst >= floor

"""End-to-end behavior on synthetic data with known cluster structure."""

import numpy as np
import pytest

from binnnms.bga import ascend_bits
from binnnms.ingest import Dataset
from binnnms.kmodes import kmodes_run
from binnnms.labeling import Endpoints
from binnnms.metrics import arand, nmi, quantization_error


def make_blobs(num_clusters=5, per_cluster=30, d=40, flips=3, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.integers(0, 2, size=(num_clusters, d))
    rows, labels = [], []
    for c in range(num_clusters):
        for _ in range(per_cluster):
            row = centers[c].copy()
            row[rng.choice(d, size=flips, replace=False)] ^= 1
            rows.append(row)
            labels.append(c)
    return Dataset(np.array(rows), truth_labels=labels), centers


class TestBinnnmsPipeline:
    def test_recovers_well_separated_clusters(self):
        data, centers = make_blobs()
        endpoints = ascend_bits(data, data.bits, 20).endpoints
        ends = Endpoints(endpoints, [5])
        lab = ends.labeling(ends.epsilon(5)[1])
        assert lab.num_clusters == 5
        assert nmi(data.truth_labels, list(lab.labels)) == pytest.approx(1.0)
        assert arand(data.truth_labels, list(lab.labels)) == pytest.approx(1.0)
        # modes land on the true centers, so the prototypes match them
        proto_set = {tuple(p) for p in lab.prototypes.tolist()}
        center_set = {tuple(c) for c in centers.tolist()}
        assert proto_set == center_set

    def test_quantization_error_decreases_along_ascent(self):
        data, _ = make_blobs(seed=3)
        endpoints = ascend_bits(data, data.bits, 20).endpoints
        ends = Endpoints(endpoints, [5])
        lab = ends.labeling(ends.epsilon(5)[1])
        final = quantization_error(data, lab.labels, lab.prototypes)
        # initial error: points against the same prototypes before any ascent
        initial = float(np.mean([
            (data.bits[i] != lab.prototypes[lab.labels[i]]).sum()
            for i in range(data.n)]))
        assert final == initial  # error is measured on the fixed data points
        assert final <= 3.0  # at most the planted flip count on average

    def test_kmodes_on_blobs(self):
        data, _ = make_blobs(seed=5)
        best = min((kmodes_run(data, 5, seed=s) for s in range(5)),
                   key=lambda r: r.total_inertia)
        assert nmi(data.truth_labels, list(best.labels)) >= 0.8

    def test_imbalanced_data_collapses_to_single_cluster(self):
        # with a heavily dominant class and k1 spanning the data, every
        # ascent ends at the dominant mode (the Car failure mode)
        rng = np.random.default_rng(7)
        d = 30
        major = np.zeros(d, int)
        minor = np.ones(d, int)
        rows = []
        for base, count in ((major, 45), (minor, 5)):
            for _ in range(count):
                row = base.copy()
                row[rng.choice(d, size=2, replace=False)] ^= 1
                rows.append(row)
        data = Dataset(np.array(rows))
        endpoints = ascend_bits(data, data.bits, data.n).endpoints
        ends = Endpoints(endpoints, [3])
        lab = ends.labeling(ends.epsilon(3)[1])
        assert lab.single_cluster

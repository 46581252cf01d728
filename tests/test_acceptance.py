"""Acceptance gate: one test per criterion, one pass/fail line each.

Criteria 1-7 are self-contained property suites. Criteria 8-12 need the UCI
datasets under data/raw/ (scripts/fetch_datasets.py); they skip with an
explicit message when the files are absent. Criterion 11 also runs offline,
on the car bits rebuilt from the schema. Criterion 13 runs `cluster` and
`sweep` end to end and checks their artifacts against the oracles composed.
"""

import csv
import json
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from binnnms.bga import ascend_bits
from binnnms.binvec import BinaryVector, hamming_topk, pack_bits
from binnnms.cli import main
from binnnms.ingest import (
    CAR_VOCABS,
    ZOO_FEATURES,
    ZOO_LEGS_VALUES,
    Dataset,
    car_schema,
    encode_rows,
    load_uci,
)
from binnnms.kde import aa_kernel, kde_estimate, kde_gradient
from binnnms.kmodes import kmodes_repeated, kmodes_run
from binnnms.labeling import Endpoints
from binnnms.median import majority_bits
from binnnms.metrics import arand, label_codes, nmi
from conftest import uci_path
from oracles import (
    arand_ref,
    ascend_ref,
    epsilon_ref,
    hamming_ref,
    knn_ref,
    majority_ref,
    nmi_ref,
    partition_of_labels,
    partition_ref,
    step_ref,
)


def report(criterion: str, ok: bool = True):
    print(f"{'PASS' if ok else 'FAIL'}: {criterion}")
    assert ok


# --- property suites (no external data) -------------------------------------

def test_c1_median_optimality():
    """1. majority_bits beats every candidate in {0,1}^d on 500 datasets."""
    rng = np.random.default_rng(1)
    for _ in range(500):
        n, d = int(rng.integers(1, 13)), int(rng.integers(1, 11))
        rows = rng.integers(0, 2, size=(n, d))
        weights = rng.uniform(0.1, 5.0, size=n)
        center = majority_bits(rows, weights)
        center_val = weights @ (rows != center).sum(axis=1)
        cands = np.array(list(product((0, 1), repeat=d)), dtype=np.uint8)
        # exhaustive inertia of every candidate, computed independently
        all_vals = weights @ (rows[:, None, :] != cands[None, :, :]).sum(axis=2)
        assert center_val <= all_vals.min() + 1e-9
    report("criterion 1: median optimality (500 exhaustive instances)")


def test_c2_knn_oracle():
    """2. Exact kNN, one hamming_topk call, equals full-sort brute force on
    500 instances."""
    rng = np.random.default_rng(2)
    for trial in range(500):
        n, d = int(rng.integers(1, 201)), int(rng.integers(1, 65))
        rows = rng.integers(0, 2, size=(n, d))
        # every third trial duplicates rows to force boundary ties
        if trial % 3 == 0 and n > 1:
            rows[n // 2] = rows[0]
        q = rng.integers(0, 2, size=d)
        k = int(rng.integers(1, n + 1))
        idx, _ = hamming_topk(pack_bits(q[None]), pack_bits(rows), k)
        assert idx[0].tolist() == knn_ref(rows.tolist(), q.tolist(), k)
    report("criterion 2: kNN matches full-sort oracle (500 instances)")


def test_c3_bga_step_oracle():
    """3. One BGA step equals the sort/take-k1/majority brute force."""
    rng = np.random.default_rng(3)
    for _ in range(500):
        n, d = int(rng.integers(1, 40)), int(rng.integers(1, 20))
        rows = rng.integers(0, 2, size=(n, d))
        x = rng.integers(0, 2, size=d)
        k1 = int(rng.integers(1, n + 1))
        got = ascend_bits(Dataset(rows), x[None], k1, j_max=1).endpoints[0]
        assert got.tolist() == step_ref(rows.tolist(), x.tolist(), k1)
    report("criterion 3: BGA step matches brute-force oracle (500 instances)")


def test_c4_labeling_oracle():
    """4. Endpoints.labeling partition equals union-find connected components."""
    rng = np.random.default_rng(4)
    for trial in range(120):
        m = int(rng.integers(1, 301)) if trial % 4 == 0 else int(rng.integers(1, 60))
        d = int(rng.integers(2, 16))
        rows = rng.integers(0, 2, size=(m, d)).tolist()
        eps = float(rng.uniform(0, d + 1))
        lab = Endpoints(np.array(rows)).labeling(eps)
        assert partition_of_labels(list(lab.labels)) == partition_ref(rows, eps)
    report("criterion 4: labeling equals union-find components (random eps)")


def test_c5_kde_normalization_and_gradient():
    """5. KDE sums to 1 over {0,1}^d; gradient matches the per-term identity."""
    rng = np.random.default_rng(5)
    lambdas = [0.5 + 0.1 * i for i in range(5)] + [0.99]
    for d in (2, 5, 8, 12):
        ds = Dataset(rng.integers(0, 2, size=(6, d)))
        for lam in lambdas:
            total = sum(kde_estimate(ds, BinaryVector(list(x)), lam)
                        for x in product((0, 1), repeat=d))
            assert abs(total - 1.0) <= 1e-12
    for _ in range(200):
        d = int(rng.integers(1, 12))
        lam = float(rng.uniform(0.51, 0.99))
        rows = rng.integers(0, 2, size=(int(rng.integers(1, 10)), d))
        x = rng.integers(0, 2, size=d)
        expect = np.zeros(d)
        for row in rows:
            expect += 2.0 * (row - x) * np.log(lam / (1 - lam)) \
                * aa_kernel(x - row, lam)
        expect /= len(rows)
        got = kde_gradient(Dataset(rows), BinaryVector(x), lam)
        assert np.max(np.abs(got - expect)) <= 1e-12
    report("criterion 5: KDE normalization within 1e-12 and per-term gradient identity")


def test_c6_metric_oracles():
    """6. nmi/arand match contingency/pair-counting oracles on 1000 pairs."""
    rng = np.random.default_rng(6)
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        t = rng.integers(0, rng.integers(1, 6) + 1, size=n).tolist()
        p = rng.integers(0, rng.integers(1, 6) + 1, size=n).tolist()
        assert abs(nmi(t, p) - nmi_ref(t, p)) <= 1e-12
        assert abs(arand(t, p) - arand_ref(t, p)) <= 1e-12
        perm = rng.permutation(7).tolist()
        relabeled = [perm[x] for x in p]
        assert nmi(t, p) == nmi(t, relabeled)
        assert arand(t, p) == arand(t, relabeled)
    report("criterion 6: metrics match oracles within 1e-12, relabeling exact")


def test_c7_kmodes_descent():
    """7. inertia nonincreasing; termination before the cap in >= 95% of runs."""
    rng = np.random.default_rng(7)
    early = 0
    for seed in range(100):
        n, d = int(rng.integers(10, 60)), int(rng.integers(4, 16))
        ds = Dataset(rng.integers(0, 2, size=(n, d)))
        k = int(rng.integers(2, 7))
        k = min(k, len(np.unique(ds.bits, axis=0)))
        res = kmodes_run(ds, k, seed=seed, max_iter=100)
        hist = res.inertia_history
        assert all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))
        early += res.iterations < 100
    assert early >= 95
    report(f"criterion 7: k-modes monotone descent, {early}/100 converged early")


# --- paper-number reproductions (fetched UCI data) --------------------------

def _require(*filenames):
    missing = [f for f in filenames if not uci_path(f).exists()]
    if missing:
        pytest.skip(f"UCI data not fetched: {missing} "
                    "(run scripts/fetch_datasets.py)")


def _binnnms_labeling(data, k1, k2, j_max=50, endpoints_cache={}):
    # keyed by the dataset itself (datasets hash by identity): the cache
    # keeps it alive, so a later dataset cannot take its id
    key = (data, k1, j_max)
    if key not in endpoints_cache:
        ascent = ascend_bits(data, data.bits, k1, j_max)
        endpoints_cache[key] = ascent.endpoints
    endpoints = endpoints_cache[key]
    ends = Endpoints(endpoints, [k2])
    return ends.labeling(ends.epsilon(k2)[1])


def _binnnms_scores(data, k1, k2, j_max=50):
    lab = _binnnms_labeling(data, k1, k2, j_max)
    return (nmi(data.truth_labels, list(lab.labels)),
            arand(data.truth_labels, list(lab.labels)), lab)


def test_c8_zoo_sweep():
    """8. Zoo best cell over k1 in 2..30, k2 in 1..20: NMI>=0.90, ARAND>=0.85."""
    _require("zoo.data")
    data = load_uci("zoo", uci_path("zoo.data"))
    best_nmi = best_ar = -1.0
    for k1 in range(2, 31):
        for k2 in range(1, 21):
            s_nmi, s_ar, _ = _binnnms_scores(data, k1, k2)
            best_nmi, best_ar = max(best_nmi, s_nmi), max(best_ar, s_ar)
    assert best_nmi >= 0.90
    assert best_ar >= 0.85
    report(f"criterion 8: zoo sweep best NMI={best_nmi:.3f}, ARAND={best_ar:.3f}")


def test_c9_zoo_kmodes():
    """9. Zoo k-modes, k=8, 10 runs: mean NMI in [0.70, 0.87]."""
    _require("zoo.data")
    data = load_uci("zoo", uci_path("zoo.data"))
    runs = kmodes_repeated(data, 8, runs=10, base_seed=0)
    vals = [nmi(data.truth_labels, list(r.labels)) for r in runs]
    mean = float(np.mean(vals))
    assert 0.70 <= mean <= 0.87
    report(f"criterion 9: zoo k-modes mean NMI={mean:.3f} (std {np.std(vals, ddof=1):.3f})")


def test_c10_digits_sweep():
    """10. Digits coarse sweep: best-cell NMI>=0.80 and ARAND>=0.80."""
    _require("mfeat-pix")
    data = load_uci("digits", uci_path("mfeat-pix"))
    best_nmi = best_ar = -1.0
    for k1 in (5, 10, 20, 40, 60, 80):
        for k2 in (2, 5, 10, 20):
            s_nmi, s_ar, _ = _binnnms_scores(data, k1, k2)
            best_nmi, best_ar = max(best_nmi, s_nmi), max(best_ar, s_ar)
    assert best_nmi >= 0.80
    assert best_ar >= 0.80
    report(f"criterion 10: digits best NMI={best_nmi:.3f}, ARAND={best_ar:.3f}")


def test_c11_car_single_cluster():
    """11. Car collapses to one cluster for moderate k1."""
    _require("car.data")
    data = load_uci("car", uci_path("car.data"))
    collapsed = []
    for k1 in (10, 20, 40, 80):
        _, _, lab = _binnnms_scores(data, k1, 5)
        collapsed.append(lab.single_cluster)
    assert any(collapsed)
    report(f"criterion 11: car single-cluster flags {collapsed} for k1 in (10,20,40,80)")


def test_c11_car_single_cluster_offline():
    """11, offline. Car Evaluation holds every combination of its six
    attributes exactly once, so its 1728 rows are rebuilt from the schema
    vocabularies, with no download; only the class labels need the file.
    The rows come in product order, which cannot be checked against the file
    here; reversing them gave the same cluster counts. At k1 = 10, 20 and 80
    no row moves, and epsilon = 2 (one attribute apart) connects the grid."""
    rows = [list(row) for row in product(*CAR_VOCABS.values())]
    bits, _ = encode_rows(rows, car_schema())
    data = Dataset(bits, name="car")
    collapsed = []
    for k1 in (10, 20, 40, 80):
        lab = _binnnms_labeling(data, k1, 5)
        collapsed.append(lab.single_cluster)
    assert any(collapsed)
    assert collapsed == [True, True, False, True]
    report(f"criterion 11 (offline): car single-cluster flags {collapsed} "
           "for k1 in (10,20,40,80)")


def test_c12_zoo_error_trajectories():
    """12. Zoo quantization-error curves: final <= initial for every k1."""
    _require("zoo.data")
    from binnnms.cli import _trajectory_errors

    data = load_uci("zoo", uci_path("zoo.data"))
    cidx = label_codes(data.truth_labels)[0]
    for k1 in (3, 6, 10, 20):
        ascent = ascend_bits(data, data.bits, k1)
        rows = _trajectory_errors(data, cidx, ascent.rounds)
        assert len(rows) >= 2  # curve emitted per iteration
        assert rows[-1]["error_vs_target"] <= rows[0]["error_vs_target"]
        assert rows[-1]["error_vs_intermediate"] <= rows[0]["error_vs_intermediate"]
    report("criterion 12: zoo error trajectories decrease final vs initial")


# --- the helpers of criteria 8-12, offline ------------------------------------

def _raw_uci_lines(name: str, rng) -> list[str]:
    """Eight lines of a made-up raw file in the layout of UCI `name`."""
    def pick(values):
        return str(values[int(rng.integers(len(values)))])

    lines = []
    for i in range(8):
        label = f"c{i % 3}"
        if name == "zoo":
            feats = [pick(ZOO_LEGS_VALUES) if f == "legs" else pick("01")
                     for f in ZOO_FEATURES]
            lines.append(",".join([f"animal{i}", *feats, str(i % 3 + 1)]))
        elif name == "digits":
            lines.append(" ".join(pick(range(7)) for _ in range(240)))
        elif name == "spect":
            lines.append(",".join([pick("01")] + [pick("01") for _ in range(22)]))
        elif name == "soybean":
            lines.append(",".join([label] + [pick(["0", "1", "2", "?"]) for _ in range(35)]))
        else:  # car
            lines.append(",".join([pick(v) for v in CAR_VOCABS.values()] + [label]))
    return lines


@pytest.mark.parametrize("name", ["zoo", "digits", "spect", "soybean", "car"])
def test_uci_helpers_run_offline(tmp_path, name):
    """Criteria 8-12 skip without data/raw/, so a changed helper signature
    would go unnoticed there: run each helper they call once, on a tiny
    made-up file in each UCI layout. No quality number is checked."""
    raw = tmp_path / f"{name}.data"
    raw.write_text("\n".join(_raw_uci_lines(name, np.random.default_rng(0))) + "\n")
    data = load_uci(name, raw)
    assert data.n == 8 and len(data.truth_labels) == 8

    s_nmi, s_ar, lab = _binnnms_scores(data, 3, 2)  # C8, C10, C11
    assert len(lab.labels) == data.n and isinstance(lab.single_cluster, bool)
    assert np.isfinite([s_nmi, s_ar]).all()

    runs = kmodes_repeated(data, 2, runs=2, base_seed=0)  # C9
    assert np.isfinite([nmi(data.truth_labels, list(r.labels)) for r in runs]).all()

    from binnnms.cli import _trajectory_errors  # C12

    ascent = ascend_bits(data, data.bits, 3)
    rows = _trajectory_errors(data, label_codes(data.truth_labels)[0], ascent.rounds)
    assert len(rows) == len(ascent.rounds) + 1


# --- criterion 13: `cluster` and `sweep` end to end ---------------------------

@st.composite
def _tie_heavy_runs(draw):
    """(rows, truth labels, k1, k2, j_max, epsilon mode): 2 to 6 distinct
    rows of few bits, some repeated, in any order, so that kNN and vote ties
    are common and epsilon mostly reaches 1 (the labeling then merges); k1 may
    be 0 (no ascent) and is often even or n, and j_max small enough to stop
    some ascents."""
    d = draw(st.one_of(st.integers(1, 4), st.integers(1, 12)))
    distinct = draw(st.lists(st.lists(st.integers(0, 1), min_size=d, max_size=d),
                             min_size=2, max_size=6, unique_by=tuple))
    copies = draw(st.lists(st.sampled_from(distinct), max_size=5))
    rows = draw(st.permutations(distinct + copies))
    n = len(rows)
    truth = [draw(st.sampled_from("ab")) for _ in range(n)]
    k1 = min(n, draw(st.sampled_from([2, 4]) | st.integers(0, n) | st.just(n)))
    k2 = draw(st.integers(1, n - 1) | st.just(n - 1))
    return (rows, truth, k1, k2, draw(st.integers(1, 3)),
            draw(st.sampled_from(["mean_all", "kth_only"])))


def _endpoints_ref(rows, k1, j_max):
    """Each row's last iterate under `ascend_ref`; the rows when k1 == 0."""
    return rows if k1 == 0 else [ascend_ref(rows, row, k1, j_max)[0][-1] for row in rows]


def _labeling_ref(rows, ends, k2, mode):
    """(epsilon, labels, prototypes, quantization error) of the endpoints:
    the mean of `epsilon_ref` (in floats, as the labeling tests take it),
    the components of `partition_ref` at the exact floor of that mean (the
    float can land one ulp below an integer) numbered by first appearance,
    each one's `majority_ref` with ties to 0, and the mean distance from
    each row to its cluster's prototype."""
    per_point = epsilon_ref(ends, k2, mode)
    eps = float(np.mean(per_point))
    scale = 1 if mode == "kth_only" else k2  # each scaled value is an integer
    floor = sum(round(v * scale) for v in per_point) // (scale * len(ends))
    comp = {i: group for group in partition_ref(ends, floor) for i in group}
    order = list(dict.fromkeys(comp[i] for i in range(len(ends))))
    labels = [order.index(comp[i]) for i in range(len(ends))]
    protos = [majority_ref([ends[i] for i in sorted(group)]) for group in order]
    qe = sum(hamming_ref(row, protos[lab]) for row, lab in zip(rows, labels)) / len(rows)
    return eps, labels, protos, qe


def _run(tmp_path, command, rows, truth, *options):
    data = tmp_path / "rows.csv"
    data.write_text("".join(",".join(map(str, row)) + f",{t}\n" for row, t in zip(rows, truth)))
    out = tmp_path / "out"
    assert main([command, "--data", str(data), "--label-column", "-1", *options,
                 "--out-dir", str(out)]) == 0
    return out


_C13 = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@settings(_C13, max_examples=200)
@given(_tie_heavy_runs())
def test_c13_cluster_matches_composed_oracles(tmp_path, case):
    """13. `cluster` writes the labels, prototypes, epsilon, cluster count
    and quantization error of the oracles composed in pipeline order."""
    rows, truth, k1, k2, j_max, mode = case
    out = _run(tmp_path, "cluster", rows, truth, "--k1", str(k1), "--k2", str(k2),
               "--jmax", str(j_max), "--epsilon-mode", mode)
    eps, labels, protos, qe = _labeling_ref(rows, _endpoints_ref(rows, k1, j_max), k2, mode)
    assert (out / "labels.csv").read_text() == "index,label\n" + "".join(
        f"{i},{lab}\n" for i, lab in enumerate(labels))
    assert (out / "prototypes.txt").read_text() == "".join(
        " ".join(map(str, p)) + "\n" for p in protos)
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["epsilon"] == eps
    assert metrics["num_clusters"] == len(protos)
    assert metrics["quantization_error"] == pytest.approx(qe, rel=1e-12)


@settings(_C13, max_examples=100)
@given(_tie_heavy_runs())
def test_c13_sweep_matches_composed_oracles(tmp_path, case):
    """13. `sweep.csv` over k1 = 0 (no ascent), a valid k1 and k1 = n + 1
    (its whole column fails), and k2 valid, 0 and n (those cells fail)."""
    rows, truth, k1, k2, j_max, mode = case
    n = len(rows)
    k1s, k2s = [0, k1, n + 1], [k2, 0, n]
    out = _run(tmp_path, "sweep", rows, truth, "--k1", ",".join(map(str, k1s)),
               "--k2", ",".join(map(str, k2s)), "--jmax", str(j_max), "--epsilon-mode", mode)
    with (out / "sweep.csv").open(newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["k1", "k2", "epsilon", "num_clusters", "nmi", "arand",
                      "quant_error_final", "status"]
    want = []
    for a in k1s:
        ends = None if a > n else _endpoints_ref(rows, a, j_max)
        for b in k2s:
            if ends is None:
                want.append([a, b, f"error: k1 must be in [0, {n}], got {a}"])
            elif b < 1:
                want.append([a, b, "error: k2 must be positive"])
            elif b >= n:
                want.append([a, b, f"error: k2 must be at most m-1 = {n - 1}, got {b}"])
            else:
                eps, labels, protos, qe = _labeling_ref(rows, ends, b, mode)
                want.append([a, b, eps, len(protos), nmi_ref(truth, labels),
                             arand_ref(truth, labels), qe, "ok"])
    assert len(got) == 1 + len(want)
    for row, ref in zip(got[1:], want):
        assert [int(row[0]), int(row[1]), row[-1]] == [ref[0], ref[1], ref[-1]], row
        if ref[-1] != "ok":
            assert row[2:-1] == [""] * 5, row
            continue
        assert (float(row[2]), int(row[3])) == (ref[2], ref[3]), row
        assert [float(x) for x in row[4:7]] == pytest.approx(ref[4:7], rel=1e-9, abs=1e-9), row

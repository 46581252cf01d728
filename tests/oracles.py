"""Independent brute-force references used to check the library.

Everything here works on plain Python lists and avoids the library's packed
representations and algorithms on purpose; `kmodes_ref` uses numpy only to
draw the same seeded initial prototypes as the library.
"""

import math
from collections import Counter
from itertools import chain, combinations, product
from pathlib import Path


def hamming_ref(a, b):
    assert len(a) == len(b)
    return sum(1 for x, y in zip(a, b) if x != y)


def all_vectors(d):
    return [list(v) for v in product((0, 1), repeat=d)]


def inertia_ref(points, weights, x):
    return sum(w * hamming_ref(p, x) for p, w in zip(points, weights))


def best_center_ref(points, weights):
    """Exhaustive minimum-inertia vector over all of {0,1}^d."""
    best, best_val = None, None
    for cand in all_vectors(len(points[0])):
        val = inertia_ref(points, weights, cand)
        if best_val is None or val < best_val:
            best, best_val = cand, val
    return best, best_val


def knn_ref(rows, q, k):
    """Full sort by (distance, index), take k."""
    order = sorted(range(len(rows)), key=lambda i: (hamming_ref(rows[i], q), i))
    return order[:k]


def majority_ref(rows, tie_bits=None):
    d = len(rows[0])
    out = []
    for j in range(d):
        ones = sum(r[j] for r in rows)
        zeros = len(rows) - ones
        if ones > zeros:
            out.append(1)
        elif ones < zeros:
            out.append(0)
        else:
            out.append(tie_bits[j] if tie_bits is not None else 0)
    return out


def step_ref(rows, x, k1):
    """Sort all distances, take k1 with index tie-break, majority with
    current-iterate tie-break."""
    neigh = [rows[i] for i in knn_ref(rows, x, k1)]
    return majority_ref(neigh, tie_bits=x)


def ascend_ref(rows, x0, k1, j_max):
    """(iterates, termination) of one ascent by repeated step_ref: stop at a
    fixed point, then a 2-cycle (x_{j+1} == x_{j-1}), then j_max steps."""
    its = [list(x0)]
    for _ in range(j_max):
        its.append(step_ref(rows, its[-1], k1))
        if its[-1] == its[-2]:
            return its, "fixed_point"
        if len(its) >= 3 and its[-1] == its[-3]:
            return its, "cycle"
    return its, "max_iterations"


def epsilon_ref(points, k2, mode):
    """Per point: sort its distances to every other point, keep the k2
    smallest, take their mean (mean_all) or the largest (kth_only)."""
    per_point = []
    for i, p in enumerate(points):
        dist = sorted(hamming_ref(p, q) for j, q in enumerate(points) if j != i)
        smallest = dist[:k2]
        per_point.append(smallest[-1] if mode == "kth_only"
                         else sum(smallest) / k2)
    return per_point


def kmodes_ref(rows, k, seed, max_iter):
    """One k-modes run updating one cluster at a time, as (labels,
    prototypes, total inertia, iterations, inertia history, reseeds).

    The initial prototypes are k of the distinct rows (in np.unique order)
    drawn by np.random.default_rng(seed).choice without replacement. An
    assignment tie goes to the lowest cluster, a vote tie keeps the old bit,
    and an empty cluster is reseeded with the first row farthest from its
    prototype.
    """
    import numpy as np

    distinct = np.unique(np.array(rows, dtype=np.uint8), axis=0)
    pick = np.random.default_rng(seed).choice(len(distinct), size=k, replace=False)
    proto = distinct[pick].tolist()
    n = len(rows)
    labels, history, reseeds = [-1] * n, [], 0
    for iterations in range(1, max_iter + 1):
        dist = [[hamming_ref(r, p) for p in proto] for r in rows]
        new = [min(range(k), key=lambda j: (d[j], j)) for d in dist]
        history.append(float(sum(d[j] for d, j in zip(dist, new))))
        if new == labels:
            break
        labels = new
        for j in range(k):
            members = [r for r, lab in zip(rows, labels) if lab == j]
            if members:
                proto[j] = majority_ref(members, tie_bits=proto[j])
            else:
                far = max(range(n), key=lambda i: (hamming_ref(rows[i], proto[j]), -i))
                proto[j] = list(rows[far])
                reseeds += 1
    total = float(sum(hamming_ref(r, proto[lab]) for r, lab in zip(rows, labels)))
    return labels, proto, total, iterations, history, reseeds


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        self.parent[self.find(i)] = self.find(j)


def partition_ref(points, epsilon):
    """Connected components via union-find over all pairs with H <= epsilon,
    returned as a frozenset of frozensets of point indices."""
    uf = UnionFind(len(points))
    for i, j in combinations(range(len(points)), 2):
        if hamming_ref(points[i], points[j]) <= epsilon:
            uf.union(i, j)
    groups = {}
    for i in range(len(points)):
        groups.setdefault(uf.find(i), []).append(i)
    return frozenset(frozenset(g) for g in groups.values())


def partition_of_labels(labels):
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(i)
    return frozenset(frozenset(g) for g in groups.values())


def nmi_ref(truth, pred):
    """MI over the contingency table divided by the geometric entropy mean."""
    n = len(truth)
    ct = Counter(zip(truth, pred))
    ru, cv = Counter(truth), Counter(pred)
    hu = -sum(c / n * math.log(c / n) for c in ru.values())
    hv = -sum(c / n * math.log(c / n) for c in cv.values())
    if hu == 0.0 or hv == 0.0:
        return 1.0 if hu == hv == 0.0 else 0.0
    mi = sum(c / n * math.log((c / n) / ((ru[u] / n) * (cv[v] / n)))
             for (u, v), c in ct.items())
    return mi / math.sqrt(hu * hv)


def arand_ref(truth, pred):
    """Pair counting over all C(n,2) pairs, Hubert-Arabie adjustment."""
    agree_both = agree_t = agree_p = 0
    n = len(truth)
    for i, j in combinations(range(n), 2):
        st, sp = truth[i] == truth[j], pred[i] == pred[j]
        agree_both += st and sp
        agree_t += st
        agree_p += sp
    pairs = n * (n - 1) / 2
    expected = agree_t * agree_p / pairs
    max_index = 0.5 * (agree_t + agree_p)
    if max_index == expected:
        return 1.0
    return (agree_both - expected) / (max_index - expected)


def binary_csv_ref(path, delimiter=None, header=False, label_column=None,
                   name=None):
    """(bits, labels, name) as the general text reader of `load_binary_csv`
    gives them: decode, split lines into stripped cells, drop blank lines,
    resolve and cut the label column, check every cell is "0" or "1".

    Raises `DataFormatError` with the reader's message on a malformed file.
    A file whose only column is the label gives an (n, 0) matrix here.
    """
    import numpy as np

    from binnnms.ingest import DataFormatError

    rows = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        if delimiter is None:
            cells = line.split(",") if "," in line else line.split()
        else:
            cells = line.split(delimiter)
        rows.append([c.strip() for c in cells])
    if not rows:
        raise DataFormatError(f"{path}: empty file")
    names = None
    if header:
        names = rows[0]
        rows = rows[1:]
        if not rows:
            raise DataFormatError("no data rows after header")
    idx = None
    if label_column is not None:
        if isinstance(label_column, int):
            idx = label_column
        elif names is not None and label_column in names:
            idx = names.index(label_column)
        else:
            raise DataFormatError(f"label column {label_column!r} not found in header")
    width = len(rows[0])
    for r, row in enumerate(rows):
        if len(row) != width:
            raise DataFormatError(f"row {r}: ragged row ({len(row)} cells, expected {width})")
    labels = None
    if idx is not None:
        if not -width <= idx < width:
            raise DataFormatError(
                f"label column {idx} out of range for rows of {width} cells")
        if idx < 0:
            idx += width
        labels = [row[idx] for row in rows]
        rows = [row[:idx] + row[idx + 1:] for row in rows]
    if not set(chain.from_iterable(rows)) <= {"0", "1"}:
        r, c, cell = next((r, c, cell) for r, row in enumerate(rows)
                          for c, cell in enumerate(row) if cell not in ("0", "1"))
        raise DataFormatError(f"row {r}, column {c}: non-binary cell {cell!r}")
    text = "".join(chain.from_iterable(rows)).encode("ascii")
    bits = np.frombuffer(text, dtype=np.uint8) - ord("0")
    return bits.reshape(len(rows), len(rows[0])), labels, name or Path(path).stem

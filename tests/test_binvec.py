import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binnnms import binvec
from binnnms.bga import ascend_bits
from binnnms.binvec import (
    BinaryVector,
    DimensionMismatch,
    decode_categorical,
    encode_categorical,
    hamming,
    hamming_blocks,
    hamming_topk,
    pack_bits,
    unique_rows,
)
from binnnms.ingest import Dataset
from binnnms.kmodes import kmodes_run
from binnnms.labeling import Endpoints
from conftest import planted_bits
from oracles import decode_ref, hamming_ref, knn_ref

bitlists = st.lists(st.integers(0, 1), min_size=1, max_size=80)


def bv(s):
    return BinaryVector.from_string(s)


class TestBinaryVector:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            BinaryVector([0, 2, 1])

    @pytest.mark.parametrize("bits", [
        [True, False], [0.0, 1.0], np.array([0, 1], dtype=object)])
    def test_accepts_what_equals_zero_or_one(self, bits):
        assert BinaryVector(bits).bits.tolist() == [int(b) for b in bits]

    @pytest.mark.parametrize("bits", [
        [0, 2], [-1, 0], [0.5, 1], ["0", "1"], [None, 1], [None]])
    def test_rejects_what_is_not_zero_or_one(self, bits):
        with pytest.raises(ValueError):
            BinaryVector(bits)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BinaryVector([])

    def test_immutable(self):
        v = bv("101")
        with pytest.raises(ValueError):
            v.bits[0] = 0

    def test_equality_and_hash(self):
        assert bv("101") == bv("101")
        assert bv("101") != bv("100")
        assert hash(bv("101")) == hash(bv("101"))

    def test_roundtrip_string(self):
        assert bv("0110").to01() == "0110"


class TestHamming:
    def test_identity(self):
        x = bv("10110")
        assert hamming(x, x) == 0

    def test_mismatch_count(self):
        assert hamming(bv("10110"), bv("01100")) == 3

    def test_full_complement(self):
        assert hamming(bv("000"), bv("111")) == 3

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            hamming(bv("01"), bv("011"))

    @given(bitlists, st.data())
    def test_matches_reference(self, a, data):
        b = data.draw(st.lists(st.integers(0, 1), min_size=len(a), max_size=len(a)))
        assert hamming(BinaryVector(a), BinaryVector(b)) == hamming_ref(a, b)

    @given(st.integers(1, 64), st.data())
    def test_metric_axioms(self, d, data):
        vecs = data.draw(st.lists(
            st.lists(st.integers(0, 1), min_size=d, max_size=d),
            min_size=3, max_size=3))
        a, b, c = (BinaryVector(v) for v in vecs)
        assert hamming(a, b) >= 0
        assert (hamming(a, b) == 0) == (a == b)
        assert hamming(a, b) == hamming(b, a)
        assert hamming(a, c) <= hamming(a, b) + hamming(b, c)

    @given(bitlists, st.data())
    def test_popcount_of_packed_xor(self, a, data):
        b = data.draw(st.lists(st.integers(0, 1), min_size=len(a), max_size=len(a)))
        va, vb = BinaryVector(a), BinaryVector(b)
        pc = int(np.bitwise_count(va.packed ^ vb.packed).sum())
        assert hamming(va, vb) == pc

    @given(bitlists, st.data())
    def test_integer_difference_identity(self, a, data):
        # sum |a_j - b_j| equals the squared integer difference vector
        b = data.draw(st.lists(st.integers(0, 1), min_size=len(a), max_size=len(a)))
        diff = np.array(a) - np.array(b)
        assert hamming(BinaryVector(a), BinaryVector(b)) == int(diff @ diff)


class TestPacking:
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
    def test_pad_bits_are_zero(self, bits):
        packed = pack_bits(np.array(bits, dtype=np.uint8))
        assert int(np.bitwise_count(packed).sum()) == sum(bits)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=200),
           st.lists(st.integers(0, 1), min_size=1, max_size=200))
    def test_words_sort_like_their_rows(self, a, b):
        b = (b + a)[:len(a)]  # b padded with a's own bits or cut to a's width
        words_a, words_b = pack_bits(np.array(a)), pack_bits(np.array(b))
        assert (tuple(words_a) < tuple(words_b)) == (tuple(a) < tuple(b))


class TestHammingBlocks:
    def test_blocks_cover_queries_in_order(self):
        # 5000 rows of one word: 6 queries per block, 7 blocks for 40 queries
        bits = np.random.default_rng(4).integers(0, 2, size=(5000, 60))
        packed = pack_bits(bits)
        blocks = list(hamming_blocks(packed[:40], packed))
        assert [sl.start for sl, _ in blocks] == list(range(0, 40, 6))
        got = np.concatenate([dist for _, dist in blocks])
        assert got.dtype == np.uint8
        assert np.array_equal(got, (bits[:40, None, :] != bits).sum(axis=2))

    @pytest.mark.parametrize("d", [130, 240])
    def test_multi_word_rows_across_blocks(self, d):
        # 3000 rows: 8 * 3000 bytes per query, so 10 queries per block and
        # 4 blocks for 40 queries, whatever the number of words
        rng = np.random.default_rng(d)
        bits = rng.integers(0, 2, size=(3000, d))
        queries = rng.integers(0, 2, size=(40, d))
        blocks = list(hamming_blocks(pack_bits(queries), pack_bits(bits)))
        assert [sl.start for sl, _ in blocks] == list(range(0, 40, 10))
        got = np.concatenate([dist for _, dist in blocks])
        assert np.array_equal(got, (queries[:, None, :] != bits).sum(axis=2))

    @pytest.mark.parametrize("m", [3, 0])
    def test_zero_rows(self, m):
        # rows of 0 bytes: every query in one (m, 0) block, and no block
        # without queries
        queries = pack_bits(np.ones((m, 70), dtype=np.uint8))
        rows = pack_bits(np.ones((0, 70), dtype=np.uint8))
        blocks = list(hamming_blocks(queries, rows))
        assert [(sl, dist.shape) for sl, dist in blocks] == (
            [(slice(0, 3), (3, 0))] if m else [])


class TestBufferScope:
    """The kernel runs blocks of short rows under a ufunc buffer of its own,
    and the caller's buffer size holds again before each block is yielded."""

    SIZES = [16, None, 65536]  # the caller's buffer size; None: the default

    @staticmethod
    def under(size, fn):
        """fn() with the caller's buffer at `size`, then the size it left."""
        with np.errstate():
            if size is not None:
                np.setbufsize(size)
            want = np.getbufsize()
            out = fn()
            assert np.getbufsize() == want
        return out

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("n", [1, 267, 2000, 2729, 2731, 5000])
    @pytest.mark.parametrize("d", [70, 240])
    def test_distances_at_every_buffer_size(self, n, d, size):
        # enough queries for a block of at least 8192 elements; 2729 rows are
        # the last under a third of the default buffer, 2731 the first over
        rng = np.random.default_rng(n)
        bits = rng.integers(0, 2, size=(n, d), dtype=np.uint8)
        queries = rng.integers(0, 2, size=(8192 // n + 3, d), dtype=np.uint8)
        blocks = self.under(size, lambda: list(
            hamming_blocks(pack_bits(queries), pack_bits(bits))))
        assert max(len(dist) for _, dist in blocks) * n >= 8192
        got = np.concatenate([dist for _, dist in blocks])
        assert np.array_equal(got, (queries[:, None, :] != bits).sum(axis=2))

    @pytest.mark.parametrize("size", SIZES)
    def test_public_calls_leave_the_buffer(self, size):
        bits, _, _ = planted_bits(2000, 240, 10, 0.15, 0)
        data = Dataset(bits)
        packed = data.packed
        self.under(size, lambda: list(hamming_blocks(packed[:40], packed)))
        idx, dist = self.under(size, lambda: hamming_topk(packed, packed, 5))
        assert np.array_equal(dist, stable_topk(packed, packed, 5)[1])
        self.under(size, lambda: kmodes_run(data, 10, seed=0, max_iter=3))

    @pytest.mark.parametrize("size", SIZES)
    def test_closed_generator_and_mismatch_leave_the_buffer(self, size):
        rows = pack_bits(np.random.default_rng(0).integers(0, 2, size=(2000, 240)))

        def first_block_then_close():
            blocks = hamming_blocks(rows[:100], rows)
            want = np.getbufsize()
            next(blocks)
            assert np.getbufsize() == want  # restored before the yield
            blocks.close()

        self.under(size, first_block_then_close)

        def mismatch():
            with pytest.raises(DimensionMismatch):
                list(hamming_blocks(rows[:, :2], rows))
            with pytest.raises(DimensionMismatch):
                hamming_topk(rows[:, :2], rows, 3)

        self.under(size, mismatch)


class TestWidestDistances:
    """All-ones against all-zeros rows, at the widths where the narrow
    distance type steps from uint8 (3 words) to uint16 (4 words): the
    distances d = 192, 193 and 256 must come out exact, never wrapped."""

    @staticmethod
    def rows(d):
        # rows 0 and 2 all ones, rows 1 and 3 all zeros
        return np.tile(np.eye(2, 1, dtype=np.uint8).repeat(d, axis=1), (2, 1))

    @pytest.mark.parametrize("d,dtype", [(192, np.uint8), (193, np.uint16),
                                         (256, np.uint16)])
    def test_blocks(self, d, dtype):
        packed = pack_bits(self.rows(d))
        (_, dist), = hamming_blocks(packed, packed)
        assert dist.dtype == dtype
        assert dist.tolist() == [[0, d, 0, d], [d, 0, d, 0]] * 2

    @pytest.mark.parametrize("d", [192, 193, 256])
    def test_topk(self, d):
        packed = pack_bits(self.rows(d))
        idx, dist = hamming_topk(packed, packed, 4)
        assert idx.tolist() == [[0, 2, 1, 3], [1, 3, 0, 2]] * 2
        assert dist.tolist() == [[0, 0, d, d]] * 4

    @pytest.mark.parametrize("d", [192, 193, 256])
    def test_labeling(self, d):
        assert Endpoints(self.rows(d)).labeling(d - 0.5).num_clusters == 2
        assert Endpoints(self.rows(d)).labeling(d).num_clusters == 1

    @pytest.mark.parametrize("d", [192, 193, 256])
    def test_kmodes_inertia(self, d):
        # one cluster over ones, zeros, zeros: the prototype settles on
        # zeros, at distance d from the ones row
        data = Dataset(self.rows(d)[[0, 1, 3]])
        for max_iter in (1, 100):  # the stopped-at-max_iter and converged sums
            for seed in range(4):
                res = kmodes_run(data, 1, seed=seed, max_iter=max_iter)
                assert res.prototypes.tolist() == [[0] * d]
                assert res.total_inertia == d


class TestHammingTopk:
    @given(st.integers(1, 130).flatmap(lambda d: st.lists(
               st.lists(st.integers(0, 1), min_size=d, max_size=d),
               min_size=1, max_size=30)), st.data())
    def test_matches_full_stable_sort(self, rows, data):
        k = data.draw(st.integers(1, len(rows)))
        packed = pack_bits(np.array(rows, dtype=np.uint8))
        idx, dist = hamming_topk(packed, packed, k)
        for q, (i, dq) in enumerate(zip(idx.tolist(), dist.tolist())):
            assert i == knn_ref(rows, rows[q], k)
            assert dq == [hamming_ref(rows[j], rows[q]) for j in i]

    def test_matches_full_stable_sort_across_blocks(self):
        # 5000 rows of 3 bits: 6 queries per block, ties at every boundary
        bits = np.random.default_rng(3).integers(0, 2, size=(5000, 3))
        packed = pack_bits(bits)
        dist = np.bitwise_count(packed[:40, None, :] ^ packed).sum(axis=2)
        want = np.argsort(dist, axis=1, kind="stable")[:, :25]
        idx, got = hamming_topk(packed[:40], packed, 25)
        assert np.array_equal(idx, want)
        assert np.array_equal(got, np.take_along_axis(dist, want, axis=1))

    @pytest.mark.parametrize("d", [130, 240])
    def test_multi_word_matches_full_stable_sort_across_blocks(self, d):
        # 3000 rows, 10 queries per block. The rows share one random
        # background and differ only in 6 columns spread over the words, so
        # distances run 0..6 and tie at every boundary.
        rng = np.random.default_rng(d)
        bits = np.tile(rng.integers(0, 2, size=d), (3000, 1))
        varying = [0, 1, 64, 65, d - 2, d - 1]
        bits[:, varying] = rng.integers(0, 2, size=(3000, len(varying)))
        packed = pack_bits(bits)
        dist = (bits[:40, None, :] != bits).sum(axis=2)
        want = np.argsort(dist, axis=1, kind="stable")[:, :25]
        idx, got = hamming_topk(packed[:40], packed, 25)
        assert np.array_equal(idx, want)
        assert np.array_equal(got, np.take_along_axis(dist, want, axis=1))

    def test_int64_keys_select_the_same(self, monkeypatch):
        bits = np.random.default_rng(6).integers(0, 2, size=(3000, 130))
        packed = pack_bits(bits)
        want_idx, want_dist = hamming_topk(packed[:40], packed, 25)
        assert want_idx.dtype == np.int32
        monkeypatch.setattr(binvec, "_key_layout", lambda n, words: (np.int64, 32))
        idx, dist = hamming_topk(packed[:40], packed, 25)
        assert idx.dtype == np.int64
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(dist, want_dist)

    def test_int64_keys_select_the_same_when_pruned(self, monkeypatch):
        # the k1 = 20 round 2 of the noisy 5000x64 shape: pruned into batches
        bits, _, _ = planted_bits(5000, 64, 10, 0.2, 1)
        data = Dataset(bits)
        (_, x1), = ascend_bits(data, bits, 20, j_max=1).rounds
        q = pack_bits(x1[:2000])
        want_idx, want_dist = hamming_topk(q, data.packed, 20)
        pairs = TestPrunedTopk.spied(monkeypatch)
        monkeypatch.setattr(binvec, "_key_layout", lambda n, words: (np.int64, 32))
        idx, dist = hamming_topk(q, data.packed, 20)
        assert pairs[0] < 0.5 * len(q) * data.n
        assert idx.dtype == np.int64
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(dist, want_dist)


def stable_topk(q_packed, packed_rows, k):
    """(indices, distances) of a full stable argsort of each query's
    distances, 256 queries at a time."""
    idx, dist = [], []
    for s in range(0, len(q_packed), 256):
        d = np.bitwise_count(q_packed[s:s + 256, None, :] ^ packed_rows).sum(
            axis=2, dtype=np.uint16)
        order = np.argsort(d, axis=1, kind="stable")[:, :k]
        idx.append(order)
        dist.append(np.take_along_axis(d, order, axis=1))
    return np.concatenate(idx), np.concatenate(dist)


class TestPrunedTopk:
    """`hamming_topk` above 16 blocks: leaders take the dense pass, every
    other query scans a prefix of its nearest leader's rows."""

    @staticmethod
    def spied(monkeypatch):
        """A list whose one item counts the (query, row) pairs the kernel
        scans from then on."""
        kernel, pairs = binvec._hamming_cols, [0]

        def spy(q_packed, cols, index=None):
            pairs[0] += len(q_packed) * cols.shape[1]
            return kernel(q_packed, cols, index)

        monkeypatch.setattr(binvec, "_hamming_cols", spy)
        return pairs

    def test_matches_full_stable_sort(self):
        # rows drawn around a few centres, often with no flips at all, so
        # duplicates and ties at the boundary abound; queries are the rows,
        # some of the rows, or new points near the centres. 8-, 32- and
        # 320-byte blocks put the plan over 16 blocks almost always.
        scanned = {True: 0, False: 0}  # examples by: fewer pairs than dense?

        @given(st.sampled_from([1, 63, 64, 65, 130, 240]), st.integers(1, 8),
               st.integers(2, 120), st.integers(0, 2**32 - 1), st.data())
        @settings(max_examples=250, deadline=None)
        def check(d, pool, n, seed, data):
            rng = np.random.default_rng(seed)
            centres = rng.integers(0, 2, size=(pool, d), dtype=np.uint8)
            flip = data.draw(st.sampled_from([0, 0.02, 0.2]))
            bits = centres[rng.integers(0, pool, n)] ^ (rng.random((n, d)) < flip)
            rows = pack_bits(bits)
            queries = data.draw(st.sampled_from(["self", "rows", "near"]))
            m = data.draw(st.integers(1, 150))
            if queries == "self":
                q = rows
            elif queries == "rows":
                q = rows[rng.integers(0, n, m)]
            else:
                q = pack_bits(centres[rng.integers(0, pool, m)]
                              ^ (rng.random((m, d)) < 0.05))
            k = data.draw(st.sampled_from([1, n]) | st.integers(1, n))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(binvec, "BLOCK_BYTES", 8 * data.draw(st.sampled_from([1, 4, 40])))
                pairs = self.spied(mp)
                idx, dist = hamming_topk(q, rows, k)
            want_idx, want_dist = stable_topk(q, rows, k)
            assert np.array_equal(idx, want_idx)
            assert np.array_equal(dist, want_dist)
            scanned[pairs[0] < len(q) * n] += 1

        check()
        # the plan pruned some inputs and scanned every row in place on others
        assert scanned[True] and scanned[False]

    def test_every_query_a_leader(self, monkeypatch):
        # 10 queries against 200 rows span 20 blocks of 800 bytes: each query
        # is its own leader, so no query is left to plan
        monkeypatch.setattr(binvec, "BLOCK_BYTES", 8 * 100)
        rng = np.random.default_rng(7)
        rows = pack_bits(rng.integers(0, 2, size=(200, 65)))
        pairs = self.spied(monkeypatch)
        for q in (rows[:10], rows[::20], pack_bits(rng.integers(0, 2, size=(10, 65)))):
            for k in (1, 7, 200):
                idx, dist = hamming_topk(q, rows, k)
                want_idx, want_dist = stable_topk(q, rows, k)
                assert np.array_equal(idx, want_idx)
                assert np.array_equal(dist, want_dist)
        # per call, the leader pass was all the work
        assert pairs[0] == 3 * 3 * 10 * 200

    @pytest.mark.parametrize("k", [1, 10])
    def test_unprunable_pass_scans_in_place_once(self, monkeypatch, k):
        # a self-join of uniformly random rows: each leader's k-th distance
        # plus twice the distance to it reaches every row, so every other
        # query joins the in-place batch. The work is the leader pass, the
        # other queries' distances to the leaders, and one pass of those
        # queries over all the rows
        monkeypatch.setattr(binvec, "BLOCK_BYTES", 8 * 100)
        rows = pack_bits(np.random.default_rng(3).integers(0, 2, size=(200, 64)))
        pairs = self.spied(monkeypatch)
        idx, dist = hamming_topk(rows, rows, k)
        want_idx, want_dist = stable_topk(rows, rows, k)
        assert np.array_equal(idx, want_idx) and np.array_equal(dist, want_dist)
        n = len(rows)
        leaders = len(range(0, n, -(-n // binvec._LEADERS)))
        rest = n - leaders
        assert pairs[0] == leaders * n + leaders * rest + rest * n

    @pytest.mark.parametrize("seed", [1, 4])
    def test_ascent_rounds(self, monkeypatch, seed):
        # the k1 = 20 ascent on the cluster-noisy5k shape: round 1 queries
        # the 5000 noisy rows, which no bound prunes, so it scans the dense
        # pairs plus at most the leaders' passes over the rows and over the
        # other queries; the iterates of rounds 2 and 3 lie near their
        # centres and scan under 30% of the dense pairs
        bits, _, _ = planted_bits(5000, 64, 10, 0.2, seed)
        data = Dataset(bits)
        pairs = self.spied(monkeypatch)
        n, leaders = data.n, binvec._LEADERS
        idx, dist = hamming_topk(data.packed, data.packed, 20)
        assert pairs[0] <= n * n + leaders * (n + n)
        want_idx, want_dist = stable_topk(data.packed, data.packed, 20)
        assert np.array_equal(idx, want_idx) and np.array_equal(dist, want_dist)

        # each round queries the distinct iterates of the ascents still moving
        (_, x1), (ids, x2) = ascend_bits(data, bits, 20, j_max=2).rounds
        for x in (x1[(x1 != bits).any(axis=1)], x2[(x2 != x1[ids]).any(axis=1)]):
            q = pack_bits(x)
            q = q[unique_rows(q)[0]]
            pairs[0] = 0
            idx, dist = hamming_topk(q, data.packed, 20)
            assert pairs[0] < 0.3 * len(q) * n
            want_idx, want_dist = stable_topk(q, data.packed, 20)
            assert np.array_equal(idx, want_idx) and np.array_equal(dist, want_dist)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_partly_prunable_pass_runs_its_plan(self, monkeypatch, seed):
        # round 2 of the k1 = 10 ascent on the cluster-noisy5k shape: the
        # bound reaches every row for some iterates and prunes the others,
        # so the pass scans about half the dense pairs
        bits, _, _ = planted_bits(5000, 64, 10, 0.2, seed)
        data = Dataset(bits)
        (_, x1), = ascend_bits(data, bits, 10, j_max=1).rounds
        q = pack_bits(x1[(x1 != bits).any(axis=1)])
        q = q[unique_rows(q)[0]]
        pairs = self.spied(monkeypatch)
        idx, dist = hamming_topk(q, data.packed, 10)
        assert pairs[0] < 0.65 * len(q) * data.n
        want_idx, want_dist = stable_topk(q, data.packed, 10)
        assert np.array_equal(idx, want_idx) and np.array_equal(dist, want_dist)


class TestNearest:
    """`_Nearest`: which of k packed queries is nearest each packed row."""

    @given(st.integers(1, 40), st.integers(1, 5), st.integers(1, 60),
           st.booleans(), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_first_minimum(self, k, words, n, int64, seed, data):
        # queries and rows drawn from one small pool, few bits flipped, so
        # duplicates and ties abound; the rows of `dist` are written by two
        # calls over disjoint id subsets and one empty call, in any order
        rng = np.random.default_rng(seed)
        d = data.draw(st.integers(64 * words - 63, 64 * words))
        pool = rng.integers(0, 2, size=(data.draw(st.integers(1, 6)), d), dtype=np.uint8)
        flip = data.draw(st.sampled_from([0, 0.02, 0.2]))

        def draw(m):
            return pack_bits(pool[rng.integers(0, len(pool), m)] ^ (rng.random((m, d)) < flip))

        q, rows = draw(k), draw(n)
        ids = rng.permutation(k)
        cut = data.draw(st.integers(0, k))
        parts = data.draw(st.permutations([ids[:cut], ids[cut:], ids[:0]]))
        with pytest.MonkeyPatch.context() as mp:
            if int64:
                mp.setattr(binvec, "_key_layout", lambda n, words: (np.int64, 32))
            kernel, calls = binvec._hamming_cols, []

            def spy(q_packed, cols, index=None):
                calls.append(len(q_packed))
                return kernel(q_packed, cols, index)

            mp.setattr(binvec, "_hamming_cols", spy)
            near = binvec._Nearest(k, rows)
            for part in parts:
                near.write(part, q[part])
            nearest, dist = near.nearest()
        full = np.bitwise_count(q[:, None, :] ^ rows).sum(axis=2)
        assert np.array_equal(near.dist, full)
        assert np.array_equal(nearest, full.argmin(axis=0))  # the first minimum
        assert np.array_equal(dist, full.min(axis=0))
        assert sorted(calls) == sorted(len(p) for p in parts if len(p))  # none for no ids
        assert nearest.dtype == (np.int64 if int64 else np.int32)


class TestUniqueRows:
    @given(st.sampled_from([1, 7, 63, 64, 65, 130, 240]),
           st.integers(1, 6), st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_np_unique(self, d, pool, m, seed):
        # m rows drawn from a small pool, so most rows repeat
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 2, size=(pool, d), dtype=np.uint8)
        bits = rows[rng.integers(0, pool, size=m)]
        _, first, inverse = np.unique(
            bits, axis=0, return_index=True, return_inverse=True)
        got = unique_rows(pack_bits(bits))
        assert got[0].tolist() == first.tolist()
        assert got[1].tolist() == inverse.reshape(-1).tolist()

    def test_order_is_by_bits_not_by_packed_words(self):
        # by little-endian packed words the order would be 2, 0, 1
        bits = np.array([[1] + [0] * 64, [0] * 63 + [1, 0], [0] * 65])
        first, inverse = unique_rows(pack_bits(bits))
        assert first.tolist() == [2, 1, 0]
        assert inverse.tolist() == [2, 1, 0]


class TestKeyLayout:
    @pytest.mark.parametrize("n", [1, 2**16 - 1, 2**16, 2**16 + 1, 2**20])
    @pytest.mark.parametrize("words", [1, 4, 511, 512, 1000])
    def test_int32_exactly_while_index_and_distance_fit(self, n, words):
        int32 = n <= 2**16 and 64 * words < 2**15
        assert binvec._key_layout(n, words) == ((np.int32, 16) if int32 else (np.int64, 32))

    @pytest.mark.parametrize("n,words", [(2**16, 511), (2**20, 512), (3, 1)])
    def test_largest_key_decodes_to_itself(self, n, words):
        # distance 64 * words at index n - 1, through the kernel's own writes
        dtype, half = binvec._key_layout(n, words)
        key = np.array([n - 1], dtype=dtype)
        binvec._high(key, binvec._distance_dtype(words))[:] = 64 * words
        assert key[0] >= 0
        assert key & (1 << half) - 1 == n - 1
        assert key >> half == 64 * words

    @pytest.mark.parametrize("key_dtype,half", [(np.int32, 16), (np.int64, 32)])
    @pytest.mark.parametrize("dist_dtype", [np.uint8, np.uint16])
    def test_one_through_the_high_view_is_one_high(self, key_dtype, half, dist_dtype):
        keys = np.zeros((3, 5), dtype=key_dtype)
        high = binvec._high(keys, dist_dtype)
        assert high.shape == keys.shape and high.dtype == dist_dtype
        high[1, 2] = 1
        want = np.zeros((3, 5), dtype=key_dtype)
        want[1, 2] = 1 << half
        assert np.array_equal(keys, want)


class TestCoding:
    @pytest.mark.parametrize("level,levels,coding,expect", [
        (2, 3, "disjunctive", "010"),
        (2, 3, "additive", "110"),
        (1, 3, "additive", "100"),
        (3, 3, "disjunctive", "001"),
        (3, 3, "additive", "111"),
    ])
    def test_table_codings(self, level, levels, coding, expect):
        assert encode_categorical(level, levels, coding) == bv(expect)

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            encode_categorical(4, 3, "disjunctive")
        with pytest.raises(ValueError):
            encode_categorical(0, 3, "additive")

    def test_decode_exact(self):
        assert decode_categorical(bv("010"), 3, "disjunctive").level == 2
        assert decode_categorical(bv("010"), 3, "disjunctive").exact
        assert decode_categorical(bv("100"), 3, "additive").level == 1

    def test_decode_inexact_tie_to_lowest(self):
        # 011 is Hamming 1 from both 010 (level 2) and 001 (level 3)
        out = decode_categorical(bv("011"), 3, "disjunctive")
        assert out.level == 2
        assert not out.exact

    @given(st.integers(1, 8), st.sampled_from(["additive", "disjunctive"]),
           st.data())
    def test_decode_matches_every_level_tried(self, levels, coding, data):
        bits = data.draw(st.lists(st.integers(0, 1), min_size=levels,
                                  max_size=levels))
        out = decode_categorical(BinaryVector(bits), levels, coding)
        assert (out.level, out.exact) == decode_ref(bits, levels, coding)
        assert type(out.level) is int and type(out.exact) is bool

    def test_errors_in_order(self):
        # the coding first, then the level (even against negative levels)
        with pytest.raises(ValueError, match="unknown coding 'foo'"):
            encode_categorical(0, -1, "foo")
        with pytest.raises(ValueError, match=r"level 1 out of range \[1, -1\]"):
            encode_categorical(1, -1, "disjunctive")
        # the width first, then the coding
        with pytest.raises(DimensionMismatch):
            decode_categorical(bv("01"), 3, "foo")
        with pytest.raises(ValueError, match="unknown coding 'foo'"):
            decode_categorical(bv("01"), 2, "foo")

    @given(st.integers(1, 8), st.data(),
           st.sampled_from(["additive", "disjunctive"]))
    def test_encode_decode_roundtrip(self, levels, data, coding):
        level = data.draw(st.integers(1, levels))
        out = decode_categorical(encode_categorical(level, levels, coding),
                                 levels, coding)
        assert out.level == level and out.exact

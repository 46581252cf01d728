import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from binnnms import binvec
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
from oracles import hamming_ref, knn_ref

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


class TestHammingBlocks:
    def test_blocks_cover_queries_in_order(self):
        # 5000 rows of one word: 6 queries per block, 7 blocks for 40 queries
        bits = np.random.default_rng(4).integers(0, 2, size=(5000, 60))
        packed = pack_bits(bits)
        blocks = list(hamming_blocks(packed[:40], packed))
        assert [sl.start for sl, _ in blocks] == list(range(0, 40, 6))
        got = np.concatenate([dist for _, dist in blocks])
        assert got.dtype == np.int32
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
        monkeypatch.setattr(binvec, "_key_dtype", lambda n, words: np.int64)
        idx, dist = hamming_topk(packed[:40], packed, 25)
        assert idx.dtype == np.int64
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(dist, want_dist)


class TestUniqueRows:
    @given(st.sampled_from([1, 7, 63, 64, 65, 130, 240]),
           st.integers(1, 6), st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_np_unique(self, d, pool, m, seed):
        # m rows drawn from a small pool, so most rows repeat
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 2, size=(pool, d), dtype=np.uint8)
        bits = rows[rng.integers(0, pool, size=m)]
        _, first, inverse, counts = np.unique(
            bits, axis=0, return_index=True, return_inverse=True, return_counts=True)
        got = unique_rows(bits)
        assert got[0].tolist() == first.tolist()
        assert got[1].tolist() == inverse.reshape(-1).tolist()
        assert got[2].tolist() == counts.tolist()

    def test_order_is_by_bits_not_by_packed_words(self):
        # by little-endian packed words the order would be 2, 0, 1
        bits = np.array([[1] + [0] * 64, [0] * 63 + [1, 0], [0] * 65])
        first, inverse, counts = unique_rows(bits)
        assert first.tolist() == [2, 1, 0]
        assert inverse.tolist() == [2, 1, 0]
        assert counts.tolist() == [1, 1, 1]


class TestKeyDtype:
    @pytest.mark.parametrize("words", [1, 4, 100])
    def test_int32_exactly_while_every_key_fits(self, words):
        top = np.iinfo(np.int32).max
        n = top // (64 * words + 1)
        # the largest key: distance 64 * words at row index n - 1
        assert 64 * words * n + (n - 1) <= top
        assert binvec._key_dtype(n, words) == np.int32
        assert binvec._key_dtype(n + 1, words) == np.int64


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

    @given(st.integers(1, 8), st.data(),
           st.sampled_from(["additive", "disjunctive"]))
    def test_encode_decode_roundtrip(self, levels, data, coding):
        level = data.draw(st.integers(1, levels))
        out = decode_categorical(encode_categorical(level, levels, coding),
                                 levels, coding)
        assert out.level == level and out.exact

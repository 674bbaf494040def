"""Tests for the columnar ReadPool / ReadPoolView storage."""

import pickle
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dna.alphabet import BASES
from repro.dna.readpool import (
    NON_ACGT_CODE,
    PAD_CODE,
    ReadPool,
    ReadPoolView,
    as_read_pool,
    as_read_view,
    concat_views,
)

acgt_reads = st.lists(st.text(alphabet="ACGT", max_size=100), max_size=20)
latin1_reads = st.lists(
    st.text(
        alphabet=st.characters(min_codepoint=0, max_codepoint=255), max_size=40
    ),
    max_size=12,
)


class TestRoundTrip:
    def test_empty_pool(self):
        pool = ReadPool.from_strings([])
        assert len(pool) == 0
        assert pool.to_strings() == []
        assert pool.is_acgt is True
        assert pool.lengths.tolist() == []

    def test_empty_reads(self):
        reads = ["", "ACGT", "", ""]
        pool = ReadPool.from_strings(reads)
        assert pool.to_strings() == reads
        assert list(pool) == reads
        assert pool.lengths.tolist() == [0, 4, 0, 0]
        assert pool.is_acgt is True

    def test_non_acgt_symbols(self):
        reads = ["ACGT", "ACNT", "acgt", "A-C"]
        pool = ReadPool.from_strings(reads)
        assert pool.to_strings() == reads
        assert pool.acgt_per_read.tolist() == [True, False, False, False]
        assert pool.is_acgt is False
        assert pool.codes[4:8].tolist() == [0, 1, NON_ACGT_CODE, 3]

    def test_long_strands_over_64(self):
        rng = random.Random(5)
        reads = [
            "".join(rng.choice(BASES) for _ in range(length))
            for length in (63, 64, 65, 129, 300)
        ]
        pool = ReadPool.from_strings(reads)
        assert pool.to_strings() == reads
        assert pool.lengths.tolist() == [63, 64, 65, 129, 300]

    def test_rejects_non_latin1(self):
        with pytest.raises(ValueError):
            ReadPool.from_strings(["ACGT", "日本語"])

    @given(reads=latin1_reads)
    def test_round_trip_any_latin1(self, reads):
        pool = ReadPool.from_strings(reads)
        assert pool.to_strings() == reads
        # The strings cache must not mask the byte decode path.
        rebuilt = ReadPool(pool.data, pool.offsets)
        assert rebuilt.to_strings() == reads

    @given(reads=acgt_reads)
    def test_codes_match_per_read_encoding(self, reads):
        pool = ReadPool.from_strings(reads)
        expected = np.concatenate(
            [
                np.array(["ACGT".index(base) for base in read], dtype=np.uint8)
                for read in reads
            ]
            or [np.empty(0, dtype=np.uint8)]
        )
        assert np.array_equal(pool.codes, expected)


class TestSequenceProtocol:
    def test_indexing(self):
        reads = ["AC", "", "GGT"]
        pool = ReadPool.from_strings(reads)
        assert pool[0] == "AC"
        assert pool[-1] == "GGT"
        with pytest.raises(IndexError):
            pool[3]

    def test_index_without_strings_cache(self):
        pool = ReadPool.from_strings(["AC", "GGT"])
        rebuilt = ReadPool(pool.data, pool.offsets)
        assert rebuilt[1] == "GGT"

    def test_contiguous_slice_is_pool(self):
        pool = ReadPool.from_strings(["A", "CC", "GGG", "TTTT"])
        sliced = pool[1:3]
        assert isinstance(sliced, ReadPool)
        assert sliced.to_strings() == ["CC", "GGG"]

    def test_stepped_slice_is_list(self):
        pool = ReadPool.from_strings(["A", "CC", "GGG", "TTTT"])
        assert pool[::2] == ["A", "GGG"]

    def test_sequence_mixins(self):
        pool = ReadPool.from_strings(["A", "CC", "A"])
        assert pool.count("A") == 2
        assert pool.index("CC") == 1

    def test_bad_offsets_rejected(self):
        data = np.zeros(4, dtype=np.uint8)
        with pytest.raises(ValueError):
            ReadPool(data, np.array([0, 2], dtype=np.int64))  # end != len
        with pytest.raises(ValueError):
            ReadPool(data, np.array([1, 4], dtype=np.int64))  # start != 0
        with pytest.raises(ValueError):
            ReadPool(data, np.array([0, 3, 2, 4], dtype=np.int64))


class TestSubsetViewPickle:
    def test_subset_compacts(self):
        pool = ReadPool.from_strings(["AAA", "CC", "G", "TTTT"])
        sub = pool.subset([3, 0])
        assert sub.to_strings() == ["TTTT", "AAA"]
        assert sub.data.size == 7

    def test_view_reads_and_lengths(self):
        pool = ReadPool.from_strings(["AAA", "CC", "G", "TTTT"])
        view = pool.view([1, 3])
        assert isinstance(view, ReadPoolView)
        assert list(view) == ["CC", "TTTT"]
        assert view.to_strings() == ["CC", "TTTT"]
        assert view.lengths.tolist() == [2, 4]
        assert view[1] == "TTTT"
        assert list(view[0:1]) == ["CC"]

    def test_view_padded_codes_match_subset(self):
        pool = ReadPool.from_strings(["AAA", "CC", "G", "TTTT"])
        view_matrix, view_lengths = pool.view([1, 3]).padded_codes()
        sub_matrix, sub_lengths = pool.subset([1, 3]).padded_codes()
        assert np.array_equal(view_matrix, sub_matrix)
        assert np.array_equal(view_lengths, sub_lengths)
        assert view_matrix[0].tolist() == [1, 1, PAD_CODE, PAD_CODE]

    def test_pool_pickle_round_trip(self):
        pool = ReadPool.from_strings(["ACGT", "", "NNX"])
        clone = pickle.loads(pickle.dumps(pool))
        assert clone.to_strings() == pool.to_strings()

    def test_view_pickle_compacts_to_own_reads(self):
        pool = ReadPool.from_strings(["A" * 1000, "CC", "G" * 900, "TT"])
        view = pool.view([1, 3])
        clone = pickle.loads(pickle.dumps(view))
        assert clone.to_strings() == ["CC", "TT"]
        # The unpickled view must not drag the parent pool's bytes along.
        assert clone.pool.data.size == 4

    def test_view_slice_pickles_like_list(self):
        pool = ReadPool.from_strings(["AC", "GT", "CA", "TG"])
        view = pool.view([0, 1, 2, 3])
        assert pickle.loads(pickle.dumps(view[1:3])).to_strings() == ["GT", "CA"]


class TestAsReadPool:
    def test_pool_passthrough(self):
        pool = ReadPool.from_strings(["ACGT"])
        assert as_read_pool(pool) is pool

    def test_view_compacts(self):
        pool = ReadPool.from_strings(["AC", "GT", "CA"])
        result = as_read_pool(pool.view([2, 0]))
        assert isinstance(result, ReadPool)
        assert result.to_strings() == ["CA", "AC"]

    def test_list_converts(self):
        result = as_read_pool(["AC", "NN!"])
        assert isinstance(result, ReadPool)
        assert result.to_strings() == ["AC", "NN!"]

    def test_unpoolable_raises_naming_first_bad_read(self):
        with pytest.raises(ValueError, match="read 2 "):
            as_read_pool(["ACGT", "ACNT", "日本語", "é", "語"])


class TestAsReadView:
    def test_view_passthrough(self):
        view = ReadPool.from_strings(["AC", "GT"]).view([1])
        assert as_read_view(view) is view

    def test_pool_and_list_give_full_views(self):
        pool = ReadPool.from_strings(["AC", "GT"])
        assert as_read_view(pool).pool is pool
        assert as_read_view(pool).to_strings() == ["AC", "GT"]
        assert as_read_view(["AC", "N"]).to_strings() == ["AC", "N"]


class TestConcatViews:
    def test_shared_pool_stays_zero_copy(self):
        pool = ReadPool.from_strings(["AC", "GT", "CA"])
        merged = concat_views([pool.view([2]), pool.view([0, 1])])
        assert merged.pool is pool
        assert merged.to_strings() == ["CA", "AC", "GT"]

    def test_views_of_separate_pools_merge_in_order(self):
        pool = ReadPool.from_strings(["AC", "GGT", "", "TTTA"])
        views = [pickle.loads(pickle.dumps(pool.view(i))) for i in ([3, 0], [2], [1])]
        assert len({id(view.pool) for view in views}) == 3
        merged = concat_views(views + [["CN"]])
        assert merged.to_strings() == ["TTTA", "AC", "", "GGT", "CN"]
        assert merged.pool.acgt_per_read[merged.indices].tolist() == [
            True, True, True, True, False,
        ]

    def test_empty(self):
        assert len(concat_views([])) == 0

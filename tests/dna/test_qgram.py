"""Tests for q-gram and w-gram signatures."""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dna.qgram import QGramSignature, WGramSignature, sample_grams
from repro.dna.readpool import ReadPool

dna = st.text(alphabet="ACGT", max_size=80)


class TestSampleGrams:
    def test_count_and_length(self, rng):
        grams = sample_grams(10, 4, rng)
        assert len(grams) == 10
        assert all(len(g) == 4 for g in grams)
        assert len(set(grams)) == 10

    def test_too_many_raises(self, rng):
        with pytest.raises(ValueError):
            sample_grams(5, 1, rng)  # only 4 distinct 1-grams exist

    def test_invalid_length(self, rng):
        with pytest.raises(ValueError):
            sample_grams(1, 0, rng)

    def test_deterministic(self):
        a = sample_grams(8, 3, random.Random(1))
        b = sample_grams(8, 3, random.Random(1))
        assert a == b


class TestQGramSignature:
    def test_presence_bits(self):
        scheme = QGramSignature(["AC", "GG", "TT"])
        signature = scheme.compute("ACGT")
        assert signature.tolist() == [1, 0, 0]

    def test_distance_is_hamming(self):
        a = np.array([1, 0, 1, 0], dtype=np.uint8)
        b = np.array([1, 1, 0, 0], dtype=np.uint8)
        assert QGramSignature.distance(a, b) == 2

    def test_empty_grams_raise(self):
        with pytest.raises(ValueError):
            QGramSignature([])

    @given(dna)
    def test_self_distance_zero(self, sequence):
        scheme = QGramSignature(sample_grams(16, 3, random.Random(0)))
        signature = scheme.compute(sequence)
        assert QGramSignature.distance(signature, signature) == 0


class TestWGramSignature:
    def test_positions(self):
        scheme = WGramSignature(["AC", "GT", "CA"])
        signature = scheme.compute("ACGT")
        assert signature.tolist() == [0, 2, 4]  # CA absent -> sentinel len=4

    def test_distance_is_l1(self):
        a = np.array([0, 5, 10], dtype=np.int32)
        b = np.array([2, 5, 4], dtype=np.int32)
        assert WGramSignature.distance(a, b) == 8

    @given(dna, dna)
    def test_distance_symmetric(self, a, b):
        scheme = WGramSignature(sample_grams(8, 3, random.Random(0)))
        sig_a, sig_b = scheme.compute(a), scheme.compute(b)
        assert WGramSignature.distance(sig_a, sig_b) == WGramSignature.distance(
            sig_b, sig_a
        )

    @given(dna)
    def test_first_occurrence_semantics(self, sequence):
        grams = sample_grams(8, 2, random.Random(0))
        scheme = WGramSignature(grams)
        signature = scheme.compute(sequence)
        for gram, position in zip(grams, signature.tolist()):
            found = sequence.find(gram)
            assert position == (len(sequence) if found < 0 else found)


def _scalar_qgram(grams, sequence):
    return [1 if gram in sequence else 0 for gram in grams]


def _scalar_wgram(grams, sequence):
    positions = []
    for gram in grams:
        found = sequence.find(gram)
        positions.append(len(sequence) if found < 0 else found)
    return positions


class TestVectorisedPaths:
    """The radix fast path and the batch builder must match the scalar loop."""

    @given(st.lists(dna, max_size=30), st.integers(min_value=2, max_value=4))
    def test_batch_matches_scalar(self, sequences, gram_length):
        grams = sample_grams(12, gram_length, random.Random(3))
        q, w = QGramSignature(grams), WGramSignature(grams)
        for sequence, q_sig, w_sig in zip(
            sequences, q.compute_batch(sequences), w.compute_batch(sequences)
        ):
            assert q_sig.tolist() == _scalar_qgram(grams, sequence)
            assert w_sig.tolist() == _scalar_wgram(grams, sequence)
        pool = ReadPool.from_strings(sequences)
        for sequence, q_sig, w_sig in zip(
            sequences, q.compute_batch(pool), w.compute_batch(pool)
        ):
            assert q_sig.tolist() == _scalar_qgram(grams, sequence)
            assert w_sig.tolist() == _scalar_wgram(grams, sequence)

    def test_batch_with_edge_reads(self):
        grams = sample_grams(12, 3, random.Random(5))
        q, w = QGramSignature(grams), WGramSignature(grams)
        # Short reads (fewer than gram_length windows), empty reads, and a
        # pair of reads whose concatenation would create a phantom window
        # across the boundary.
        reads = ["", "A", "AC", grams[0], grams[0][:2], grams[0][2:] + grams[1]]
        for read, q_sig, w_sig in zip(reads, q.compute_batch(reads), w.compute_batch(reads)):
            assert q_sig.tolist() == _scalar_qgram(grams, read)
            assert w_sig.tolist() == _scalar_wgram(grams, read)

    def test_batch_empty(self):
        grams = sample_grams(4, 3, random.Random(5))
        assert QGramSignature(grams).compute_batch([]) == []
        assert WGramSignature(grams).compute_batch([]) == []

    def test_non_acgt_read_falls_back(self):
        grams = sample_grams(8, 2, random.Random(7))
        q, w = QGramSignature(grams), WGramSignature(grams)
        reads = ["ACGT", "ACNGT", "acgt", "ACéGT"]
        for read in reads:
            assert q.compute(read).tolist() == _scalar_qgram(grams, read)
            assert w.compute(read).tolist() == _scalar_wgram(grams, read)
        for read, q_sig, w_sig in zip(reads, q.compute_batch(reads), w.compute_batch(reads)):
            assert q_sig.tolist() == _scalar_qgram(grams, read)
            assert w_sig.tolist() == _scalar_wgram(grams, read)

    def test_mixed_length_grams_fall_back(self):
        # Mixed gram lengths disable the radix path entirely; results must
        # still match the scalar loop.
        scheme = QGramSignature(["AC", "GGT"])
        assert scheme.compute("ACGGTT").tolist() == [1, 1]
        batch = scheme.compute_batch(["ACGGTT", "TTTT"])
        assert [sig.tolist() for sig in batch] == [[1, 1], [0, 0]]

    def test_repeated_gram_first_occurrence_in_batch(self):
        # A gram occurring many times must report its FIRST position on
        # the batched path (regression: fancy-index assignment order).
        scheme = WGramSignature(["AAA", "CCC"])
        batch = scheme.compute_batch(["TAAAGAAA", "CCCC"])
        assert batch[0].tolist() == [1, 8]
        assert batch[1].tolist() == [4, 0]

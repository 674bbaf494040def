"""Matrix consensus kernels vs the scalar reconstructor oracles."""

import pickle
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dna.alphabet import BASES
from repro.dna.readpool import ReadPool
from repro.reconstruction import (
    BMAReconstructor,
    DoubleSidedBMAReconstructor,
    MajorityVoteReconstructor,
)
from repro.reconstruction.matrix import (
    bma_consensus_batch,
    majority_consensus_batch,
    reverse_matrix,
    stack_clusters,
)

clusters_strategy = st.lists(
    st.lists(st.text(alphabet="ACGT", max_size=30), min_size=1, max_size=6).filter(
        lambda cluster: any(cluster)
    ),
    min_size=1,
    max_size=6,
)


def _noisy_clusters(rng, count=8, reads_per=5, length=40, edits=4):
    clusters = []
    for _ in range(count):
        reference = "".join(rng.choice(BASES) for _ in range(length))
        cluster = []
        for _ in range(reads_per):
            sequence = list(reference)
            for _ in range(rng.randrange(edits + 1)):
                kind = rng.choice(("sub", "ins", "del"))
                if kind == "del" and sequence:
                    del sequence[rng.randrange(len(sequence))]
                elif kind == "ins":
                    sequence.insert(
                        rng.randrange(len(sequence) + 1), rng.choice(BASES)
                    )
                elif sequence:
                    sequence[rng.randrange(len(sequence))] = rng.choice(BASES)
            cluster.append("".join(sequence))
        clusters.append(cluster)
    return clusters


class TestMajorityTieBreakOracle:
    """Satellite: pin the scalar tie-break before trusting the matrix kernel.

    The scalar ``MajorityVoteReconstructor`` resolves tied column counts by
    picking the lexicographically smallest base (``sorted(...)[0]``) and
    votes ``A`` on columns past every read.  These properties are the
    contract the batched ``argmax``-first-maximum kernel must reproduce.
    """

    @given(cluster=clusters_strategy.map(lambda cs: cs[0]))
    def test_scalar_picks_smallest_tied_base(self, cluster):
        expected_length = max(len(read) for read in cluster)
        result = MajorityVoteReconstructor().reconstruct(cluster, expected_length)
        for position, base in enumerate(result):
            votes = Counter(
                read[position] for read in cluster if position < len(read)
            )
            if not votes:
                assert base == "A"
                continue
            top = max(votes.values())
            assert votes[base] == top
            # No strictly smaller base ties the winning count.
            assert all(
                votes[other] < top for other in BASES if other < base
            )

    def test_explicit_ties(self):
        # C vs G tie -> C; A vs T tie -> A; exhausted tail -> A.
        assert MajorityVoteReconstructor().reconstruct(["CG", "GC"], 4) == "CCAA"
        assert MajorityVoteReconstructor().reconstruct(["AT", "TA"], 2) == "AA"

    @given(clusters=clusters_strategy, expected_length=st.integers(0, 35))
    def test_batch_matches_scalar(self, clusters, expected_length):
        scalar = MajorityVoteReconstructor()
        expected = [scalar.reconstruct(c, expected_length) for c in clusters]
        batched = MajorityVoteReconstructor().reconstruct_batch(
            clusters, expected_length
        )
        assert batched == expected


class TestStackClusters:
    def test_rejects_all_empty_cluster(self):
        with pytest.raises(ValueError):
            stack_clusters([["AC"], ["", ""]])
        with pytest.raises(ValueError):
            MajorityVoteReconstructor().reconstruct_batch([["AC"], [""]], 4)

    def test_non_acgt_returns_none(self):
        assert stack_clusters([["ACGT"], ["ACNT"]]) is None

    def test_non_acgt_falls_back_to_scalar_loop(self):
        # "N" columns are off the matrix path but the scalar loop handles
        # them; batch and loop must still agree.
        clusters = [["NNAC", "NNAC"], ["GGGG"]]
        scalar = MajorityVoteReconstructor()
        assert scalar.reconstruct_batch(clusters, 4) == [
            scalar.reconstruct(c, 4) for c in clusters
        ]

    def test_views_stack_like_strings(self, rng):
        clusters = _noisy_clusters(rng)
        flat = [read for cluster in clusters for read in cluster]
        pool = ReadPool.from_strings(flat)
        views = []
        cursor = 0
        for cluster in clusters:
            views.append(pool.view(range(cursor, cursor + len(cluster))))
            cursor += len(cluster)
        from_views = stack_clusters(views)
        from_strings = stack_clusters(clusters)
        for left, right in zip(from_views, from_strings):
            assert np.array_equal(left, right)
        # Views shipped to a worker each unpickle onto their own pool.
        from_unpickled = stack_clusters([pickle.loads(pickle.dumps(v)) for v in views])
        for left, right in zip(from_unpickled, from_strings):
            assert np.array_equal(left, right)

    def test_reverse_matrix(self):
        matrix, lengths, _ = stack_clusters([["ACGT", "GG", ""]])
        reversed_matrix = reverse_matrix(matrix, lengths)
        restored = reverse_matrix(reversed_matrix, lengths)
        assert np.array_equal(restored, matrix)
        assert reversed_matrix[0].tolist() == [3, 2, 1, 0]
        assert reversed_matrix[1, :2].tolist() == [2, 2]


class TestBMABatchOracle:
    @pytest.mark.parametrize("lookahead", [1, 2, 3, 5])
    def test_matches_scalar_including_counter(self, rng, lookahead):
        clusters = _noisy_clusters(rng, count=10, reads_per=6, length=50)
        expected_length = 50
        scalar = BMAReconstructor(lookahead=lookahead)
        expected = [scalar.reconstruct(c, expected_length) for c in clusters]
        batched_rec = BMAReconstructor(lookahead=lookahead)
        batched = batched_rec.reconstruct_batch(clusters, expected_length)
        assert batched == expected
        assert batched_rec.drain_counters() == scalar.drain_counters()

    def test_exhausted_clusters_use_seeded_filler(self):
        scalar = BMAReconstructor()
        batched = BMAReconstructor()
        clusters = [["ACG", "ACG"], ["TT"]]
        assert batched.reconstruct_batch(clusters, 12) == [
            scalar.reconstruct(c, 12) for c in clusters
        ]

    @given(clusters=clusters_strategy, expected_length=st.integers(0, 35))
    def test_property_matches_scalar(self, clusters, expected_length):
        scalar = BMAReconstructor(lookahead=2)
        expected = [scalar.reconstruct(c, expected_length) for c in clusters]
        batched = BMAReconstructor(lookahead=2)
        assert batched.reconstruct_batch(clusters, expected_length) == expected

    def test_direct_kernel_matches_scalar(self, rng):
        clusters = _noisy_clusters(rng, count=4, reads_per=4, length=30)
        matrix, lengths, starts = stack_clusters(clusters)
        strings, invocations = bma_consensus_batch(matrix, lengths, starts, 30, 2)
        scalar = BMAReconstructor(lookahead=2)
        assert strings == [scalar.reconstruct(c, 30) for c in clusters]
        assert invocations == scalar.drain_counters()["bma_lookahead_invocations"]


class TestDoubleBMABatch:
    def test_matches_scalar(self, rng):
        clusters = _noisy_clusters(rng, count=8, reads_per=5, length=44)
        expected_length = 44
        scalar = DoubleSidedBMAReconstructor(lookahead=2)
        expected = [scalar.reconstruct(c, expected_length) for c in clusters]
        batched = DoubleSidedBMAReconstructor(lookahead=2)
        assert batched.reconstruct_batch(clusters, expected_length) == expected
        assert batched.drain_counters() == scalar.drain_counters()

    def test_odd_expected_length(self, rng):
        clusters = _noisy_clusters(rng, count=3, reads_per=4, length=21)
        scalar = DoubleSidedBMAReconstructor()
        batched = DoubleSidedBMAReconstructor()
        assert batched.reconstruct_batch(clusters, 21) == [
            scalar.reconstruct(c, 21) for c in clusters
        ]


class TestThroughReconstructAll:
    def test_reconstruct_all_uses_batch_and_matches(self, rng):
        clusters = _noisy_clusters(rng, count=12, reads_per=5, length=40)
        for maker in (
            MajorityVoteReconstructor,
            lambda: BMAReconstructor(lookahead=2),
        ):
            serial = maker()
            expected = [serial.reconstruct(c, 40) for c in clusters]
            assert maker().reconstruct_all(clusters, 40) == expected

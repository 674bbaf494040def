"""Clustering algorithm tests (scaled down for test speed)."""

import random

import pytest

from repro.clustering import (
    ClusteringConfig,
    RashtchianClusterer,
    clustering_accuracy,
)
from repro.dna.alphabet import random_sequence
from repro.parallel import WorkerPool
from repro.simulation import ConstantCoverage, IdentityChannel, IIDChannel, sequence_pool

FAST = dict(rounds=12, num_grams=48)


def make_run(rng, clusters=40, length=80, coverage=6, error=0.06):
    references = [random_sequence(length, rng) for _ in range(clusters)]
    channel = IIDChannel.from_total_rate(error) if error else IdentityChannel()
    return sequence_pool(references, channel, ConstantCoverage(coverage), rng)


class TestConfigValidation:
    def test_bad_signature(self):
        with pytest.raises(ValueError):
            ClusteringConfig(signature="kgram")

    def test_threshold_pairing(self):
        with pytest.raises(ValueError):
            ClusteringConfig(theta_low=1.0)
        with pytest.raises(ValueError):
            ClusteringConfig(theta_low=5.0, theta_high=1.0)

    def test_bad_rounds(self):
        with pytest.raises(ValueError):
            ClusteringConfig(rounds=0)

    def test_empty_reads_raise(self):
        with pytest.raises(ValueError):
            RashtchianClusterer().cluster([])


class TestClusteringQuality:
    def test_noiseless_reads_cluster_perfectly(self, rng):
        run = make_run(rng, error=0.0)
        result = RashtchianClusterer(ClusteringConfig(seed=1, **FAST)).cluster(
            run.reads
        )
        accuracy = clustering_accuracy(
            result.clusters, list(run.true_clusters().values())
        )
        assert accuracy == 1.0

    def test_low_noise_high_accuracy(self, rng):
        run = make_run(rng, error=0.03)
        result = RashtchianClusterer(ClusteringConfig(seed=1, **FAST)).cluster(
            run.reads
        )
        accuracy = clustering_accuracy(
            result.clusters, list(run.true_clusters().values())
        )
        assert accuracy >= 0.9

    def test_wgram_variant(self, rng):
        run = make_run(rng, error=0.06)
        result = RashtchianClusterer(
            ClusteringConfig(signature="wgram", seed=1, **FAST)
        ).cluster(run.reads)
        accuracy = clustering_accuracy(
            result.clusters, list(run.true_clusters().values())
        )
        assert accuracy >= 0.85

    def test_clusters_partition_reads(self, rng):
        run = make_run(rng)
        result = RashtchianClusterer(ClusteringConfig(seed=1, **FAST)).cluster(
            run.reads
        )
        flattened = sorted(i for cluster in result.clusters for i in cluster)
        assert flattened == list(range(len(run.reads)))

    def test_deterministic_under_seed(self, rng):
        run = make_run(rng, clusters=15)
        a = RashtchianClusterer(ClusteringConfig(seed=9, **FAST)).cluster(run.reads)
        b = RashtchianClusterer(ClusteringConfig(seed=9, **FAST)).cluster(run.reads)
        assert a.clusters == b.clusters


class TestStatistics:
    def test_stats_populated(self, rng):
        run = make_run(rng, clusters=20)
        result = RashtchianClusterer(ClusteringConfig(seed=1, **FAST)).cluster(
            run.reads
        )
        assert result.signature_comparisons > 0
        assert result.merges > 0
        assert result.signature_seconds >= 0
        assert result.total_seconds >= result.clustering_seconds
        assert result.threshold_estimate is not None

    def test_explicit_thresholds_skip_estimation(self, rng):
        run = make_run(rng, clusters=15)
        config = ClusteringConfig(theta_low=5.0, theta_high=20.0, seed=1, **FAST)
        result = RashtchianClusterer(config).cluster(run.reads)
        assert result.threshold_estimate is None
        assert result.theta_low == 5.0

    def test_wgram_signatures_cost_more_to_compute(self, rng):
        # The paper's Table II: w-gram signature calculation is slower.
        run = make_run(rng, clusters=60, coverage=8)
        q = RashtchianClusterer(
            ClusteringConfig(signature="qgram", seed=1, **FAST)
        ).cluster(run.reads)
        w = RashtchianClusterer(
            ClusteringConfig(signature="wgram", seed=1, **FAST)
        ).cluster(run.reads)
        assert w.signature_seconds > 0 and q.signature_seconds > 0


class TestParallelSignatures:
    def test_worker_pool_matches_serial(self, rng):
        run = make_run(rng, clusters=15)
        serial = RashtchianClusterer(ClusteringConfig(seed=3, **FAST)).cluster(
            run.reads
        )
        with WorkerPool(2) as pool:
            parallel = RashtchianClusterer(ClusteringConfig(seed=3, **FAST)).cluster(
                run.reads, pool=pool
            )
        assert serial.clusters == parallel.clusters


class TestColumnarInput:
    """A ReadPool input must be indistinguishable from the list of reads."""

    def test_pool_matches_list_any_worker_count(self, rng):
        from repro.dna.readpool import ReadPool

        run = make_run(rng, clusters=20, coverage=7, error=0.08)
        baseline = RashtchianClusterer(ClusteringConfig(seed=3, **FAST)).cluster(
            run.reads
        )
        for workers in (1, 4):
            with WorkerPool(workers) as pool:
                result = RashtchianClusterer(ClusteringConfig(seed=3, **FAST)).cluster(
                    ReadPool.from_strings(run.reads), pool=pool
                )
            assert result.clusters == baseline.clusters
            assert result.edit_comparisons == baseline.edit_comparisons
            assert result.signature_comparisons == baseline.signature_comparisons

    def test_non_acgt_reads_still_cluster(self, rng):
        # Reads off the ACGT alphabet keep the scalar string path end to
        # end; they must cluster, not crash.
        reads = ["ACGTNACGT", "ACGTNACGT", "TTTTTTTTT", "TTTTTTTTT"]
        result = RashtchianClusterer(ClusteringConfig(seed=3, **FAST)).cluster(reads)
        assert sorted(index for cluster in result.clusters for index in cluster) == [
            0,
            1,
            2,
            3,
        ]

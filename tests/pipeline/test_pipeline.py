"""End-to-end pipeline integration tests (small, fast configurations)."""

import pytest

from repro.codec import EncodingParameters, design_primer_library
from repro.clustering import ClusteringConfig
from repro.pipeline import Pipeline, PipelineConfig
from repro.reconstruction import BMAReconstructor, DoubleSidedBMAReconstructor
from repro.simulation import ConstantCoverage, IIDChannel

import random

FAST_ENCODING = EncodingParameters(
    payload_bytes=12, data_columns=16, parity_columns=8, index_bytes=2
)
FAST_CLUSTERING = ClusteringConfig(rounds=12, num_grams=48, seed=1)


def fast_config(**overrides):
    defaults = dict(
        encoding=FAST_ENCODING,
        channel=IIDChannel.from_total_rate(0.04),
        coverage=ConstantCoverage(8),
        clustering=FAST_CLUSTERING,
        seed=7,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestEndToEnd:
    def test_roundtrip(self):
        data = b"end to end dna storage" * 10
        result = Pipeline(fast_config()).run(data)
        assert result.success
        assert result.data == data

    def test_stage_timings_populated(self):
        result = Pipeline(fast_config()).run(b"timing check" * 5)
        timings = result.timings.as_dict()
        for stage in ("encoding", "simulation", "clustering", "reconstruction"):
            assert timings[stage] > 0
        assert timings["total"] == pytest.approx(
            sum(v for k, v in timings.items() if k != "total")
        )

    def test_intermediate_artifacts_exposed(self):
        result = Pipeline(fast_config()).run(b"artifacts" * 8)
        assert result.sequencing is not None
        assert result.clustering is not None
        assert len(result.reconstructions) > 0
        assert result.decode_report is not None

    def test_alternative_reconstructors(self):
        data = b"swappable stages!" * 6
        for reconstructor in (BMAReconstructor(), DoubleSidedBMAReconstructor()):
            result = Pipeline(fast_config(reconstructor=reconstructor)).run(data)
            assert result.data == data

    def test_primer_tagged_with_orientation_flips(self):
        pair = design_primer_library(1, rng=random.Random(5))[0]
        config = fast_config(
            encoding=EncodingParameters(
                payload_bytes=12,
                data_columns=16,
                parity_columns=8,
                index_bytes=2,
                primer_pair=pair,
            ),
            reverse_orientation_prob=0.5,
        )
        data = b"wetlab-realistic path" * 4
        result = Pipeline(config).run(data)
        assert result.data == data


class TestRunFromReads:
    def test_reads_replace_simulation(self):
        data = b"external reads" * 6
        pipeline = Pipeline(fast_config())
        full = pipeline.run(data)
        reads = full.sequencing.reads
        replayed = pipeline.run_from_reads(reads, expected_units=full.encoded.num_units)
        assert replayed.data == data
        assert replayed.timings.simulation == 0.0

    def test_empty_reads(self):
        result = Pipeline(fast_config()).run_from_reads([])
        assert result.data == b""
        assert not result.success

    def test_reads_outside_latin1_are_rejected(self):
        with pytest.raises(ValueError, match="read 1 "):
            Pipeline(fast_config()).run_from_reads(["ACGT", "AC\u65e5GT", "ACGT"])


class TestConfigValidation:
    def test_orientation_requires_primers(self):
        with pytest.raises(ValueError):
            PipelineConfig(reverse_orientation_prob=0.5)

    def test_min_cluster_size(self):
        with pytest.raises(ValueError):
            PipelineConfig(min_cluster_size=0)


class TestWorkerDeterminism:
    """Sharded stages must be invisible in the output at any worker count."""

    def test_workers_do_not_change_results(self):
        data = random.Random(21).randbytes(150)
        serial = Pipeline(fast_config(workers=1)).run(data)
        parallel = Pipeline(fast_config(workers=4)).run(data)
        assert serial.sequencing.reads == parallel.sequencing.reads
        assert serial.sequencing.origins == parallel.sequencing.origins
        assert serial.clustering.clusters == parallel.clustering.clusters
        assert serial.reconstructions == parallel.reconstructions
        assert serial.decode_report == parallel.decode_report
        assert serial.quality.as_dict() == parallel.quality.as_dict()
        assert serial.data == parallel.data == data

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(workers=0)


class TestColumnarPlane:
    """The pipeline must hand pooled reads and cluster views downstream."""

    def test_clusterer_and_reconstructor_see_columnar_inputs(self):
        from repro.clustering import RashtchianClusterer
        from repro.dna.readpool import ReadPool, ReadPoolView

        seen = {}

        class SpyClusterer:
            def cluster(self, reads):
                seen["cluster_input"] = type(reads)
                return RashtchianClusterer(FAST_CLUSTERING).cluster(reads)

        class SpyReconstructor(BMAReconstructor):
            def reconstruct_batch(self, clusters, expected_length):
                seen["cluster_types"] = {type(c) for c in clusters}
                return super().reconstruct_batch(clusters, expected_length)

        data = random.Random(3).randbytes(100)
        config = fast_config(
            clusterer=SpyClusterer(), reconstructor=SpyReconstructor()
        )
        result = Pipeline(config).run(data)
        assert result.data == data
        assert issubclass(seen["cluster_input"], ReadPool)
        assert seen["cluster_types"] == {ReadPoolView}

    def test_ledger_run_pools_reads_once(self, monkeypatch):
        from repro.dna.readpool import ReadPool
        from repro.observability import ProvenanceLedger

        calls = []
        original = ReadPool.from_strings.__func__

        def spy(cls, reads):
            calls.append(len(reads))
            return original(cls, reads)

        monkeypatch.setattr(ReadPool, "from_strings", classmethod(spy))
        data = random.Random(5).randbytes(100)
        result = Pipeline(fast_config()).run(data, ledger=ProvenanceLedger())
        assert result.data == data
        assert calls == [len(result.sequencing.reads)]

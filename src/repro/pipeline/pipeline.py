"""The end-to-end pipeline: encode -> simulate -> cluster -> reconstruct -> decode.

Every stage is pluggable (Section III of the paper): the channel, coverage
model, clustering configuration and reconstructor all come from the
:class:`~repro.pipeline.config.PipelineConfig`, and the wetlab-data entry
point :meth:`Pipeline.run_from_reads` lets real sequencing reads replace
the simulation stage entirely (Section VIII).

Both entry points accept an optional
:class:`~repro.observability.Tracer`; every stage then runs inside a
``pipeline.<stage>`` span (with the clusterer, reconstructor and decoder
emitting finer-grained child spans and counters), and
:class:`~repro.pipeline.stats.StageTimings` is rolled up from those span
durations.  Without a tracer the spans degrade to timing-only no-ops.

The pipeline's :class:`~repro.parallel.WorkerPool` shares the tracer, so
sharded stages stitch their worker-side spans (pid-annotated
``worker.chunk`` subtrees, per-chunk duration histograms, the
``worker_load_imbalance`` gauge) into the same merged tree.
"""

from __future__ import annotations

import inspect
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.clustering.metrics import cluster_quality
from repro.clustering.rashtchian import ClusteringResult, RashtchianClusterer
from repro.codec.decoder import DecodeReport, DNADecoder
from repro.codec.encoder import DNAEncoder, EncodedPool
from repro.dna.alphabet import reverse_complement
from repro.dna.readpool import as_read_pool
from repro.observability.log import get_logger
from repro.observability.metrics import emit_process_gauges
from repro.observability.provenance import (
    NULL_LEDGER,
    ProvenanceLedger,
    ProvenanceReport,
    as_ledger,
)
from repro.observability.quality import ProvenanceQuality, QualityReport
from repro.observability.trace import Tracer, as_tracer
from repro.parallel import WorkerPool, derive_seed
from repro.pipeline.config import PipelineConfig
from repro.pipeline.quality import (
    GroundTruth,
    decoding_quality,
    reconstruction_quality,
)
from repro.pipeline.stats import StageTimings
from repro.simulation.coverage import SequencingRun, sequence_pool
from repro.simulation.observed import observe_channel_quality
from repro.wetlab.preprocess import WetlabPreprocessor

if TYPE_CHECKING:
    from repro.observability.sampler import TelemetrySampler


@dataclass
class PipelineResult:
    """Everything one pipeline run produced, stage by stage."""

    data: bytes
    success: bool
    timings: StageTimings
    encoded: EncodedPool
    sequencing: Optional[SequencingRun]
    clustering: Optional[ClusteringResult]
    reconstructions: List[str] = field(default_factory=list)
    decode_report: Optional[DecodeReport] = None
    #: per-stage quality sections (channel / clustering / reconstruction /
    #: decoding); ``None`` when ``config.assess_quality`` is off
    quality: Optional[QualityReport] = None
    #: per-strand lineage + root-cause verdicts; ``None`` unless a
    #: :class:`~repro.observability.ProvenanceLedger` was passed to ``run``
    provenance: Optional[ProvenanceReport] = None


def _accepts_kwarg(method, name: str) -> bool:
    """True when a pluggable stage's method takes keyword *name*.

    Custom clusterers/reconstructors predating the tracer or the worker
    pool keep working: the pipeline only forwards the keywords their
    signatures advertise.
    """
    try:
        signature = inspect.signature(method)
    except (TypeError, ValueError):
        return False
    return name in signature.parameters


class Pipeline:
    """Drives a file through the whole DNA storage pipeline."""

    def __init__(self, config: Optional[PipelineConfig] = None):
        self.config = config or PipelineConfig()
        self._encoder = DNAEncoder(self.config.encoding)
        self._decoder = DNADecoder(self.config.encoding)

    # ------------------------------------------------------------------
    # Full simulated round trip
    # ------------------------------------------------------------------

    def run(
        self,
        data: bytes,
        tracer: Optional[Tracer] = None,
        ledger: Optional[ProvenanceLedger] = None,
        sampler: Optional["TelemetrySampler"] = None,
    ) -> PipelineResult:
        """Encode *data*, simulate the wetlab, and recover the file.

        All randomness derives from ``config.seed`` through per-stage (and,
        inside the sharded stages, per-item) seed streams, so the result is
        byte-identical at any ``config.workers`` setting.

        Pass a :class:`~repro.observability.ProvenanceLedger` to record
        every strand's lineage for the ``repro why`` forensics (the same
        opt-in pattern as *tracer*).  Lineage needs the read->origin
        pairing, which primer preprocessing destroys, so the ledger is
        ignored on primer-wrapped configurations.

        Pass a :class:`~repro.observability.TelemetrySampler` (built on
        *tracer*'s metrics registry) to collect a live counter/gauge/RSS
        time-series covering exactly this run: it is started as the run
        begins and stopped — even on an exception — before ``run``
        returns, so ``sampler.samples`` is complete afterwards.
        """
        config = self.config
        tracer = as_tracer(tracer)
        ledger = as_ledger(ledger)
        if ledger.enabled and config.encoding.primer_pair is not None:
            get_logger("pipeline").warning(
                "provenance ledger disabled: primer preprocessing loses the "
                "read->origin pairing lineage needs"
            )
            ledger = NULL_LEDGER
        base_seed = (
            config.seed if config.seed is not None else random.Random().getrandbits(64)
        )
        timings = StageTimings()

        # The sampler is a context manager (start on enter, stop on exit),
        # so its series brackets exactly the pipeline.run span — including
        # the final sample after the last stage — even when a stage raises.
        with (
            sampler if sampler is not None else nullcontext()
        ), tracer.span("pipeline.run", input_bytes=len(data)), WorkerPool(
            config.workers, tracer=tracer
        ) as pool:
            with tracer.span("pipeline.encoding") as span:
                encoded = self._encoder.encode(data)
                span.set("strands", len(encoded.references))
                span.set("units", encoded.num_units)
            timings.encoding = span.duration
            ledger.record_encoding(
                encoded.references, config.encoding.total_columns, encoded.num_units
            )

            with tracer.span("pipeline.simulation") as span:
                transmitted = (
                    encoded.strands
                    if config.encoding.primer_pair is not None
                    else encoded.references
                )
                run = sequence_pool(
                    transmitted,
                    config.channel,
                    config.coverage,
                    seed=derive_seed(base_seed, "simulation"),
                    pool=pool,
                )
                reads = run.reads
                if config.reverse_orientation_prob > 0:
                    orientation_rng = random.Random(
                        derive_seed(base_seed, "orientation")
                    )
                    reads = [
                        reverse_complement(read)
                        if orientation_rng.random() < config.reverse_orientation_prob
                        else read
                        for read in reads
                    ]
                span.set("reads", len(reads))
                span.set("dropouts", len(run.dropouts))
                span.set("shards", pool.last_shards)
            timings.simulation = span.duration

            if ledger.enabled:
                # The ledger's one expensive pass: align every read against
                # its origin (sharded; order-preserving merge).
                with tracer.span("provenance.sequencing", reads=len(run.reads)):
                    ledger.record_sequencing(run, pool=pool)

            channel_quality = None
            truth = None
            if config.assess_quality:
                with tracer.span("quality.channel") as span:
                    channel_quality = observe_channel_quality(
                        run,
                        config.channel,
                        sample=config.quality_sample,
                        seed=config.seed or 0,
                    )
                    if channel_quality is not None:
                        span.set("reads_sampled", channel_quality.reads_sampled)
                if config.encoding.primer_pair is None:
                    # Preprocessing filters and reorders reads, losing the
                    # read->origin pairing; ground-truth scoring of the
                    # later stages is only possible on the unfiltered path.
                    truth = GroundTruth(
                        origins=run.origins, references=encoded.references
                    )

            if config.encoding.primer_pair is not None:
                with tracer.span("pipeline.preprocessing") as span:
                    preprocessor = WetlabPreprocessor(
                        [config.encoding.primer_pair],
                        expected_body_length=config.encoding.body_nt,
                    )
                    by_pair, stats = preprocessor.process(reads)
                    reads = by_pair.get(0, [])
                    span.set("accepted", stats.accepted)
                    span.set("flipped", stats.flipped)
                    rejected = stats.total - stats.accepted
                    span.set("rejected", rejected)
                    tracer.metrics.counter(
                        "reads_discarded", stage="preprocessing"
                    ).inc(rejected)
                timings.preprocessing = span.duration

            result = self._recover(
                # run.reads has one cached pool, shared with the ledger pass.
                run.read_pool() if reads is run.reads else reads,
                encoded,
                timings,
                tracer=tracer,
                truth=truth,
                channel_quality=channel_quality,
                pool=pool,
                ledger=ledger,
            )
            emit_process_gauges(tracer.metrics)
        result.sequencing = run
        return result

    # ------------------------------------------------------------------
    # Wetlab-data entry point: reads replace the simulation stage
    # ------------------------------------------------------------------

    def run_from_reads(
        self,
        reads: Sequence[str],
        expected_units: Optional[int] = None,
        tracer: Optional[Tracer] = None,
    ) -> PipelineResult:
        """Recover a file from externally-produced payload reads.

        *reads* must already be oriented and primer-trimmed (use
        :class:`~repro.wetlab.preprocess.WetlabPreprocessor` on raw fastq).
        Raises :class:`ValueError` when a read is outside latin-1.
        """
        tracer = as_tracer(tracer)
        timings = StageTimings()
        placeholder = EncodedPool(
            strands=[],
            references=[],
            parameters=self.config.encoding,
            num_units=expected_units or 0,
            file_length=0,
        )
        with tracer.span("pipeline.run_from_reads", reads=len(reads)), WorkerPool(
            self.config.workers, tracer=tracer
        ) as pool:
            result = self._recover(
                list(reads),
                placeholder,
                timings,
                expected_units=expected_units,
                tracer=tracer,
                pool=pool,
            )
            emit_process_gauges(tracer.metrics)
        return result

    # ------------------------------------------------------------------

    def _recover(
        self,
        reads: Sequence[str],
        encoded: EncodedPool,
        timings: StageTimings,
        expected_units: Optional[int] = None,
        tracer: Optional[Tracer] = None,
        truth: Optional[GroundTruth] = None,
        channel_quality=None,
        pool: Optional[WorkerPool] = None,
        ledger: Optional[ProvenanceLedger] = None,
    ) -> PipelineResult:
        config = self.config
        tracer = as_tracer(tracer)
        ledger = as_ledger(ledger)

        with tracer.span("pipeline.clustering", reads=len(reads)) as span:
            clustering = None
            kept_clusters: List[List[int]] = []
            clusters_reads: List[Sequence[str]] = []
            if reads:
                # One columnar pool for the whole recovery: clustering reuses
                # its radix codes for signatures and batched edit verdicts,
                # and each kept cluster becomes a zero-copy view into it for
                # the matrix-consensus reconstructors.
                read_pool = as_read_pool(reads)
                clusterer = config.clusterer or RashtchianClusterer(config.clustering)
                kwargs = {}
                if _accepts_kwarg(clusterer.cluster, "tracer"):
                    kwargs["tracer"] = tracer
                if pool is not None and _accepts_kwarg(clusterer.cluster, "pool"):
                    kwargs["pool"] = pool
                clustering = clusterer.cluster(read_pool, **kwargs)
                kept_ids = [
                    cluster_id
                    for cluster_id, cluster in enumerate(clustering.clusters)
                    if len(cluster) >= config.min_cluster_size
                ]
                kept_clusters = [
                    clustering.clusters[cluster_id] for cluster_id in kept_ids
                ]
                ledger.record_clustering(clustering.clusters, kept_ids)
                clusters_reads = [read_pool.view(cluster) for cluster in kept_clusters]
                discarded = len(reads) - sum(len(c) for c in clusters_reads)
                span.set("clusters", len(clustering.clusters))
                span.set("kept_clusters", len(clusters_reads))
                tracer.metrics.counter("clusters_formed").inc(
                    len(clustering.clusters)
                )
                tracer.metrics.counter("reads_discarded", stage="clustering").inc(
                    discarded
                )
        timings.clustering = span.duration

        clustering_q = None
        if truth is not None and clustering is not None:
            with tracer.span("quality.clustering"):
                clustering_q = cluster_quality(
                    clustering.clusters, truth.true_clusters()
                )

        with tracer.span(
            "pipeline.reconstruction", clusters=len(clusters_reads)
        ) as span:
            kwargs = {}
            if _accepts_kwarg(config.reconstructor.reconstruct_all, "tracer"):
                kwargs["tracer"] = tracer
            if pool is not None and _accepts_kwarg(
                config.reconstructor.reconstruct_all, "pool"
            ):
                kwargs["pool"] = pool
            reconstructions = config.reconstructor.reconstruct_all(
                clusters_reads, config.encoding.body_nt, **kwargs
            )
        timings.reconstruction = span.duration

        if ledger.enabled:
            with tracer.span(
                "provenance.reconstruction", strands=len(reconstructions)
            ):
                ledger.record_reconstruction(reconstructions, pool=pool)

        reconstruction_q = None
        if truth is not None and reconstructions:
            with tracer.span("quality.reconstruction"):
                reconstruction_q = reconstruction_quality(
                    kept_clusters, reconstructions, truth, metrics=tracer.metrics
                )

        with tracer.span("pipeline.decoding", strands=len(reconstructions)) as span:
            data, report = self._decoder.decode(
                reconstructions,
                expected_units=expected_units
                or (encoded.num_units if encoded.num_units else None),
                tracer=tracer,
                pool=pool,
                ledger=ledger,
            )
            span.set("success", report.success)
        timings.decoding = span.duration

        provenance = None
        if ledger.enabled:
            with tracer.span("provenance.forensics"):
                provenance = ledger.finalize()

        quality = None
        if config.assess_quality:
            provenance_q = None
            if provenance is not None:
                verdicts = provenance.summary.verdicts
                provenance_q = ProvenanceQuality(
                    strands=provenance.summary.strands,
                    ok=verdicts.get("ok", 0),
                    dropout=verdicts.get("dropout", 0),
                    underclustered=verdicts.get("underclustered", 0),
                    misclustered=verdicts.get("misclustered", 0),
                    consensus_error=verdicts.get("consensus_error", 0),
                    ecc_overload=verdicts.get("ecc_overload", 0),
                )
            quality = QualityReport(
                channel=channel_quality,
                clustering=clustering_q,
                reconstruction=reconstruction_q,
                decoding=decoding_quality(report, len(data)),
                provenance=provenance_q,
            )
            quality.emit(tracer.metrics)

        return PipelineResult(
            data=data,
            success=report.success,
            timings=timings,
            encoded=encoded,
            sequencing=None,
            clustering=clustering,
            reconstructions=reconstructions,
            decode_report=report,
            quality=quality,
            provenance=provenance,
        )

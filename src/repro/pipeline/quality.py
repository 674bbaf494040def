"""Builds the per-stage quality sections during a pipeline run.

The simulated path has full ground truth — every read knows which strand
produced it (:attr:`~repro.simulation.coverage.SequencingRun.origins`) —
so the pipeline can score each stage as it goes: the clustering against
the origin labels, each reconstruction against the body of its cluster's
dominant origin, and the decode against its own Reed-Solomon bookkeeping.
The wetlab-reads path has no origins, so only the decoding section is
available there.

All numbers also flow into the tracer's metrics registry (histograms for
distributions, gauges for headline fractions), keeping ``repro trace``
and the structured :class:`~repro.observability.quality.QualityReport`
two views of the same data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.codec.decoder import DecodeReport
from repro.dna.distance import levenshtein_distance
from repro.observability.metrics import MetricsRegistry, percentile
from repro.observability.provenance import dominant_origin
from repro.observability.quality import DecodingQuality, ReconstructionQuality


@dataclass
class GroundTruth:
    """What the simulation knew: per-read origin labels + reference bodies.

    ``origins[i]`` labels read ``i`` (the index list clustering operates
    over); ``references[origin]`` is the clean strand *body* that read
    should reconstruct to.
    """

    origins: List[int]
    references: List[str]

    def true_clusters(self) -> List[List[int]]:
        """Ground-truth clustering in the predicted-clusters shape."""
        clusters = {}
        for read_index, origin in enumerate(self.origins):
            clusters.setdefault(origin, []).append(read_index)
        return list(clusters.values())


def reconstruction_quality(
    kept_clusters: Sequence[Sequence[int]],
    reconstructions: Sequence[str],
    truth: GroundTruth,
    metrics: Optional[MetricsRegistry] = None,
) -> Optional[ReconstructionQuality]:
    """Score reconstructions against each cluster's dominant origin body.

    ``kept_clusters`` (read-index lists) must be parallel to
    ``reconstructions``.  A cluster's target is the reference body of the
    origin most of its reads came from — the strand a perfect pipeline
    would emit for it — so impure clusters are charged the full distance
    to the strand they *should* have reconstructed.
    """
    if not reconstructions or len(kept_clusters) != len(reconstructions):
        return None
    distances: List[int] = []
    exact = 0
    for cluster, consensus in zip(kept_clusters, reconstructions):
        origin = dominant_origin(truth.origins, cluster)
        reference = truth.references[origin]
        if consensus == reference:
            exact += 1
            distances.append(0)
        else:
            distances.append(levenshtein_distance(consensus, reference))
    if metrics is not None:
        histogram = metrics.histogram("reconstruction_edit_distance")
        for distance in distances:
            histogram.observe(distance)
    return ReconstructionQuality(
        strands=len(distances),
        exact_matches=exact,
        mean_edit_distance=sum(distances) / len(distances),
        p90_edit_distance=percentile(distances, 90),
        max_edit_distance=max(distances),
    )


def decoding_quality(report: DecodeReport, bytes_recovered: int) -> DecodingQuality:
    """Fold the decoder's own bookkeeping into the quality-report shape."""
    return DecodingQuality(
        clean_rows=report.clean_rows,
        corrected_rows=report.corrected_rows,
        failed_rows=report.failed_rows,
        symbols_corrected=report.symbols_corrected,
        erasures=report.missing_columns,
        bytes_recovered=bytes_recovered,
        success=report.success,
    )

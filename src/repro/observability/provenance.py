"""Per-strand provenance: the lineage half of observability.

The tracer answers "where did the time go" and the quality report "what
did the run do to the data *in aggregate*".  This module answers the
question both leave open when a decode degrades: **which strands were
lost, and why**.  Every encoded strand carries a stable ID (its reference
index, which is also its molecule index ``unit * n + column``) and the
ledger records its journey through the five stages:

* **encoding** — unit and column coordinates;
* **simulation** — the reads the channel emitted for it (with per-read
  edit distances against the reference, sharded over the worker pool);
* **clustering** — where those reads landed, which clusters survived the
  ``min_cluster_size`` filter, and which cluster the strand dominates;
* **reconstruction** — the consensus distance back to the reference body
  and the molecule index the decoder parsed from each consensus;
* **decoding** — the column's Reed-Solomon fate: ``clean``, ``corrected``
  (with a symbol count), ``erased`` (recovered as an erasure) or
  ``uncorrectable`` (its unit had failed rows).

:mod:`repro.observability.forensics` joins the ledger into one root-cause
verdict per strand (``dropout`` / ``underclustered`` / ``misclustered`` /
``consensus_error`` / ``ecc_overload`` / ``ok``) behind ``repro why``.

Collection follows the tracer's no-op-default pattern: the shared
:data:`NULL_LEDGER` accepts every record call and retains nothing, so
uninstrumented runs pay only a dead method call per stage (the expensive
joins — read alignment, consensus distances — live *inside* the recording
methods and never run when disabled).  All derived values are pure
functions of the run's seeds, and the sharded computations go through
:meth:`~repro.parallel.WorkerPool.map_chunks` (which preserves item
order), so the exported JSONL is byte-identical at any worker count.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.dna.distance import levenshtein_distance
from repro.observability.trace import worker_span
from repro.parallel import WorkerPool

#: Version of the ledger JSONL format (bumped on breaking change).
PROVENANCE_SCHEMA_VERSION = 1

#: Root-cause vocabulary in forensic priority order: when several causes
#: tie for a unit's failed rows, the earlier entry wins.  ``ok`` is last —
#: it is never a failure cause.
VERDICTS = (
    "dropout",
    "underclustered",
    "misclustered",
    "consensus_error",
    "ecc_overload",
    "ok",
)

#: Column fates a strand can meet in the decoder.
COLUMN_FATES = ("clean", "corrected", "erased", "uncorrectable", "unknown")


def dominant_origin(
    origins: Sequence[int], members: Iterable[int]
) -> Optional[int]:
    """The origin strand most of a cluster's reads came from.

    *origins* maps read index to origin strand; *members* are the
    cluster's read indices.  Ties go to the origin seen first in member
    order.  This one rule picks the reference a consensus is scored
    against, both in the quality report and in the provenance ledger and
    its forensics.  ``None`` for an empty cluster.
    """
    votes = Counter(origins[read_index] for read_index in members)
    return votes.most_common(1)[0][0] if votes else None


# ----------------------------------------------------------------------
# Per-strand records
# ----------------------------------------------------------------------


@dataclass
class ClusterPlacement:
    """Where (some of) a strand's reads landed after clustering."""

    #: cluster id in the clusterer's output order
    cluster: int
    #: how many of the strand's reads sit in that cluster
    reads: int
    #: whether the cluster survived the ``min_cluster_size`` filter
    kept: bool
    #: whether this strand is the cluster's dominant origin
    dominant: bool


@dataclass
class ConsensusOutcome:
    """One reconstruction attributed to the strand (its dominant cluster)."""

    #: cluster id the consensus was built from
    cluster: int
    #: edit distance from the consensus to the strand's reference body
    distance: int
    #: molecule index the decoder parsed from it (``None`` = unparseable)
    decoded_index: Optional[int] = None


@dataclass
class StrandProvenance:
    """The joined, per-strand lineage record — one line of the ledger."""

    strand_id: int
    unit: int
    column: int
    #: reads the channel emitted for this strand (0 = dropout)
    reads: int = 0
    #: indices of those reads in the pipeline's (shuffled) read list
    read_ids: List[int] = field(default_factory=list)
    #: per-read edit distance against the reference body
    read_edits: List[int] = field(default_factory=list)
    placements: List[ClusterPlacement] = field(default_factory=list)
    consensus: List[ConsensusOutcome] = field(default_factory=list)
    #: RS fate of the strand's column (see :data:`COLUMN_FATES`)
    column_fate: str = "unknown"
    #: RS symbols corrected inside this strand's column (data region)
    symbols_corrected: int = 0
    #: uncorrectable RS rows in the strand's unit
    unit_failed_rows: int = 0
    verdict: str = "ok"

    @property
    def dropout(self) -> bool:
        return self.reads == 0

    def as_dict(self) -> Dict[str, Any]:
        payload = asdict(self)
        payload["dropout"] = self.dropout
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "StrandProvenance":
        known = dict(payload)
        known.pop("dropout", None)
        known.pop("kind", None)
        placements = [
            ClusterPlacement(**p) for p in known.pop("placements", [])
        ]
        consensus = [ConsensusOutcome(**c) for c in known.pop("consensus", [])]
        return cls(placements=placements, consensus=consensus, **known)


@dataclass
class UnitOutcome:
    """Per-encoding-unit Reed-Solomon bookkeeping."""

    unit: int
    #: matrix columns handed to the decoder as erasures
    erased_columns: List[int] = field(default_factory=list)
    #: uncorrectable codeword rows
    failed_rows: List[int] = field(default_factory=list)
    clean_rows: int = 0
    corrected_rows: int = 0
    #: corrected-symbol count per matrix column (data region only)
    corrections_by_column: Dict[int, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        payload = asdict(self)
        # JSON object keys are strings; keep the column keys sorted so the
        # export is byte-stable.
        payload["corrections_by_column"] = {
            str(column): self.corrections_by_column[column]
            for column in sorted(self.corrections_by_column)
        }
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "UnitOutcome":
        known = dict(payload)
        known.pop("kind", None)
        corrections = {
            int(column): count
            for column, count in known.pop("corrections_by_column", {}).items()
        }
        return cls(corrections_by_column=corrections, **known)


@dataclass
class ProvenanceSummary:
    """Roll-up of the forensic verdicts — what ``repro why`` prints first."""

    strands: int = 0
    reads: int = 0
    verdicts: Dict[str, int] = field(default_factory=dict)
    failed_rows: int = 0
    #: failed RS rows attributed to the dominant fault of their unit
    failed_row_causes: Dict[str, int] = field(default_factory=dict)
    units_failed: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "strands": self.strands,
            "reads": self.reads,
            "verdicts": {v: self.verdicts.get(v, 0) for v in VERDICTS},
            "failed_rows": self.failed_rows,
            "failed_row_causes": {
                cause: self.failed_row_causes[cause]
                for cause in VERDICTS
                if cause in self.failed_row_causes
            },
            "units_failed": self.units_failed,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ProvenanceSummary":
        return cls(
            strands=int(payload.get("strands", 0)),
            reads=int(payload.get("reads", 0)),
            verdicts=dict(payload.get("verdicts", {})),
            failed_rows=int(payload.get("failed_rows", 0)),
            failed_row_causes=dict(payload.get("failed_row_causes", {})),
            units_failed=int(payload.get("units_failed", 0)),
        )


@dataclass
class ProvenanceReport:
    """Everything the forensics join produced for one run."""

    strands: List[StrandProvenance] = field(default_factory=list)
    units: List[UnitOutcome] = field(default_factory=list)
    summary: ProvenanceSummary = field(default_factory=ProvenanceSummary)

    def strand(self, strand_id: int) -> Optional[StrandProvenance]:
        for record in self.strands:
            if record.strand_id == strand_id:
                return record
        return None


# ----------------------------------------------------------------------
# The ledger (recording side)
# ----------------------------------------------------------------------


def _edit_distance_chunk(pairs, _extra) -> List[int]:
    """WorkerPool entry point: edit distance for (sequence, reference) pairs."""
    with worker_span("provenance.edit_distance_chunk", pairs=len(pairs)):
        return [levenshtein_distance(left, right) for left, right in pairs]


class ProvenanceLedger:
    """Accumulates per-stage lineage facts during one pipeline run.

    The pipeline (and the decoder, for the RS plane) call the ``record_*``
    methods as each stage completes; :meth:`finalize` joins the facts into
    a :class:`ProvenanceReport` via :mod:`repro.observability.forensics`.
    The ledger is single-run, single-thread state — use one per pipeline
    run, exactly like a :class:`~repro.observability.Tracer`.
    """

    enabled = True

    def __init__(self) -> None:
        self.total_columns = 0
        self.num_units = 0
        self.references: List[str] = []
        self.origins: List[int] = []
        self.read_edits: List[int] = []
        self.sequencing_recorded = False
        self.clusters: List[List[int]] = []
        #: indices into :attr:`clusters` that survived the size filter,
        #: in reconstruction order
        self.kept_ids: List[int] = []
        self.clustering_recorded = False
        #: per kept cluster: (dominant origin, consensus edit distance)
        self.consensus_origins: List[int] = []
        self.consensus_distances: List[int] = []
        #: per decoder input position: parsed molecule index (None = bad)
        self.parsed_indices: Dict[int, Optional[int]] = {}
        self.unit_outcomes: Dict[int, UnitOutcome] = {}

    # -- encoding ------------------------------------------------------

    def record_encoding(
        self, references: Sequence[str], total_columns: int, num_units: int
    ) -> None:
        """Register the encoded pool: strand IDs are reference indices."""
        self.references = list(references)
        self.total_columns = total_columns
        self.num_units = num_units

    # -- simulation ----------------------------------------------------

    def record_sequencing(self, run, pool: Optional[WorkerPool] = None) -> None:
        """Record read origins and per-read edit distances for *run*.

        The alignment of every read against its origin reference is the
        ledger's one expensive pass; it rides the columnar plane (reads
        grouped by origin, one uint64-lane Myers sweep per reference over
        the run's :class:`~repro.dna.readpool.ReadPool`), shards over
        *pool* and, because
        :meth:`~repro.parallel.WorkerPool.map_chunks` preserves item
        order, merges back deterministically at any worker count.
        """
        from repro.simulation.observed import per_read_edit_distances

        self.origins = list(run.origins)
        self.read_edits = per_read_edit_distances(run, pool=pool)
        self.sequencing_recorded = True

    # -- clustering ----------------------------------------------------

    def record_clustering(
        self, clusters: Sequence[Sequence[int]], kept_ids: Sequence[int]
    ) -> None:
        """Record the full clustering plus which clusters were kept."""
        self.clusters = [list(cluster) for cluster in clusters]
        self.kept_ids = list(kept_ids)
        self.clustering_recorded = True

    # -- reconstruction ------------------------------------------------

    def record_reconstruction(
        self, reconstructions: Sequence[str], pool: Optional[WorkerPool] = None
    ) -> None:
        """Score each consensus against its cluster's dominant origin.

        *reconstructions* must be parallel to the kept clusters recorded
        by :meth:`record_clustering`.  The distance computation shards
        over *pool* with the same deterministic merge as the read pass.
        """
        if not self.clustering_recorded or not self.origins:
            return
        origins: List[int] = []
        pairs = []
        for kept_id, consensus in zip(self.kept_ids, reconstructions):
            origin = dominant_origin(self.origins, self.clusters[kept_id])
            origins.append(origin)
            reference = (
                self.references[origin]
                if 0 <= origin < len(self.references)
                else ""
            )
            pairs.append((consensus, reference))
        self.consensus_origins = origins
        if pool is None:
            self.consensus_distances = _edit_distance_chunk(pairs, None)
        else:
            self.consensus_distances = pool.map_chunks(
                _edit_distance_chunk, pairs, None
            )

    # -- decoding (called from DNADecoder) -----------------------------

    def record_strand_parse(self, position: int, index: Optional[int]) -> None:
        """Record the molecule index parsed from decoder input *position*."""
        self.parsed_indices[position] = index

    def record_unit(self, outcome: UnitOutcome) -> None:
        """Record one encoding unit's Reed-Solomon outcome."""
        self.unit_outcomes[outcome.unit] = outcome

    # -- finalisation --------------------------------------------------

    def finalize(self) -> ProvenanceReport:
        """Join the recorded facts into per-strand verdicts + summary."""
        from repro.observability.forensics import analyze

        return analyze(self)


class NullProvenanceLedger(ProvenanceLedger):
    """The disabled ledger: accepts every record call, retains nothing."""

    enabled = False

    def __init__(self) -> None:  # keep the shared instance state-free
        pass

    def record_encoding(self, references, total_columns, num_units) -> None:
        pass

    def record_sequencing(self, run, pool=None) -> None:
        pass

    def record_clustering(self, clusters, kept_ids) -> None:
        pass

    def record_reconstruction(self, reconstructions, pool=None) -> None:
        pass

    def record_strand_parse(self, position, index) -> None:
        pass

    def record_unit(self, outcome) -> None:
        pass

    def finalize(self) -> ProvenanceReport:
        return ProvenanceReport()


#: Shared default ledger: safe to pass everywhere, records nothing.
NULL_LEDGER = NullProvenanceLedger()


def as_ledger(ledger: Optional[ProvenanceLedger]) -> ProvenanceLedger:
    """Normalise an optional ledger argument (``None`` -> no-op)."""
    return NULL_LEDGER if ledger is None else ledger


# ----------------------------------------------------------------------
# JSONL export / import
# ----------------------------------------------------------------------


def ledger_lines(report: ProvenanceReport) -> Iterator[str]:
    """Serialise *report* as JSONL (meta, strands, units, summary).

    Strand records are emitted in strand-ID order and every mapping is
    built with a fixed key order, so two identical runs produce
    byte-identical files — the property the worker-determinism tests pin.
    """
    yield json.dumps(
        {
            "kind": "meta",
            "version": PROVENANCE_SCHEMA_VERSION,
            "strands": len(report.strands),
            "units": len(report.units),
        }
    )
    for record in sorted(report.strands, key=lambda r: r.strand_id):
        payload = {"kind": "strand"}
        payload.update(record.as_dict())
        yield json.dumps(payload)
    for outcome in sorted(report.units, key=lambda u: u.unit):
        payload = {"kind": "unit"}
        payload.update(outcome.as_dict())
        yield json.dumps(payload)
    summary = {"kind": "summary"}
    summary.update(report.summary.as_dict())
    yield json.dumps(summary)


def write_ledger(report: ProvenanceReport, path: Union[str, Path]) -> Path:
    """Write *report* to *path* as JSONL; returns the path."""
    path = Path(path)
    path.write_text("\n".join(ledger_lines(report)) + "\n", encoding="utf-8")
    return path


def load_ledger(source: Union[str, Path, Iterable[str]]) -> ProvenanceReport:
    """Parse a provenance JSONL file (or lines) back into a report."""
    if isinstance(source, (str, Path)):
        lines: Iterable[str] = Path(source).read_text(encoding="utf-8").splitlines()
    else:
        lines = source
    report = ProvenanceReport()
    for line in lines:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        kind = record.get("kind")
        if kind == "meta":
            version = record.get("version", PROVENANCE_SCHEMA_VERSION)
            if version > PROVENANCE_SCHEMA_VERSION:
                raise ValueError(
                    f"provenance schema {version} is newer than supported "
                    f"({PROVENANCE_SCHEMA_VERSION})"
                )
        elif kind == "strand":
            report.strands.append(StrandProvenance.from_dict(record))
        elif kind == "unit":
            report.units.append(UnitOutcome.from_dict(record))
        elif kind == "summary":
            report.summary = ProvenanceSummary.from_dict(record)
        else:
            raise ValueError(f"unknown ledger record kind {kind!r}")
    return report

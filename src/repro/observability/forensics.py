"""Decode-failure forensics: join the provenance ledger into verdicts.

The ledger (:mod:`repro.observability.provenance`) records *facts*; this
module turns them into *attribution*.  Every strand receives exactly one
root-cause verdict, chosen as the first stage at which its journey went
wrong:

* ``dropout`` — the channel emitted zero reads for the strand;
* ``underclustered`` — reads exist, but all of them sit in clusters that
  were discarded (too small) and never reached reconstruction;
* ``misclustered`` — reads exist and some landed in a *kept* cluster, but
  that cluster is dominated by another strand, so no consensus was built
  for this one;
* ``consensus_error`` — the strand dominates a kept cluster, but every
  consensus built for it differs from the reference body (or parses to
  the wrong molecule index);
* ``ecc_overload`` — the journey was clean, yet the strand's column still
  came out damaged in the Reed-Solomon plane (e.g. corrupted by a foreign
  consensus voting on its index, or sitting in a unit whose rows were
  uncorrectable for reasons the upstream stages cannot explain);
* ``ok`` — clean end to end.

A verdict describes the strand's own journey, not whether the file
survived: a dropped-out strand in a unit the RS erasure decoder rescued
is still a ``dropout`` — that is precisely the error-budget accounting
(Organick et al.) the ledger exists to provide.  Failed RS rows are
attributed per unit to the dominant journey fault among that unit's
damaged strands (ties break in :data:`~repro.observability.provenance.VERDICTS`
order), which is what the acceptance gate checks against injected faults.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

from repro.analysis.reporting import format_table
from repro.observability.provenance import (
    VERDICTS,
    ClusterPlacement,
    ConsensusOutcome,
    ProvenanceLedger,
    ProvenanceReport,
    ProvenanceSummary,
    StrandProvenance,
    UnitOutcome,
    dominant_origin,
)

#: Verdicts that name an upstream (pre-RS) journey fault.
JOURNEY_FAULTS = ("dropout", "underclustered", "misclustered", "consensus_error")


# ----------------------------------------------------------------------
# The join
# ----------------------------------------------------------------------


def analyze(ledger: ProvenanceLedger) -> ProvenanceReport:
    """Join *ledger*'s per-stage facts into a :class:`ProvenanceReport`."""
    strands = len(ledger.references)
    n = ledger.total_columns or 1

    # read index -> cluster id, cluster id -> kept position
    read_cluster: Dict[int, int] = {}
    for cluster_id, members in enumerate(ledger.clusters):
        for read_index in members:
            read_cluster[read_index] = cluster_id
    kept_position = {
        cluster_id: position
        for position, cluster_id in enumerate(ledger.kept_ids)
    }

    # cluster id -> dominant origin
    cluster_origin: Dict[int, int] = {}
    if ledger.origins:
        for cluster_id, members in enumerate(ledger.clusters):
            origin = dominant_origin(ledger.origins, members)
            if origin is not None:
                cluster_origin[cluster_id] = origin

    # origin -> read ids (in read order, deterministic)
    reads_by_origin: Dict[int, List[int]] = {}
    for read_index, origin in enumerate(ledger.origins):
        reads_by_origin.setdefault(origin, []).append(read_index)

    records: List[StrandProvenance] = []
    for strand_id in range(strands):
        record = StrandProvenance(
            strand_id=strand_id, unit=strand_id // n, column=strand_id % n
        )
        record.read_ids = reads_by_origin.get(strand_id, [])
        record.reads = len(record.read_ids)
        if ledger.read_edits:
            record.read_edits = [
                ledger.read_edits[read_index] for read_index in record.read_ids
            ]

        # clustering placements
        placement_counts: Dict[int, int] = {}
        for read_index in record.read_ids:
            cluster_id = read_cluster.get(read_index)
            if cluster_id is not None:
                placement_counts[cluster_id] = placement_counts.get(cluster_id, 0) + 1
        record.placements = [
            ClusterPlacement(
                cluster=cluster_id,
                reads=count,
                kept=cluster_id in kept_position,
                dominant=cluster_origin.get(cluster_id) == strand_id,
            )
            for cluster_id, count in sorted(placement_counts.items())
        ]

        # reconstructions attributed to this strand
        for placement in record.placements:
            if not (placement.kept and placement.dominant):
                continue
            position = kept_position[placement.cluster]
            distance = (
                ledger.consensus_distances[position]
                if position < len(ledger.consensus_distances)
                else 0
            )
            record.consensus.append(
                ConsensusOutcome(
                    cluster=placement.cluster,
                    distance=distance,
                    decoded_index=ledger.parsed_indices.get(position),
                )
            )

        # RS-plane fate of the strand's column
        outcome = ledger.unit_outcomes.get(record.unit)
        if outcome is not None:
            record.unit_failed_rows = len(outcome.failed_rows)
            record.symbols_corrected = outcome.corrections_by_column.get(
                record.column, 0
            )
            erased = record.column in outcome.erased_columns
            damaged = erased or record.symbols_corrected > 0
            if outcome.failed_rows and damaged:
                record.column_fate = "uncorrectable"
            elif erased:
                record.column_fate = "erased"
            elif record.symbols_corrected > 0:
                record.column_fate = "corrected"
            else:
                record.column_fate = "clean"

        record.verdict = _verdict(record, ledger)
        records.append(record)

    units = [ledger.unit_outcomes[unit] for unit in sorted(ledger.unit_outcomes)]
    summary = _summarize(records, units)
    return ProvenanceReport(strands=records, units=units, summary=summary)


def _verdict(record: StrandProvenance, ledger: ProvenanceLedger) -> str:
    """One root-cause verdict: first faulty stage, else the RS plane."""
    fault = _journey_fault(record, ledger)
    if fault is not None:
        return fault
    # Journey clean: any residual damage happened inside the RS plane.
    if record.column_fate in ("corrected", "erased", "uncorrectable"):
        return "ecc_overload"
    return "ok"


def _journey_fault(
    record: StrandProvenance, ledger: ProvenanceLedger
) -> Optional[str]:
    if record.reads == 0 and ledger.sequencing_recorded:
        return "dropout"
    if not ledger.clustering_recorded:
        # No lineage through the middle stages (e.g. the wetlab path):
        # the RS plane is the only evidence, handled by the caller.
        return None
    dominated = [p for p in record.placements if p.kept and p.dominant]
    if not dominated:
        if any(p.kept for p in record.placements):
            return "misclustered"
        return "underclustered"
    exact = any(
        outcome.distance == 0
        and (outcome.decoded_index in (None, record.strand_id))
        for outcome in record.consensus
    )
    if not exact:
        return "consensus_error"
    return None


def _summarize(
    records: List[StrandProvenance], units: List[UnitOutcome]
) -> ProvenanceSummary:
    verdict_counts = {verdict: 0 for verdict in VERDICTS}
    for record in records:
        verdict_counts[record.verdict] += 1

    by_unit: Dict[int, List[StrandProvenance]] = {}
    for record in records:
        by_unit.setdefault(record.unit, []).append(record)

    failed_rows = 0
    failed_row_causes: Dict[str, int] = {}
    units_failed = 0
    for outcome in units:
        if not outcome.failed_rows:
            continue
        units_failed += 1
        failed_rows += len(outcome.failed_rows)
        cause = _unit_cause(by_unit.get(outcome.unit, []))
        failed_row_causes[cause] = failed_row_causes.get(cause, 0) + len(
            outcome.failed_rows
        )

    return ProvenanceSummary(
        strands=len(records),
        reads=sum(record.reads for record in records),
        verdicts=verdict_counts,
        failed_rows=failed_rows,
        failed_row_causes=failed_row_causes,
        units_failed=units_failed,
    )


def _unit_cause(records: List[StrandProvenance]) -> str:
    """Dominant journey fault among a failed unit's damaged strands."""
    faults = [r.verdict for r in records if r.verdict in JOURNEY_FAULTS]
    if not faults:
        return "ecc_overload"
    counts = Counter(faults)
    best = max(counts.values())
    for verdict in VERDICTS:  # fixed priority breaks ties deterministically
        if counts.get(verdict) == best:
            return verdict
    return "ecc_overload"  # unreachable


# ----------------------------------------------------------------------
# Rendering (`repro why`)
# ----------------------------------------------------------------------


def render_why_summary(
    report: ProvenanceReport, title: str = "decode forensics"
) -> str:
    """The root-cause summary tables behind ``repro why``."""
    summary = report.summary
    sections: List[str] = []

    total = summary.strands or 1
    rows = [
        [verdict, str(summary.verdicts.get(verdict, 0)),
         f"{summary.verdicts.get(verdict, 0) / total:.1%}"]
        for verdict in VERDICTS
    ]
    sections.append(
        format_table(
            ["verdict", "strands", "fraction"],
            rows,
            title=f"{title} - per-strand verdicts "
            f"({summary.strands} strands, {summary.reads} reads)",
        )
    )

    if summary.failed_rows:
        rows = [
            [cause, str(count), f"{count / summary.failed_rows:.1%}"]
            for cause, count in sorted(
                summary.failed_row_causes.items(),
                key=lambda item: (-item[1], VERDICTS.index(item[0])),
            )
        ]
        sections.append(
            format_table(
                ["root cause", "failed rows", "fraction"],
                rows,
                title=f"failed RS rows by root cause "
                f"({summary.failed_rows} rows in {summary.units_failed} unit(s))",
            )
        )
    else:
        sections.append("no failed RS rows: every codeword row decoded.")

    return "\n\n".join(sections)


def render_strand_timeline(
    record: StrandProvenance, unit: Optional[UnitOutcome] = None
) -> str:
    """The full lineage timeline behind ``repro why --strand``."""
    lines = [
        f"strand {record.strand_id} — verdict: {record.verdict}",
        f"  encoded    unit {record.unit}, column {record.column}",
    ]
    if record.dropout:
        lines.append("  sequenced  0 reads (dropout)")
    else:
        edits = (
            ", edits " + "/".join(str(e) for e in record.read_edits)
            if record.read_edits
            else ""
        )
        lines.append(
            f"  sequenced  {record.reads} read(s) "
            f"(ids {', '.join(str(i) for i in record.read_ids)}{edits})"
        )
    if record.placements:
        for placement in record.placements:
            status = "kept" if placement.kept else "discarded"
            role = ", dominant origin" if placement.dominant else ""
            lines.append(
                f"  clustered  {placement.reads} read(s) -> cluster "
                f"{placement.cluster} ({status}{role})"
            )
    elif not record.dropout:
        lines.append("  clustered  no cluster information recorded")
    if record.consensus:
        for outcome in record.consensus:
            parsed = (
                "unparseable"
                if outcome.decoded_index is None
                else f"index {outcome.decoded_index}"
            )
            match = "exact" if outcome.distance == 0 else f"{outcome.distance} edits"
            lines.append(
                f"  consensus  cluster {outcome.cluster}: {match} vs reference, "
                f"decoded {parsed}"
            )
    else:
        lines.append("  consensus  none built for this strand")
    fate = record.column_fate
    detail = ""
    if fate == "corrected":
        detail = f" ({record.symbols_corrected} symbol(s) repaired)"
    elif fate == "uncorrectable":
        detail = f" (unit has {record.unit_failed_rows} failed row(s))"
    elif fate == "erased" and record.unit_failed_rows == 0:
        detail = " (recovered by erasure decoding)"
    lines.append(f"  decoded    column fate: {fate}{detail}")
    if unit is not None and unit.failed_rows:
        lines.append(
            f"  unit {unit.unit}     failed rows {unit.failed_rows}, "
            f"erased columns {unit.erased_columns}"
        )
    return "\n".join(lines)

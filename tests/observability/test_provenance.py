"""Provenance ledger tests: recording, export, and worker determinism."""

import json

import pytest

from repro.codec import EncodingParameters
from repro.observability import (
    NULL_LEDGER,
    ProvenanceLedger,
    ProvenanceReport,
    StrandProvenance,
    UnitOutcome,
    as_ledger,
    ledger_lines,
    load_ledger,
    write_ledger,
)
from repro.observability.provenance import ProvenanceSummary, dominant_origin
from repro.pipeline import Pipeline, PipelineConfig
from repro.simulation import ConstantCoverage, IIDChannel

FAST = EncodingParameters(
    payload_bytes=10, data_columns=12, parity_columns=6, index_bytes=2
)


def fast_config(**overrides) -> PipelineConfig:
    defaults = dict(
        encoding=FAST,
        channel=IIDChannel.from_total_rate(0.03),
        coverage=ConstantCoverage(5),
        seed=11,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestDominantOrigin:
    def test_majority_wins(self):
        origins = [0, 1, 1, 2]
        assert dominant_origin(origins, [0, 1, 2, 3]) == 1

    def test_tie_goes_to_first_seen_in_member_order(self):
        origins = [5, 3, 3, 5]
        assert dominant_origin(origins, [0, 1, 2, 3]) == 5
        assert dominant_origin(origins, [1, 0, 2, 3]) == 3

    def test_empty_cluster_has_no_origin(self):
        assert dominant_origin([0, 1], []) is None


class TestLedgerRecording:
    def test_pipeline_attaches_report(self):
        ledger = ProvenanceLedger()
        result = Pipeline(fast_config()).run(b"provenance!", ledger=ledger)
        report = result.provenance
        assert report is not None
        assert len(report.strands) == len(result.encoded.references)
        # strand id is the reference index: unit * n + column
        n = FAST.total_columns
        for record in report.strands:
            assert record.strand_id == record.unit * n + record.column
        assert report.summary.strands == len(report.strands)
        assert report.summary.reads == len(result.sequencing.reads)

    def test_every_strand_gets_exactly_one_verdict(self):
        ledger = ProvenanceLedger()
        result = Pipeline(fast_config()).run(b"one verdict each", ledger=ledger)
        summary = result.provenance.summary
        assert sum(summary.verdicts.values()) == summary.strands

    def test_quality_report_carries_verdict_counts(self):
        ledger = ProvenanceLedger()
        result = Pipeline(fast_config()).run(b"quality section", ledger=ledger)
        section = result.quality.provenance
        assert section is not None
        assert section.strands == result.provenance.summary.strands
        assert section.ok + section.failures == section.strands
        payload = result.quality.as_dict()
        assert payload["provenance"]["strands"] == section.strands

    def test_read_edits_recorded_per_read(self):
        ledger = ProvenanceLedger()
        result = Pipeline(fast_config()).run(b"edit distances", ledger=ledger)
        record = result.provenance.strands[0]
        assert len(record.read_edits) == record.reads

    def test_primer_configs_disable_the_ledger(self):
        from repro.codec.primers import PrimerPair

        encoding = EncodingParameters(
            payload_bytes=10,
            data_columns=12,
            parity_columns=6,
            index_bytes=2,
            primer_pair=PrimerPair(
                forward="ACGTACGTACGTACGTACGT", reverse="TGCATGCATGCATGCATGCA"
            ),
        )
        ledger = ProvenanceLedger()
        result = Pipeline(fast_config(encoding=encoding)).run(
            b"primer path", ledger=ledger
        )
        assert result.provenance is None
        assert not ledger.references  # nothing was recorded


class TestWorkerDeterminism:
    def test_ledger_byte_identical_at_any_worker_count(self):
        texts = []
        for workers in (1, 4):
            ledger = ProvenanceLedger()
            Pipeline(fast_config(workers=workers)).run(
                b"determinism across workers", ledger=ledger
            )
            texts.append("\n".join(ledger_lines(ledger.finalize())))
        assert texts[0] == texts[1]


class TestNoOpPath:
    def test_null_ledger_retains_nothing(self):
        NULL_LEDGER.record_encoding(["ACGT"], 1, 1)
        NULL_LEDGER.record_clustering([[0]], [0])
        NULL_LEDGER.record_strand_parse(0, 0)
        NULL_LEDGER.record_unit(UnitOutcome(unit=0))
        assert not NULL_LEDGER.enabled
        assert NULL_LEDGER.finalize().strands == []
        assert not hasattr(NULL_LEDGER, "references")

    def test_as_ledger_normalises_none(self):
        assert as_ledger(None) is NULL_LEDGER
        real = ProvenanceLedger()
        assert as_ledger(real) is real

    def test_pipeline_without_ledger_has_no_provenance(self):
        result = Pipeline(fast_config()).run(b"no ledger")
        assert result.provenance is None
        assert result.quality.provenance is None


class TestJSONLRoundTrip:
    def build_report(self) -> ProvenanceReport:
        ledger = ProvenanceLedger()
        result = Pipeline(fast_config()).run(b"round trip me", ledger=ledger)
        return result.provenance

    def test_round_trip_preserves_everything(self, tmp_path):
        report = self.build_report()
        path = write_ledger(report, tmp_path / "ledger.jsonl")
        loaded = load_ledger(path)
        assert len(loaded.strands) == len(report.strands)
        for original, restored in zip(report.strands, loaded.strands):
            assert restored == original
        assert loaded.units == report.units
        assert loaded.summary.verdicts == {
            v: report.summary.verdicts.get(v, 0)
            for v in loaded.summary.verdicts
        }

    def test_lines_are_self_describing_json(self):
        report = self.build_report()
        kinds = [json.loads(line)["kind"] for line in ledger_lines(report)]
        assert kinds[0] == "meta"
        assert kinds[-1] == "summary"
        assert kinds.count("strand") == len(report.strands)

    def test_newer_schema_rejected(self):
        with pytest.raises(ValueError, match="newer than supported"):
            load_ledger(['{"kind": "meta", "version": 99}'])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown ledger record"):
            load_ledger(['{"kind": "mystery"}'])

    def test_strand_record_round_trips_alone(self):
        record = StrandProvenance(
            strand_id=3, unit=0, column=3, reads=2, read_ids=[1, 9],
            read_edits=[0, 4], column_fate="corrected", symbols_corrected=1,
            verdict="ok",
        )
        assert StrandProvenance.from_dict(record.as_dict()) == record

    def test_summary_orders_keys_deterministically(self):
        summary = ProvenanceSummary(
            strands=2,
            verdicts={"ok": 1, "dropout": 1},
            failed_rows=1,
            failed_row_causes={"dropout": 1},
        )
        payload = summary.as_dict()
        assert list(payload["verdicts"]) == [
            "dropout", "underclustered", "misclustered",
            "consensus_error", "ecc_overload", "ok",
        ]

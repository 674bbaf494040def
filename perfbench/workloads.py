"""The benchmark's workloads: seeded inputs, one object round trip, its checks.

A workload is a closed loop of *objects* run by one client process; each
object is a fresh byte string generated from the run seed and its
position in the loop.  The program under test receives only those bytes
(and, for the pipeline workloads, a ``PipelineConfig.seed`` derived the
same way).

* ``nw-table3`` and ``bma-bulk`` call :meth:`repro.pipeline.Pipeline.run`
  once per object, with the ``repro pipeline`` CLI defaults (i.i.d. 6%
  errors, ``ConstantCoverage(10)``, quality assessment on).
* ``codec-bulk`` calls :meth:`DNAEncoder.encode`, damages the strands
  itself (seeded drops and single substitutions, outside the timed
  region), then calls :meth:`DNADecoder.decode`.

Every object is checked byte for byte against its input; a mismatch is
counted as a failed object, never raised.
"""

from __future__ import annotations

import hashlib
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, fields
from typing import Dict, Optional, Union

from repro.clustering.rashtchian import ClusteringConfig
from repro.codec.decoder import DNADecoder
from repro.codec.encoder import DNAEncoder, EncodingParameters
from repro.observability.trace import Tracer
from repro.pipeline import Pipeline, PipelineConfig
from repro.reconstruction.bma import BMAReconstructor
from repro.reconstruction.nw_consensus import NWConsensusReconstructor
from repro.simulation.coverage import ConstantCoverage
from repro.simulation.iid import IIDChannel

RECONSTRUCTORS = {"nwa": NWConsensusReconstructor, "bma": BMAReconstructor}
BASES = "ACGT"


@dataclass(frozen=True)
class PipelineWorkload:
    """Full simulated round trips through ``Pipeline.run``."""

    name: str
    object_bytes: int
    reconstructor: str
    workers: int
    payload_bytes: int = 30
    data_columns: int = 60
    parity_columns: int = 20
    error_rate: float = 0.06
    coverage: int = 10

    def encoding(self) -> EncodingParameters:
        return EncodingParameters(
            payload_bytes=self.payload_bytes,
            data_columns=self.data_columns,
            parity_columns=self.parity_columns,
        )

    def config(self, program_seed: int) -> PipelineConfig:
        """The ``repro pipeline`` CLI's configuration for one object."""
        return PipelineConfig(
            encoding=self.encoding(),
            channel=IIDChannel.from_total_rate(self.error_rate),
            coverage=ConstantCoverage(self.coverage),
            clustering=ClusteringConfig(signature="qgram", seed=program_seed),
            reconstructor=RECONSTRUCTORS[self.reconstructor](),
            seed=program_seed,
            workers=self.workers,
        )


@dataclass(frozen=True)
class CodecWorkload:
    """Encode, damage, decode: the codec alone, no channel simulation."""

    name: str
    object_bytes: int
    drop_frac: float = 0.05
    substitute_frac: float = 0.05
    payload_bytes: int = 30
    data_columns: int = 60
    parity_columns: int = 20

    def encoding(self) -> EncodingParameters:
        return EncodingParameters(
            payload_bytes=self.payload_bytes,
            data_columns=self.data_columns,
            parity_columns=self.parity_columns,
        )


Workload = Union[PipelineWorkload, CodecWorkload]

# Sized for a 60 s measuring window on a 2-core x86 box: nw-table3 ~4-6 s
# and bma-bulk ~6-9 s per object, codec-bulk ~3-5 s.  bma-bulk is 8 RS
# units (640 strands) rather than 12: at 12 units one object took ~15 s,
# too few samples per run for a steady median, while 8 units keep
# clustering the dominant layer (~80% of the traced object).  codec-bulk
# stays runnable but is not declared in BENCHMARK.json: its run-to-run
# spread on the sizing box exceeded every bound the benchmark may set.
WORKLOADS: Dict[str, Workload] = {
    "nw-table3": PipelineWorkload(
        name="nw-table3", object_bytes=1792, reconstructor="nwa", workers=2
    ),
    "bma-bulk": PipelineWorkload(
        name="bma-bulk", object_bytes=14392, reconstructor="bma", workers=1
    ),
    "codec-bulk": CodecWorkload(name="codec-bulk", object_bytes=1_000_000),
}


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------


def _rng(*parts: object) -> random.Random:
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def object_bytes(workload: Workload, seed: int, index: int) -> bytes:
    """The bytes of object *index* in a run seeded with *seed*."""
    return _rng(workload.name, seed, index).randbytes(workload.object_bytes)


def damage(strands, drop_frac: float, substitute_frac: float, rng: random.Random):
    """Drop a share of *strands*, give another share one substitution, shuffle.

    Each strand independently is dropped with probability *drop_frac*, else
    gets one base substituted (anywhere, index included) with probability
    *substitute_frac*.  The result is shuffled: decoding sees no order.
    """
    damaged = []
    for strand in strands:
        draw = rng.random()
        if draw < drop_frac:
            continue
        if draw < drop_frac + substitute_frac:
            position = rng.randrange(len(strand))
            shift = rng.randrange(1, 4)
            base = BASES[(BASES.index(strand[position]) + shift) % 4]
            strand = strand[:position] + base + strand[position + 1 :]
        damaged.append(strand)
    rng.shuffle(damaged)
    return damaged


# ----------------------------------------------------------------------
# One object
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    """What one object's round trip produced, and how long its calls took."""

    object_bytes: int
    ok: bool
    #: wall time of the timed public calls (``Pipeline.run``, or encode + decode)
    seconds: float
    #: the write path: ``DNAEncoder.encode`` on the codec workload; encoding
    #: plus simulated synthesis and sequencing (bytes to reads) on the
    #: pipeline workloads, from their ``StageTimings``
    write_seconds: float
    #: the read path: ``DNADecoder.decode`` on the codec workload;
    #: clustering, reconstruction and decoding (reads to bytes) on the
    #: pipeline workloads
    read_seconds: float
    strands: int
    #: reference strands absent, byte-exact, from what reached the decoder
    strands_absent: int
    #: digest of everything the program returned; a traced rerun must match it
    fingerprint: str
    #: the pipeline's own quality report (``None`` for the codec workload)
    quality: object = None


def _digest(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _strands_absent(references, delivered) -> int:
    delivered = set(delivered)
    return sum(1 for reference in references if reference not in delivered)


class Runner:
    """Runs the objects of one seeded workload run.

    Construction and :meth:`warm_up` are the run's set-up: the pipeline (or
    encoder and decoder) is built once and every object of the run reuses
    it.  Each object gets its own program seed, derived like its bytes: the
    seed drives the simulated channel and the clustering, and an object's
    cost depends on it, so a seed shared by the whole run would bias every
    object of the run the same way.
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        if isinstance(workload, PipelineWorkload):
            self._pipeline = Pipeline(self._config(0))
        else:
            self._encoder = DNAEncoder(workload.encoding())
            self._decoder = DNADecoder(workload.encoding())

    def warm_up(self) -> None:
        """Fill the codec's lazily built tables with a small round trip.

        The codec workload warms its own encoder and decoder; a pipeline
        keeps its codec private, so only the module-level tables are warmed
        and its first object builds the per-instance ones.

        One strand is dropped and one gets a payload substitution, so the
        decode runs all three decoder tiers (screen, erasure solve, errata).
        """
        params = self.workload.encoding()
        if isinstance(self.workload, CodecWorkload):
            encoder, decoder = self._encoder, self._decoder
        else:
            encoder, decoder = DNAEncoder(params), DNADecoder(params)
        data = bytes(range(256)) * 4
        encoded = encoder.encode(data)
        strands = list(encoded.references[1:])
        last = strands[0][-1]
        strands[0] = strands[0][:-1] + BASES[(BASES.index(last) + 1) % 4]
        decoded, _ = decoder.decode(strands, expected_units=encoded.num_units)
        if decoded != data:
            raise RuntimeError("warm-up round trip did not reproduce its input")

    def _config(self, index: int) -> PipelineConfig:
        """The pipeline configuration, with its seed, of object *index*."""
        program_seed = _rng(self.workload.name, self.seed, index, "program").getrandbits(32)
        return self.workload.config(program_seed)

    def run(self, index: int, tracer: Optional[Tracer] = None, recorder=None) -> Outcome:
        """Round-trip object *index*; *recorder* spans the timed calls."""
        data = object_bytes(self.workload, self.seed, index)
        if isinstance(self.workload, PipelineWorkload):
            self._pipeline.config = self._config(index)
            return self._run_pipeline(data, tracer, recorder)
        damage_rng = _rng(self.workload.name, self.seed, index, "damage")
        return self._run_codec(data, damage_rng, tracer)

    def _run_pipeline(self, data, tracer, recorder) -> Outcome:
        with recorder.span("pipeline.run") if recorder is not None else nullcontext():
            start = time.perf_counter()
            result = self._pipeline.run(data, tracer=tracer)
            seconds = time.perf_counter() - start
        return Outcome(
            object_bytes=len(data),
            ok=result.data == data,
            seconds=seconds,
            write_seconds=result.timings.encoding + result.timings.simulation,
            read_seconds=result.timings.clustering
            + result.timings.reconstruction
            + result.timings.decoding,
            strands=len(result.encoded.references),
            strands_absent=_strands_absent(
                result.encoded.references, result.reconstructions
            ),
            fingerprint=_digest(result.data, result.reconstructions),
            quality=result.quality,
        )

    def _run_codec(self, data, damage_rng, tracer) -> Outcome:
        workload = self.workload
        start = time.perf_counter()
        encoded = self._encoder.encode(data)
        write_seconds = time.perf_counter() - start
        damaged = damage(
            encoded.references, workload.drop_frac, workload.substitute_frac, damage_rng
        )
        start = time.perf_counter()
        decoded, report = self._decoder.decode(
            damaged, expected_units=encoded.num_units, tracer=tracer
        )
        read_seconds = time.perf_counter() - start
        report_fields = tuple(
            (field.name, getattr(report, field.name)) for field in fields(report)
        )
        return Outcome(
            object_bytes=len(data),
            ok=decoded == data,
            seconds=write_seconds + read_seconds,
            write_seconds=write_seconds,
            read_seconds=read_seconds,
            strands=len(encoded.references),
            strands_absent=_strands_absent(encoded.references, damaged),
            fingerprint=_digest(decoded, encoded.strands, report_fields),
        )

"""Sequencing coverage models and whole-pool sequencing.

Synthesis produces millions of physical copies of each designed strand; PCR
and sampling then determine how many *reads* of each strand the sequencer
reports.  The average reads-per-strand is the *sequencing coverage*
(Section II-E).  Real coverage is overdispersed — some strands are read far
more often than others and a few drop out entirely — which the
negative-binomial model captures.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dna.readpool import ReadPool, as_read_pool
from repro.observability.trace import worker_span
from repro.parallel import WorkerPool, derive_seed
from repro.simulation.channel import Channel


class CoverageModel(ABC):
    """Distribution of the number of reads obtained per designed strand."""

    @abstractmethod
    def sample(self, rng: random.Random) -> int:
        """Draw a read count for one strand."""

    def sample_for(self, strand_index: int, rng: random.Random) -> int:
        """Draw a read count for the strand at *strand_index*.

        The default ignores the index and delegates to :meth:`sample`
        (consuming the RNG identically, so existing seeds reproduce).
        Index-aware models — :class:`InjectedDropoutCoverage` — override
        this to target specific strands.
        """
        return self.sample(rng)


class ConstantCoverage(CoverageModel):
    """Exactly *coverage* reads per strand (the paper's Table II/III setup)."""

    def __init__(self, coverage: int):
        if coverage < 0:
            raise ValueError(f"coverage must be non-negative, got {coverage}")
        self.coverage = coverage

    def sample(self, rng: random.Random) -> int:
        return self.coverage


class PoissonCoverage(CoverageModel):
    """Poisson-distributed read counts (ideal random sampling)."""

    def __init__(self, mean: float):
        if mean < 0:
            raise ValueError(f"mean must be non-negative, got {mean}")
        self.mean = mean

    def sample(self, rng: random.Random) -> int:
        # Knuth's algorithm is fine for the means used here (< ~100).
        threshold = math.exp(-self.mean)
        count, product = 0, rng.random()
        while product > threshold:
            count += 1
            product *= rng.random()
        return count


class NegativeBinomialCoverage(CoverageModel):
    """Overdispersed read counts (gamma-mixed Poisson).

    ``dispersion`` is the gamma shape; smaller values mean more skewed
    coverage.  As ``dispersion -> inf`` this converges to Poisson.
    """

    def __init__(self, mean: float, dispersion: float = 4.0):
        if mean < 0:
            raise ValueError(f"mean must be non-negative, got {mean}")
        if dispersion <= 0:
            raise ValueError(f"dispersion must be positive, got {dispersion}")
        self.mean = mean
        self.dispersion = dispersion

    def sample(self, rng: random.Random) -> int:
        rate = rng.gammavariate(self.dispersion, self.mean / self.dispersion)
        return PoissonCoverage(rate).sample(rng)


class InjectedDropoutCoverage(CoverageModel):
    """Wrap a coverage model and force chosen strands to zero reads.

    A fault-injection harness for the provenance forensics: the wrapped
    model decides every other strand's count (drawing from the RNG even
    for dropped strands, so the rest of the run is bit-for-bit identical
    to the uninjected baseline).
    """

    def __init__(self, base: CoverageModel, drop: List[int]):
        self.base = base
        self.drop = frozenset(drop)

    def sample(self, rng: random.Random) -> int:
        return self.base.sample(rng)

    def sample_for(self, strand_index: int, rng: random.Random) -> int:
        count = self.base.sample_for(strand_index, rng)
        return 0 if strand_index in self.drop else count


@dataclass
class SequencingRun:
    """The output of sequencing a pool: noisy reads plus ground truth.

    ``origins[i]`` is the index (into ``references``) of the strand that
    produced ``reads[i]`` — the label clustering is evaluated against.
    ``dropouts`` lists reference indices that received zero reads.
    """

    reads: List[str]
    origins: List[int]
    references: List[str]
    dropouts: List[int] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        """Mean reads per reference strand."""
        if not self.references:
            return 0.0
        return len(self.reads) / len(self.references)

    def true_clusters(self) -> Dict[int, List[int]]:
        """Ground-truth clustering: reference index -> read indices."""
        clusters: Dict[int, List[int]] = {}
        for read_index, origin in enumerate(self.origins):
            clusters.setdefault(origin, []).append(read_index)
        return clusters

    def read_pool(self) -> ReadPool:
        """Columnar :class:`~repro.dna.readpool.ReadPool` over ``reads``.

        Built lazily and cached against the identity of the current read
        list, so every batched consumer (per-read edit distances,
        clustering, consensus) shares one encoding pass.  Raises
        :class:`ValueError` when a read is outside latin-1.
        """
        cached = getattr(self, "_read_pool_cache", None)
        if cached is None or cached[0] is not self.reads:
            cached = (self.reads, as_read_pool(self.reads))
            self._read_pool_cache = cached
        return cached[1]


def _sequence_chunk(indexed_references, extra):
    """Worker entry point: sequence a contiguous slice of the pool.

    Every strand runs under its own RNG derived from the pool seed and
    its index, so the result depends only on ``(seed, index)`` — not on
    which worker or chunk the strand landed in.
    """
    channel, coverage, base_seed = extra
    per_strand = []
    with worker_span(
        "simulation.sequence_strands", strands=len(indexed_references)
    ) as span:
        for reference_index, reference in indexed_references:
            strand_rng = random.Random(
                derive_seed(base_seed, "strand", reference_index)
            )
            count = coverage.sample_for(reference_index, strand_rng)
            reads = [
                read
                for read in channel.transmit_many(reference, count, strand_rng)
                if read
            ]
            per_strand.append((reference_index, count, reads))
        span.set("reads", sum(len(reads) for _, _, reads in per_strand))
    return per_strand


def sequence_pool(
    references: List[str],
    channel: Channel,
    coverage: CoverageModel,
    rng: Optional[random.Random] = None,
    shuffle: bool = True,
    seed: Optional[int] = None,
    pool: Optional[WorkerPool] = None,
) -> SequencingRun:
    """Simulate sequencing a pool of strands.

    Each reference strand receives a read count drawn from *coverage*; each
    read is an independent transmission through *channel*.  Reads are
    shuffled by default, because a sequencer does not report reads grouped
    by molecule — clustering has to undo exactly this mixing.

    Randomness is governed by *seed* (falling back to one drawn from *rng*):
    every strand gets its own derived RNG stream and the shuffle its own,
    so the run can be sharded across a
    :class:`~repro.parallel.WorkerPool` and still produce byte-identical
    output at any worker count.
    """
    if seed is None:
        seed = (rng or random.Random()).getrandbits(64)
    extra = (channel, coverage, seed)
    indexed = list(enumerate(references))
    if pool is None:
        chunks = [_sequence_chunk(indexed, extra)]
    else:
        chunks = pool.run_chunks(_sequence_chunk, indexed, extra)

    reads: List[str] = []
    origins: List[int] = []
    dropouts: List[int] = []
    for per_strand in chunks:
        for reference_index, count, strand_reads in per_strand:
            if count == 0:
                dropouts.append(reference_index)
                continue
            reads.extend(strand_reads)
            origins.extend(reference_index for _ in strand_reads)
    if shuffle:
        shuffle_rng = random.Random(derive_seed(seed, "shuffle"))
        order = list(range(len(reads)))
        shuffle_rng.shuffle(order)
        reads = [reads[i] for i in order]
        origins = [origins[i] for i in order]
    return SequencingRun(
        reads=reads, origins=origins, references=list(references), dropouts=dropouts
    )

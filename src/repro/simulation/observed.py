"""Observed channel-quality estimation.

A simulation channel is configured with nominal error rates, but what the
rest of the pipeline experiences is the *realised* noise in the reads it
emitted.  This module measures that directly: a sample of reads is
globally aligned against the strands that produced them (the same
Needleman-Wunsch attribution the learned channel models use when fitting)
and the implied substitution / insertion / deletion counts are normalised
per reference base.

The result is the :class:`~repro.observability.quality.ChannelQuality`
section of the pipeline's quality report — the live counterpart of
Table I's simulator-fidelity metrics, and the number ``repro bench``
gates on so a channel refactor cannot silently drift from its configured
rates.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.dna.alignment import edit_operations
from repro.dna.distance_batch import myers_levenshtein_batch
from repro.observability.quality import ChannelQuality
from repro.parallel import WorkerPool
from repro.simulation.coverage import SequencingRun

#: Default cap on reads aligned per run; alignment is O(len^2) per read,
#: and a few hundred reads pin the rate estimates to well under a percent.
DEFAULT_SAMPLE = 200


def _origin_edit_chunk(groups, _extra) -> List[List[int]]:
    """Worker entry point: batched edit distances for (reference, reads) groups.

    Each group shares one reference, so its Myers bitvector masks are
    packed once and every read of that origin is swept in uint64 lanes.
    ``myers_levenshtein_batch`` is exact (identical to
    :func:`~repro.dna.distance.levenshtein_distance` per pair), so the
    merged result matches the scalar pair loop byte for byte.
    """
    return [
        myers_levenshtein_batch(reference, reads).tolist()
        for reference, reads in groups
    ]


def per_read_edit_distances(
    run: SequencingRun, pool: Optional[WorkerPool] = None
) -> List[int]:
    """Edit distance of *every* read to its origin reference, in read order.

    Where :func:`observe_channel_quality` samples reads to estimate rates,
    this aligns the full run — it feeds the provenance ledger, which needs
    a per-read number, not an aggregate.  Reads are grouped by origin so
    each reference's Myers masks are built once and its reads are compared
    in one batched uint64-lane sweep; groups shard over *pool*
    (:meth:`~repro.parallel.WorkerPool.map_chunks` preserves item order)
    and results scatter back to read order, so the output is identical at
    any worker count.
    """
    positions_by_origin: "dict[int, List[int]]" = {}
    for position, origin in enumerate(run.origins):
        positions_by_origin.setdefault(origin, []).append(position)
    read_pool = run.read_pool()
    groups = [
        (run.references[origin], read_pool.view(positions))
        for origin, positions in positions_by_origin.items()
    ]
    if pool is None:
        per_group = _origin_edit_chunk(groups, None)
    else:
        per_group = pool.map_chunks(_origin_edit_chunk, groups, None)
    distances = [0] * len(run.reads)
    for (_, positions), group_distances in zip(
        positions_by_origin.items(), per_group
    ):
        for position, distance in zip(positions, group_distances):
            distances[position] = distance
    return distances


def observe_channel_quality(
    run: SequencingRun,
    channel: Optional[object] = None,
    sample: int = DEFAULT_SAMPLE,
    seed: int = 0,
) -> Optional[ChannelQuality]:
    """Estimate realised error rates for one sequencing run.

    Parameters
    ----------
    run:
        The simulated run; ``origins`` pairs every read with its
        reference strand.
    channel:
        The channel that produced the run.  When it implements
        ``expected_rates()`` (e.g. :class:`~repro.simulation.iid.IIDChannel`),
        the configured rates are recorded next to the observed ones.
    sample:
        Maximum reads to align (0 disables observation entirely).
    seed:
        Sampling seed; sampling is deterministic for a given run.

    Returns ``None`` when observation is disabled or the run is empty.
    """
    if sample <= 0 or not run.reads:
        return None
    indices = list(range(len(run.reads)))
    if len(indices) > sample:
        indices = random.Random(seed).sample(indices, sample)

    substitutions = insertions = deletions = 0
    bases = 0
    length_delta_sum = 0
    max_length_delta = 0
    for index in indices:
        read = run.reads[index]
        reference = run.references[run.origins[index]]
        for op in edit_operations(reference, read):
            if op.kind == "sub":
                substitutions += 1
            elif op.kind == "ins":
                insertions += 1
            elif op.kind == "del":
                deletions += 1
        bases += len(reference)
        delta = len(read) - len(reference)
        length_delta_sum += delta
        max_length_delta = max(max_length_delta, abs(delta))

    expected = getattr(channel, "expected_rates", None)
    expected_rates = expected() if callable(expected) else None

    return ChannelQuality(
        reads_sampled=len(indices),
        bases_compared=bases,
        substitution_rate=substitutions / bases if bases else 0.0,
        insertion_rate=insertions / bases if bases else 0.0,
        deletion_rate=deletions / bases if bases else 0.0,
        mean_length_delta=length_delta_sum / len(indices),
        max_length_delta=max_length_delta,
        expected_substitution_rate=(
            expected_rates.get("sub") if expected_rates else None
        ),
        expected_insertion_rate=(
            expected_rates.get("ins") if expected_rates else None
        ),
        expected_deletion_rate=(
            expected_rates.get("del") if expected_rates else None
        ),
    )

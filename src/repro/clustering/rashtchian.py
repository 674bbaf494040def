"""The distributed clustering algorithm of Rashtchian et al. (Section VI).

Every read starts as a singleton cluster.  Each round:

1. a random *anchor* of ``anchor_length`` bases is drawn;
2. one representative read is sampled from every current cluster;
3. clusters are bucketed by the ``partition_length`` bases following the
   anchor's first occurrence in the representative (clusters whose
   representative lacks the anchor sit the round out);
4. within each bucket, representatives are compared via their precomputed
   gram signatures: distances below ``theta_low`` merge immediately,
   distances above ``theta_high`` are dismissed immediately, and only the
   gray zone in between pays for a (banded) edit-distance computation.

The signature flavour is pluggable: binary **q-gram** signatures compared
with Hamming distance (the baseline) or positional **w-gram** signatures
compared with the L1 norm (the paper's variant, which widens the gap
between unrelated reads and so trims gray-zone edit-distance calls).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.dna.alphabet import random_sequence
from repro.dna.distance import _pattern_masks, levenshtein_distance, myers_levenshtein_fixed
from repro.dna.distance_batch import myers_levenshtein_batch
from repro.dna.qgram import QGramSignature, WGramSignature, sample_grams
from repro.dna.readpool import ReadPool, as_read_pool
from repro.observability.trace import Tracer, as_tracer, worker_span
from repro.parallel import WorkerPool
from repro.clustering.thresholds import (
    ThresholdEstimate,
    estimate_thresholds,
    sample_signature_distances,
)
from repro.clustering.unionfind import UnionFind


@dataclass
class ClusteringConfig:
    """Knobs of the clustering algorithm; defaults follow the paper's setup."""

    #: "qgram" (binary signatures, Hamming) or "wgram" (positions, L1)
    signature: str = "qgram"
    #: number of grams in every signature
    num_grams: int = 96
    #: gram length (the q in q-gram)
    gram_length: int = 4
    #: random anchor length used for partitioning
    anchor_length: int = 4
    #: number of bases after the anchor that form the bucket key
    partition_length: int = 3
    #: merging rounds
    rounds: int = 32
    #: signature distance below which clusters merge without an edit check
    theta_low: Optional[float] = None
    #: signature distance above which clusters never merge
    theta_high: Optional[float] = None
    #: edit distance at or below which gray-zone representatives merge;
    #: defaults to 33% of the median read length
    edit_threshold: Optional[int] = None
    #: after the anchored rounds, rescue straggler clusters of at most this
    #: size by comparing them against every cluster (0 disables the sweep)
    sweep_max_size: int = 5
    #: edit-checked merge candidates per straggler during the final sweep
    sweep_candidates: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.signature not in ("qgram", "wgram"):
            raise ValueError(
                f"signature must be 'qgram' or 'wgram', got {self.signature!r}"
            )
        if self.rounds <= 0:
            raise ValueError("rounds must be positive")
        if self.num_grams <= 0 or self.gram_length <= 0:
            raise ValueError("num_grams and gram_length must be positive")
        if (self.theta_low is None) != (self.theta_high is None):
            raise ValueError("set both thresholds or neither (auto mode)")
        if self.theta_low is not None and self.theta_low > self.theta_high:
            raise ValueError("theta_low must not exceed theta_high")


@dataclass
class ClusteringResult:
    """Clusters (as read-index lists) plus run statistics."""

    clusters: List[List[int]]
    theta_low: float
    theta_high: float
    signature_seconds: float
    clustering_seconds: float
    signature_comparisons: int = 0
    edit_comparisons: int = 0
    merges: int = 0
    threshold_estimate: Optional[ThresholdEstimate] = None

    @property
    def total_seconds(self) -> float:
        return self.signature_seconds + self.clustering_seconds


def _compute_signatures_chunk(reads, extra):
    """Worker entry point for parallel signature precomputation."""
    flavour, grams = extra
    with worker_span("clustering.signature_chunk", reads=len(reads)):
        scheme = (
            QGramSignature(grams) if flavour == "qgram" else WGramSignature(grams)
        )
        return scheme.compute_batch(reads)


#: below this many texts sharing a representative, the masks-reuse scalar
#: kernel beats the lane setup cost of the batched one
_BATCH_MIN_LANES = 64


def _verdict_block(pattern: str, texts, threshold: int) -> List[bool]:
    """Gray-zone verdicts of one representative against many candidates.

    Wide blocks sweep all candidates through the uint64-lane batch kernel;
    narrow ones run the scalar kernel with the pattern masks built once for
    the whole block.  Either way each verdict equals
    ``levenshtein_distance(pattern, text, bound=threshold) <= threshold``.
    """
    if len(texts) >= _BATCH_MIN_LANES:
        distances = myers_levenshtein_batch(pattern, texts, bound=threshold)
        return [bool(distance <= threshold) for distance in distances]
    masks = _pattern_masks(pattern)
    return [
        myers_levenshtein_fixed(pattern, text, bound=threshold, masks=masks)
        <= threshold
        for text in texts
    ]


def _edit_verdict_indices_chunk(pairs, extra):
    """Worker entry point: gray-zone verdicts for sub-pool index pairs.

    Pairs are grouped by their left representative so each group runs as
    one :func:`_verdict_block` against a view of the shipped sub-pool.
    """
    subpool, threshold = extra
    with worker_span("clustering.edit_verdicts_chunk", pairs=len(pairs)):
        groups: dict = {}
        for position, (left, right) in enumerate(pairs):
            groups.setdefault(left, []).append((position, right))
        verdicts = [False] * len(pairs)
        for left, entries in groups.items():
            texts = subpool.view([right for _, right in entries])
            block = _verdict_block(subpool[left], texts, threshold)
            for (position, _), verdict in zip(entries, block):
                verdicts[position] = verdict
        return verdicts


class RashtchianClusterer:
    """Multi-round signature-gated merge clustering."""

    def __init__(self, config: Optional[ClusteringConfig] = None):
        self.config = config or ClusteringConfig()

    def cluster(
        self,
        reads: Sequence[str],
        tracer: Optional[Tracer] = None,
        pool: Optional[WorkerPool] = None,
    ) -> ClusteringResult:
        """Cluster *reads*; returns read-index clusters and statistics.

        When a :class:`~repro.observability.Tracer` is supplied the run
        emits ``clustering.signatures`` / ``clustering.thresholds`` /
        ``clustering.rounds`` / ``clustering.sweep`` spans and flushes
        the comparison/merge counts into its metrics registry.  Signature
        precomputation and gray-zone edit verdicts fan out over *pool*
        (in-process when none is supplied); results are identical at any
        worker count.  Raises :class:`ValueError` on an empty read set or
        a read outside latin-1.
        """
        if not reads:
            raise ValueError("cannot cluster an empty read set")
        config = self.config
        tracer = as_tracer(tracer)
        pool = pool if pool is not None else WorkerPool()
        rng = random.Random(config.seed)
        # Columnar plane: reads normalise to a ReadPool (zero-copy when the
        # caller already built one), so signatures batch over the flat code
        # array and gray-zone verdicts ship compact index pairs.
        read_pool = as_read_pool(reads)
        texts = read_pool.to_strings()
        grams = sample_grams(config.num_grams, config.gram_length, rng)
        distance: Callable = (
            QGramSignature if config.signature == "qgram" else WGramSignature
        ).distance

        with tracer.span(
            "clustering.signatures", reads=len(reads), flavour=config.signature
        ) as signature_span:
            signatures = pool.map_chunks(
                _compute_signatures_chunk, read_pool, (config.signature, grams)
            )
            signature_span.set("shards", pool.last_shards)

        with tracer.span("clustering.merge") as merge_span:
            with tracer.span("clustering.thresholds") as span:
                estimate: Optional[ThresholdEstimate] = None
                if config.theta_low is None:
                    try:
                        sampled = sample_signature_distances(
                            signatures, distance, rng=rng
                        )
                        estimate = estimate_thresholds(sampled)
                        theta_low, theta_high = (
                            estimate.theta_low,
                            estimate.theta_high,
                        )
                    except ValueError:
                        # Too few reads to estimate the inter-cluster mode:
                        # route every in-bucket pair through the
                        # edit-distance check, which is affordable at
                        # exactly these small scales.
                        theta_low, theta_high = 0.0, float("inf")
                else:
                    theta_low, theta_high = config.theta_low, config.theta_high
                span.set("theta_low", theta_low)
                span.set("theta_high", theta_high)

            lengths = sorted(len(read) for read in texts)
            edit_threshold = config.edit_threshold
            if edit_threshold is None:
                edit_threshold = max(4, int(0.33 * lengths[len(lengths) // 2]))

            result = ClusteringResult(
                clusters=[],
                theta_low=theta_low,
                theta_high=theta_high,
                signature_seconds=signature_span.duration,
                clustering_seconds=0.0,
                threshold_estimate=estimate,
            )

            union = UnionFind(len(reads))
            members: List[List[int]] = [[index] for index in range(len(reads))]
            # Gray-zone verdicts are deterministic per read pair; memoise
            # them so representatives re-drawn across rounds never pay twice.
            edit_memo: dict = {}
            with tracer.span("clustering.rounds", rounds=config.rounds) as span:
                for _ in range(config.rounds):
                    self._run_round(
                        texts,
                        read_pool,
                        signatures,
                        distance,
                        union,
                        members,
                        theta_low,
                        theta_high,
                        edit_threshold,
                        rng,
                        result,
                        edit_memo,
                        pool,
                    )
                span.set("merges", result.merges)
            with tracer.span("clustering.sweep") as span:
                merges_before_sweep = result.merges
                for _ in range(3):
                    if config.sweep_max_size <= 0:
                        break
                    merges_before = result.merges
                    self._final_sweep(
                        texts,
                        signatures,
                        distance,
                        union,
                        members,
                        theta_low,
                        edit_threshold,
                        rng,
                        result,
                        edit_memo,
                    )
                    if result.merges == merges_before:
                        break
                span.set("merges", result.merges - merges_before_sweep)
            result.clusters = [
                sorted(members[root])
                for root in range(len(reads))
                if union.find(root) == root
            ]
        result.clustering_seconds = merge_span.duration

        metrics = tracer.metrics
        metrics.counter("signature_comparisons").inc(result.signature_comparisons)
        metrics.counter("edit_comparisons").inc(result.edit_comparisons)
        metrics.counter("cluster_merges").inc(result.merges)
        return result

    def _final_sweep(
        self,
        reads: Sequence[str],
        signatures: List[np.ndarray],
        distance: Callable,
        union: UnionFind,
        members: List[List[int]],
        theta_low: float,
        edit_threshold: int,
        rng: random.Random,
        result: ClusteringResult,
        edit_memo: dict,
    ) -> None:
        """Rescue straggler clusters the anchored rounds left behind.

        Small clusters are compared against a representative of *every*
        cluster (no anchor gate), and their few nearest signature
        neighbours are edit-checked regardless of ``theta_high`` — at high
        error rates true siblings routinely land above it, and the bounded
        edit check is the reliable arbiter.  This trades a vectorised
        signature scan — cheap — for the many extra anchored rounds the
        long tail of unlucky clusters would otherwise need.
        """
        config = self.config
        roots = [r for r in range(len(reads)) if union.find(r) == r]
        if len(roots) < 2:
            return
        reps = {root: rng.choice(members[root]) for root in roots}
        matrix = np.stack([signatures[reps[root]] for root in roots]).astype(np.int64)
        root_positions = {root: position for position, root in enumerate(roots)}

        for root in roots:
            if union.find(root) != root:
                continue  # merged earlier in this sweep
            if len(members[root]) > config.sweep_max_size:
                continue
            rep = reps[root]
            distances = np.abs(matrix - signatures[rep].astype(np.int64)).sum(axis=1)
            distances[root_positions[root]] = np.iinfo(np.int64).max
            result.signature_comparisons += len(roots) - 1
            nearest = np.argsort(distances, kind="stable")[: config.sweep_candidates]
            for position in nearest:
                other_root = union.find(roots[position])
                if other_root == union.find(root):
                    continue
                other_rep = reps[roots[position]]
                if distances[position] > theta_low:
                    pair = (rep, other_rep) if rep < other_rep else (other_rep, rep)
                    verdict = edit_memo.get(pair)
                    if verdict is None:
                        result.edit_comparisons += 1
                        edit = levenshtein_distance(
                            reads[rep], reads[other_rep], bound=edit_threshold
                        )
                        verdict = edit <= edit_threshold
                        edit_memo[pair] = verdict
                    if not verdict:
                        continue
                self._merge(union, members, union.find(root), other_root)
                result.merges += 1
                break

    # ------------------------------------------------------------------

    def _run_round(
        self,
        reads: Sequence[str],
        read_pool: ReadPool,
        signatures: List[np.ndarray],
        distance: Callable,
        union: UnionFind,
        members: List[List[int]],
        theta_low: float,
        theta_high: float,
        edit_threshold: int,
        rng: random.Random,
        result: ClusteringResult,
        edit_memo: dict,
        pool: WorkerPool,
    ) -> None:
        config = self.config
        anchor = random_sequence(config.anchor_length, rng)
        key_length = config.partition_length

        buckets: dict = {}
        for root in range(len(reads)):
            if union.find(root) != root:
                continue
            representative = rng.choice(members[root])
            read = reads[representative]
            position = read.find(anchor)
            if position < 0:
                continue
            key_start = position + len(anchor)
            key = read[key_start : key_start + key_length]
            if len(key) < key_length:
                continue
            buckets.setdefault(key, []).append((root, representative))

        # Phase 1: signature screening.  Pairs below theta_low merge
        # outright; gray-zone pairs are queued for edit-distance checks.
        immediate: List[tuple] = []
        gray: List[tuple] = []
        for bucket in buckets.values():
            if len(bucket) < 2:
                continue
            for i in range(len(bucket)):
                root_i, rep_i = bucket[i]
                for j in range(i + 1, len(bucket)):
                    root_j, rep_j = bucket[j]
                    if union.connected(root_i, root_j):
                        continue
                    result.signature_comparisons += 1
                    sig_distance = distance(signatures[rep_i], signatures[rep_j])
                    if sig_distance > theta_high:
                        continue
                    if sig_distance <= theta_low:
                        immediate.append((root_i, root_j))
                        self._merge(union, members, root_i, root_j)
                        result.merges += 1
                    else:
                        gray.append((root_i, root_j, rep_i, rep_j))

        # Phase 2: edit-distance arbitration of the gray zone, optionally
        # fanned out over worker processes (the paper's distributed mode:
        # edit distance dominates clustering cost at realistic error rates).
        verdicts = self._gray_zone_verdicts(
            read_pool, gray, edit_threshold, result, edit_memo, pool
        )
        for (root_i, root_j, _, _), verdict in zip(gray, verdicts):
            if not verdict or union.connected(root_i, root_j):
                continue
            self._merge(union, members, root_i, root_j)
            result.merges += 1

    def _gray_zone_verdicts(
        self,
        read_pool: ReadPool,
        gray: List[tuple],
        edit_threshold: int,
        result: ClusteringResult,
        edit_memo: dict,
        pool: WorkerPool,
    ) -> List[bool]:
        """Evaluate queued gray-zone pairs, using workers when configured."""
        verdicts: List[Optional[bool]] = []
        unresolved: List[Tuple[int, int, int]] = []  # (gray idx, rep_i, rep_j)
        for index, (_, _, rep_i, rep_j) in enumerate(gray):
            pair = (rep_i, rep_j) if rep_i < rep_j else (rep_j, rep_i)
            cached = edit_memo.get(pair)
            verdicts.append(cached)
            if cached is None:
                unresolved.append((index, pair[0], pair[1]))

        result.edit_comparisons += len(unresolved)
        if not unresolved:
            return [bool(v) for v in verdicts]

        # Ship one compact sub-pool of the involved representatives plus
        # int index pairs instead of string pairs.
        unique = sorted({rep for _, a, b in unresolved for rep in (a, b)})
        remap = {read_index: position for position, read_index in enumerate(unique)}
        subpool = read_pool.subset(unique)
        index_pairs = [(remap[a], remap[b]) for _, a, b in unresolved]
        resolved = pool.map_chunks(
            _edit_verdict_indices_chunk, index_pairs, (subpool, edit_threshold)
        )

        for (index, a, b), verdict in zip(unresolved, resolved):
            edit_memo[(a, b)] = verdict
            verdicts[index] = verdict
        return [bool(v) for v in verdicts]

    @staticmethod
    def _merge(
        union: UnionFind, members: List[List[int]], left: int, right: int
    ) -> None:
        # left/right may be stale (already merged into another root this
        # round); resolve to the live roots before moving member lists.
        root_left, root_right = union.find(left), union.find(right)
        if root_left == root_right:
            return
        union.union(root_left, root_right)
        winner = union.find(root_left)
        loser = root_left if winner == root_right else root_right
        members[winner].extend(members[loser])
        members[loser] = []

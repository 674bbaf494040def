"""Matrix consensus kernels: whole-batch column votes over stacked clusters.

The scalar reconstructors walk every cluster position-by-position with a
``Counter`` per column; for a pool of clusters that is thousands of tiny
Python loops.  This module stacks *all* clusters of a batch into one padded
``uint8`` code matrix (rows = reads, ``starts`` delimiting clusters, pad
code 4) and advances every cluster's vote in lockstep:

* :func:`majority_consensus_batch` — per-column base counts via one
  ``bincount`` over ``cluster_id * 5 + code`` keys, ``argmax`` in ACGT
  order (first maximum = lexicographically smallest base, exactly the
  scalar ``Counter``/sorted tie-break);
* :func:`bma_consensus_batch` — the BMA-lookahead loop with the column
  vote, reference window and realignment scoring vectorized over every
  read lane of every cluster at once.

Both are byte-identical to their scalar counterparts
(:class:`~repro.reconstruction.majority.MajorityVoteReconstructor` and
:class:`~repro.reconstruction.bma.BMAReconstructor._run`), which stay in
the tree as the oracles the property tests compare against.  Clusters are
gathered into one :class:`~repro.dna.readpool.ReadPoolView` (zero-copy
for views of one pool, one concatenation for views of several); a batch
with any read off the ACGT alphabet is rejected by :func:`stack_clusters`
(returns ``None``) and the callers fall back to the scalar path.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.dna.alphabet import BASES
from repro.dna.readpool import PAD_CODE, concat_views

_BASES_U8 = np.frombuffer(BASES.encode("ascii"), dtype=np.uint8)


def stack_clusters(
    clusters: Sequence[Sequence[str]],
) -> "Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]":
    """Stack *clusters* into ``(matrix, lengths, starts)`` or ``None``.

    ``matrix`` is ``(total_reads, max_len)`` uint8 base codes padded with
    :data:`~repro.dna.readpool.PAD_CODE`; ``starts`` has ``len(clusters)+1``
    entries delimiting each cluster's row block.  Returns ``None`` when any
    read falls off the ACGT fast path (callers use the scalar
    reconstructors there).  Raises :class:`ValueError` when a cluster has
    no non-empty read, mirroring ``Reconstructor._validate``.
    """
    starts = np.zeros(len(clusters) + 1, dtype=np.int64)
    np.cumsum([len(cluster) for cluster in clusters], out=starts[1:])
    reads = concat_views(clusters)
    if not reads.is_acgt:
        return None
    matrix, lengths = reads.padded_codes()
    # Same contract as Reconstructor._validate: a cluster of only empty
    # reads (or no reads) has nothing to vote with.
    cluster_max = np.zeros(len(clusters), dtype=np.int64)
    np.maximum.at(cluster_max, _cluster_ids(starts), lengths)
    if np.any(cluster_max == 0):
        raise ValueError("cluster must contain at least one non-empty read")
    return matrix, lengths, starts


def _cluster_ids(starts: np.ndarray) -> np.ndarray:
    """Row -> cluster index map for a ``starts`` boundary array."""
    counts = np.diff(starts)
    return np.repeat(np.arange(counts.size, dtype=np.int64), counts)


def _codes_to_strings(consensus: np.ndarray) -> List[str]:
    """Decode a ``(clusters, length)`` consensus code matrix to strings."""
    if consensus.size == 0:
        return ["" for _ in range(consensus.shape[0])]
    text = _BASES_U8[consensus]
    return [row.tobytes().decode("ascii") for row in text]


def majority_consensus_batch(
    matrix: np.ndarray,
    lengths: np.ndarray,
    starts: np.ndarray,
    expected_length: int,
) -> List[str]:
    """Column-wise plurality for every cluster at once.

    Byte-identical to ``MajorityVoteReconstructor.reconstruct`` per
    cluster: among tied top counts the lexicographically smallest base
    wins (``argmax`` returns the first maximum, and rows are in ACGT
    order), and columns where every read has ended vote ``A`` (all-zero
    counts also argmax to 0).
    """
    cluster_count = starts.size - 1
    width = min(matrix.shape[1], expected_length)
    consensus = np.zeros((cluster_count, expected_length), dtype=np.uint8)
    if width and matrix.shape[0]:
        window = matrix[:, :width]
        counts = np.empty((cluster_count, width, 4), dtype=np.int64)
        segments = starts[:-1]
        for base in range(4):
            counts[:, :, base] = np.add.reduceat(
                window == base, segments, axis=0, dtype=np.int64
            )
        consensus[:, :width] = np.argmax(counts, axis=2)
    return _codes_to_strings(consensus)


def reverse_matrix(
    matrix: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Per-row reversal of the occupied prefix: ``row[:len][::-1]``, pad kept.

    Gives double-sided BMA its reversed-read matrix without decoding back
    to strings.
    """
    rows, width = matrix.shape
    reversed_matrix = np.full_like(matrix, PAD_CODE)
    if width and rows:
        columns = np.arange(width, dtype=np.int64)
        source = lengths[:, None] - 1 - columns[None, :]
        valid = source >= 0
        flat = matrix.ravel()
        row_base = np.arange(rows, dtype=np.int64)[:, None] * width
        reversed_matrix[valid] = flat[(row_base + source)[valid]]
    return reversed_matrix


def bma_consensus_batch(
    matrix: np.ndarray,
    lengths: np.ndarray,
    starts: np.ndarray,
    expected_length: int,
    lookahead: int,
) -> Tuple[List[str], int]:
    """BMA-lookahead over every cluster in lockstep.

    Returns ``(consensus_strings, lookahead_invocations)``.  Each step
    mirrors ``BMAReconstructor._run`` exactly — plurality vote with the
    min-base tie-break, agreeing pointers advance, the reference window is
    the plurality over *agreeing* reads truncated at the first empty
    offset, and disagreeing reads advance by the best of (+1, 0, +2)
    window-match scores with ties preferring +1 then 0 then 2 (empty
    window: +1).  Clusters whose reads are all exhausted consume their own
    ``random.Random(0xB3A)`` filler stream, one draw per padded position,
    exactly like the scalar code.
    """
    rows, width = matrix.shape
    cluster_count = starts.size - 1
    cluster_id = _cluster_ids(starts)
    flat = matrix.ravel()
    row_base = np.arange(rows, dtype=np.int64) * width
    limit = max(width - 1, 0)

    pointers = np.zeros(rows, dtype=np.int64)
    consensus = np.zeros((cluster_count, expected_length), dtype=np.uint8)
    fillers: List[Optional[random.Random]] = [None] * cluster_count
    invocations = 0
    vote_keys = cluster_id * 5

    for position in range(expected_length):
        active = pointers < lengths
        current = flat[row_base + np.minimum(pointers, limit)]
        votes = np.bincount(
            vote_keys + np.where(active, current, PAD_CODE),
            minlength=cluster_count * 5,
        ).reshape(cluster_count, 5)[:, :4]
        majority = np.argmax(votes, axis=1).astype(np.uint8)
        exhausted = votes.sum(axis=1) == 0
        if exhausted.any():
            for cluster in np.nonzero(exhausted)[0]:
                filler = fillers[cluster]
                if filler is None:
                    filler = fillers[cluster] = random.Random(0xB3A)
                majority[cluster] = BASES.index(filler.choice(BASES))
        consensus[:, position] = majority

        lane_majority = majority[cluster_id]
        agree = active & (current == lane_majority)
        disagree = active & ~agree
        pointers += agree
        disagree_count = int(np.count_nonzero(disagree))
        if disagree_count == 0:
            continue
        invocations += disagree_count

        # Shared symbol gathers for offsets 0 .. lookahead+1: the window
        # vote needs offsets [0, lookahead) of the advanced pointers and
        # the realign hypotheses need [inc + offset] for inc in (0, 1, 2).
        span = lookahead + 2
        symbols = np.empty((span, rows), dtype=np.uint8)
        in_bounds = np.empty((span, rows), dtype=bool)
        for offset in range(span):
            target = pointers + offset
            in_bounds[offset] = target < lengths
            symbols[offset] = flat[row_base + np.minimum(target, limit)]

        # Reference window: plurality over agreeing reads, truncated at the
        # first offset where no agreeing read still has a symbol.
        window_codes = np.empty((lookahead, cluster_count), dtype=np.uint8)
        window_valid = np.empty((lookahead, cluster_count), dtype=bool)
        alive = np.ones(cluster_count, dtype=bool)
        for offset in range(lookahead):
            contributes = agree & in_bounds[offset]
            window_votes = np.bincount(
                vote_keys + np.where(contributes, symbols[offset], PAD_CODE),
                minlength=cluster_count * 5,
            ).reshape(cluster_count, 5)[:, :4]
            alive = alive & (window_votes.sum(axis=1) > 0)
            window_valid[offset] = alive
            window_codes[offset] = np.argmax(window_votes, axis=1)

        # Realign: score each increment hypothesis against the window.
        scores = np.zeros((3, rows), dtype=np.int64)
        for increment in range(3):
            for offset in range(lookahead):
                lane_valid = window_valid[offset][cluster_id]
                matched = (
                    in_bounds[increment + offset]
                    & lane_valid
                    & (symbols[increment + offset] == window_codes[offset][cluster_id])
                )
                scores[increment] += matched
        best = np.maximum(np.maximum(scores[0], scores[1]), scores[2])
        # Tie preference (1, 0, 2): substitution is the least disruptive.
        choice = np.where(
            scores[1] == best, 1, np.where(scores[0] == best, 0, 2)
        )
        empty_window = ~window_valid[0][cluster_id]
        choice = np.where(empty_window, 1, choice)
        pointers += np.where(disagree, choice, 0)

    return _codes_to_strings(consensus), invocations

"""Windowed, banded, batched POA consensus for long strands and huge clusters.

The plain :class:`~repro.reconstruction.nw_consensus.NWConsensusReconstructor`
aligns every read against the full-length partial-order graph, so its cost
grows as O(L² · reads) and kb-scale strands (the regime of nanopore-read
coding schemes such as Welter et al.) are out of reach.  This module bounds
the work per alignment in three steps:

**Anchoring.**  Each read is anchored to backbone coordinates with a cheap
q-gram pass: base-4 gram values (the same radix encoding the clustering
signatures use) are computed for the backbone read once, and every read's
matching grams yield ``(backbone_pos, read_pos)`` pairs whose position
differences estimate the read's coordinate shift.  Shifts are estimated
per *window* (the median difference of the anchors near that window), so
indel drift accumulated over a kb-scale strand cannot smear the estimate.
When a window has too few anchors the read falls back to its global median
shift.  Reads are anchored straight from the cached base codes of the
cluster's :class:`~repro.dna.readpool.ReadPoolView` (other inputs are
pooled once at the boundary) — no string decoding on the hot path.

**Windowed, banded, batched consensus.**  The backbone is sliced into
overlapping fixed-width windows (spectrassembler-style), and every read
contributes the slice its anchors map onto that window — padded by ``band``
positions on both sides.  Each window then runs one *batched* fit
alignment: all read slices align against the backbone window in a single
DP whose rows are vectorised across the read dimension, so the per-row
numpy cost is shared by the whole window cluster instead of being paid per
read.  The slice margin is the band: each read only ever sees
``window + 2 · band`` columns regardless of strand length, which is what
makes the kernel O(W²) per window.  The per-read tracebacks are folded
into POA-style columns — backbone positions plus keyed insertion slots —
and voted with the same majority / gap-column rule
:meth:`PartialOrderGraph.consensus` applies; each column's gap votes ride
along so over-length trimming can happen *globally* after the merge
(window-local length budgets would trim legitimately restored insertion
columns wherever the local deletion count runs above average).

**Merging.**  Adjacent window consensuses overlap by ``window_overlap``
backbone positions; each merge aligns the head of the right piece into the
tail of the left piece (bounded edit DP) and splices at the best-matching
position, falling back to the positional splice (and counting
``nww_merge_fallbacks``) when no convincing overlap alignment exists.

Short strands — anything that fits in roughly one window — delegate to the
parent class's scalar POA path unchanged, so windowed and scalar output are
byte-identical there.  All window decisions (planning, anchoring, seeded
subsampling of huge windows) happen before any fan-out and every window
task is a pure function, so output is byte-identical at any worker count.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dna.alphabet import BASES
from repro.dna.qgram import _window_values
from repro.dna.readpool import NON_ACGT_CODE, as_read_view
from repro.observability.trace import Tracer, as_tracer, worker_span
from repro.parallel import WorkerPool
from repro.parallel.seeding import derive_seed
from repro.reconstruction.nw_consensus import NWConsensusReconstructor

_NEG_INF = np.int32(-(2**30))

#: code -> base character; non-ACGT codes decode to ``A`` (they can only
#: surface in the rare backbone-fallback path for windows with no usable
#: reads, where any fixed letter is as good as another).
_CODE_TO_BASE = {code: base for code, base in enumerate(BASES)}


def _decode_codes(codes: np.ndarray) -> str:
    return "".join(_CODE_TO_BASE.get(int(code), "A") for code in codes)


class _WindowTask:
    """One window's immutable work order: backbone slice + read slices.

    Pickling ships only the window-sized arrays (numpy serialises the view
    contents, not the parent pool), so process fan-out stays cheap even
    when the windows were sliced zero-copy out of a large ReadPool.
    """

    __slots__ = ("backbone", "slices")

    def __init__(self, backbone: np.ndarray, slices: List[np.ndarray]) -> None:
        self.backbone = backbone
        self.slices = slices

    def __getstate__(self):
        return (self.backbone, self.slices)

    def __setstate__(self, state) -> None:
        self.backbone, self.slices = state


class _ClusterPlan:
    """Per-cluster execution plan: either delegate short, or run windows."""

    __slots__ = ("short_reads", "tasks")

    def __init__(
        self,
        short_reads: Optional[List[str]] = None,
        tasks: Optional[List[_WindowTask]] = None,
    ) -> None:
        self.short_reads = short_reads
        self.tasks = tasks


def _window_consensus(
    task: _WindowTask,
    match: int,
    mismatch: int,
    gap: int,
    min_fit_fraction: float,
    two_pass: bool = True,
) -> Tuple[str, List[int], int]:
    """Consensus of one window; returns ``(sequence, gap_votes, dropped)``.

    Runs the batched fit alignment of every read slice against the
    backbone window, folds the tracebacks into POA-style columns, and
    applies the same majority-vote / gap-column rule as
    :meth:`PartialOrderGraph.consensus`.  With *two_pass* the slices are
    re-aligned against the first-pass consensus and revoted — the
    windowed analogue of the scalar reconstructor's two-pass realignment,
    which removes the residual frame shifts a noisy backbone slice
    imprints on the vote.  Over-length trimming is *not* applied here:
    window-local indel counts fluctuate too much for a per-window length
    budget, so each column's gap votes ride along and the reconstructor
    trims globally after the merge, exactly like the scalar path.  Reads
    whose best fit score falls below ``min_fit_fraction`` of a perfect
    match (their alignment left the anchored band) are excluded from the
    vote and counted in the last return value.
    """
    backbone = task.backbone
    slices = task.slices
    if not slices:
        return _decode_codes(backbone), [0] * backbone.shape[0], 0
    k = len(slices)
    lengths = np.fromiter((s.shape[0] for s in slices), dtype=np.int64, count=k)
    width = int(lengths.max())
    reads = np.full((k, width), NON_ACGT_CODE, dtype=np.uint8)
    for row, piece in enumerate(slices):
        reads[row, : piece.shape[0]] = piece

    codes, gaps, dropped = _window_pass(
        backbone, reads, lengths, match, mismatch, gap, min_fit_fraction
    )
    if two_pass and codes.size:
        codes, gaps, second_dropped = _window_pass(
            codes, reads, lengths, match, mismatch, gap, min_fit_fraction
        )
        dropped = max(dropped, second_dropped)
    if not codes.size:
        return _decode_codes(backbone), [0] * backbone.shape[0], dropped
    return _decode_codes(codes), gaps, dropped


def _window_pass(
    backbone: np.ndarray,
    reads: np.ndarray,
    lengths: np.ndarray,
    match: int,
    mismatch: int,
    gap: int,
    min_fit_fraction: float,
) -> Tuple[np.ndarray, List[int], int]:
    """One align-and-vote pass; returns ``(codes, gap_votes, dropped)``."""
    n = backbone.shape[0]
    k = reads.shape[0]
    scores, moves = _batched_fit_alignment(backbone, reads, match, mismatch, gap)

    # Read ends: free suffix, so each read's alignment ends wherever its
    # final-row score peaks (argmax takes the earliest peak — ties resolve
    # identically at any worker count because the DP is deterministic).
    final = scores[n]
    kept: List[Tuple[int, int]] = []  # (read_row, end_column)
    dropped = 0
    threshold = int(min_fit_fraction * match * n)
    for row in range(k):
        limit = int(lengths[row]) + 1
        end = int(np.argmax(final[row, :limit]))
        if int(final[row, end]) < threshold:
            dropped += 1
            continue
        kept.append((row, end))
    if not kept:
        # No read survived the fit gate; the backbone window itself is the
        # best remaining estimate.
        return backbone, [0] * n, dropped

    # POA-style columns: one per backbone position, plus keyed insertion
    # slots ``(position, offset)`` so the same inserted base from several
    # reads lands in the same column and can win a majority.
    base_votes = np.zeros((n, 4), dtype=np.int32)
    presence = np.zeros(n, dtype=np.int32)
    insert_votes: Dict[Tuple[int, int], Dict[int, int]] = {}
    for row, end in kept:
        run: List[int] = []
        i, j = n, end
        while i > 0:
            move = int(moves[i - 1, row, j])
            if move == 2:  # insertion: read char between backbone i-1 and i
                run.append(int(reads[row, j - 1]))
                j -= 1
                continue
            if run:
                _flush_insertion_run(insert_votes, i, run)
                run = []
            if move == 0:  # aligned (match or substitution)
                code = int(reads[row, j - 1])
                if code < 4:
                    base_votes[i - 1, code] += 1
                    presence[i - 1] += 1
                i -= 1
                j -= 1
            else:  # deletion: backbone position skipped by this read
                i -= 1
        # Leading insertions (run still open at i == 0) fall in the free
        # prefix slack and belong to the previous window; drop them.

    total = len(kept)
    columns: List[Tuple[int, int]] = []  # (base code, gap_votes)
    for position in range(n + 1):
        offset = 0
        while (position, offset) in insert_votes:
            votes = insert_votes[(position, offset)]
            _append_column(columns, votes, total)
            offset += 1
        if position == n:
            break
        if presence[position]:
            votes = {
                code: int(count)
                for code, count in enumerate(base_votes[position])
                if count
            }
            _append_column(columns, votes, total)

    consensus = np.fromiter(
        (code for code, _ in columns), dtype=np.uint8, count=len(columns)
    )
    return consensus, [gap_votes for _, gap_votes in columns], dropped


def _flush_insertion_run(
    insert_votes: Dict[Tuple[int, int], Dict[int, int]],
    position: int,
    run: List[int],
) -> None:
    """Record one read's insertion run before backbone *position*.

    The traceback walks right-to-left, so *run* holds the inserted codes
    reversed; offsets count in forward (left-to-right) order so identical
    insertions from different reads share keys.
    """
    for offset, code in enumerate(reversed(run)):
        if code >= 4:
            continue
        votes = insert_votes.setdefault((position, offset), {})
        votes[code] = votes.get(code, 0) + 1


def _append_column(
    columns: List[Tuple[int, int]], votes: Dict[int, int], total: int
) -> None:
    """Majority-vote one column, mirroring ``PartialOrderGraph.consensus``.

    The winning base is the highest-count code (largest code breaking
    ties, matching the graph's lexicographically-largest-base rule), kept
    only when its count is at least the gap vote.
    """
    if not votes:
        return
    gap_votes = total - sum(votes.values())
    best = max(votes, key=lambda code: (votes[code], code))
    if votes[best] >= gap_votes:
        columns.append((best, gap_votes))


def _batched_fit_alignment(
    backbone: np.ndarray,
    reads: np.ndarray,
    match: int,
    mismatch: int,
    gap: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fit-align the backbone window into every read slice at once.

    Rows iterate over backbone positions; every numpy operation in a row
    spans the whole ``(reads, columns)`` plane, so the interpreter cost of
    a DP row is paid once per window instead of once per read (this is
    what "batched" buys over per-read alignment).  Read prefixes and
    suffixes are free — the slack margin around each slice is not part of
    the window — while the backbone must be fully consumed.

    Returns ``(scores, moves)``: the full ``(n+1, k, m+1)`` score tensor
    and the ``(n, k, m+1)`` move tensor (0=aligned, 1=deletion,
    2=insertion), move ties preferring aligned > deletion > insertion like
    the scalar POA traceback.
    """
    n = backbone.shape[0]
    k, m = reads.shape
    scores = np.empty((n + 1, k, m + 1), dtype=np.int32)
    moves = np.empty((n, k, m + 1), dtype=np.uint8)
    scores[0] = 0  # free read prefix
    match_planes = np.where(
        reads[None, :, :] == backbone[:, None, None], match, mismatch
    ).astype(np.int32)
    insert_cost = (np.arange(m + 1, dtype=np.int32)) * gap
    for row in range(1, n + 1):
        prev = scores[row - 1]
        diag = prev[:, :-1] + match_planes[row - 1]
        vert = prev + gap
        current = scores[row]
        current[:, 0] = vert[:, 0]
        np.maximum(diag, vert[:, 1:], out=current[:, 1:])
        move = moves[row - 1]
        move[:] = 1
        move[:, 1:][diag >= vert[:, 1:]] = 0
        # Serial insertion chain, resolved with a prefix max:
        # row[j] = max(row[j], max_{t<j} row[t] + (j-t)·gap).
        chain = np.maximum.accumulate(current - insert_cost, axis=1)
        candidate = chain[:, :-1] + insert_cost[1:]
        better = candidate > current[:, 1:]
        current[:, 1:][better] = candidate[better]
        move[:, 1:][better] = 2
    return scores, moves


def _merge_overlap(
    left: str,
    left_gaps: List[int],
    right: str,
    right_gaps: List[int],
    overlap: int,
) -> Tuple[Tuple[str, List[int]], bool]:
    """Splice *right* onto *left*, aligning the overlap region.

    The first ``overlap`` characters of *right* re-describe the tail of
    *left*.  Both pieces are least reliable at their outer edges (a
    window's leading columns sit in the free-prefix slack where insertion
    votes are unavailable), so the splice happens mid-overlap: a probe
    taken from *right* just past its half-overlap point is located inside
    the tail of *left* with a bounded edit DP, and the merged sequence
    keeps *left* up to that point plus *right* from its half-overlap on —
    each side contributing only interior columns.  Per-column gap votes
    ride along through the same splice so the reconstructor can trim the
    merged sequence globally.  Returns ``((merged, merged_gaps),
    used_fallback)`` — the fallback being the positional splice ``left +
    right[overlap:]`` when either piece is too short to align or no
    alignment is convincing.
    """
    half = overlap // 2
    probe = right[half : half + (overlap - half)]
    search = min(len(left), 2 * overlap + 16)
    if len(probe) < max(4, overlap // 2) or search <= len(probe) // 2:
        keep = min(overlap, len(right))
        return (left + right[keep:], left_gaps + right_gaps[keep:]), True
    tail = left[len(left) - search :]
    # Edit DP of probe (rows) vs tail (columns); starting anywhere in the
    # tail is free, and the origin column rides along so the best end cell
    # names its splice point.
    width = len(tail) + 1
    costs = [0] * width  # starting anywhere in the tail is free
    origins = list(range(width))
    for i, probe_char in enumerate(probe, start=1):
        next_costs = [i] * width
        next_origins = [0] * width
        for j in range(1, width):
            sub = costs[j - 1] + (probe_char != tail[j - 1])
            dele = costs[j] + 1
            ins = next_costs[j - 1] + 1
            best, origin = sub, origins[j - 1]
            if dele < best:
                best, origin = dele, origins[j]
            if ins < best:
                best, origin = ins, next_origins[j - 1]
            next_costs[j] = best
            next_origins[j] = origin
        costs, origins = next_costs, next_origins
    best_j = min(range(width), key=lambda j: (costs[j], j))
    if costs[best_j] > max(2, len(probe) // 3):
        keep = min(overlap, len(right))
        return (left + right[keep:], left_gaps + right_gaps[keep:]), True
    cut = len(left) - search + origins[best_j]
    return (left[:cut] + right[half:], left_gaps[:cut] + right_gaps[half:]), False


def _windowed_chunk(tasks, extra):
    """Worker entry point: run a contiguous slice of the flattened tasks.

    Tasks are either ``("window", _WindowTask)`` or ``("cluster", reads)``
    (a short cluster delegating to the scalar POA core).  Returns one
    result per task — a consensus string for clusters, a ``(sequence,
    gap_votes)`` pair for windows — plus the worker's drained counters.
    """
    reconstructor, expected_length = extra
    reconstructor.drain_counters()
    results: List[object] = []
    with worker_span(
        f"reconstruction.{type(reconstructor).__name__}_chunk", tasks=len(tasks)
    ):
        for kind, payload in tasks:
            if kind == "cluster":
                results.append(
                    reconstructor._consensus_core(payload, expected_length)
                )
            else:
                piece, gaps, dropped = _window_consensus(
                    payload,
                    reconstructor.match,
                    reconstructor.mismatch,
                    reconstructor.gap,
                    reconstructor.min_fit_fraction,
                    reconstructor.window_two_pass,
                )
                reconstructor._window_reads_dropped += dropped
                results.append((piece, gaps))
    return results, reconstructor.drain_counters()


class WindowedPOAReconstructor(NWConsensusReconstructor):
    """Windowed, banded, batched POA consensus (see module docstring).

    Parameters
    ----------
    window:
        Backbone positions per window; each window's alignment cost is
        O(window²) regardless of strand length.
    window_overlap:
        Backbone positions shared by adjacent windows, used to align the
        splice when window consensuses are merged.
    window_band:
        Slack margin (in positions) added around each read's anchored
        window slice; plays the band role for the batched window kernel
        (the DP never sees more than ``window + 2·band`` columns).
    anchor_gram:
        q-gram length for the anchoring pass.
    max_window_reads:
        Upper bound on reads per window.  Huge clusters are subsampled
        deterministically per window (seeded from ``seed``, the window
        index, and the candidate count), so output stays byte-identical
        at any worker count.
    min_fit_fraction:
        Fraction of a perfect backbone-window score below which a read's
        window alignment is considered to have escaped its band and its
        votes are discarded.
    window_two_pass:
        Re-run each window's align-and-vote against its first-pass
        consensus.  Off by default: with global gap-vote trimming a
        single pass already matches scalar quality, and the second pass
        halves the speedup.  This is deliberately separate from the
        inherited ``two_pass``, which governs the scalar path that short
        strands delegate to (and must stay on for byte-identical short
        parity with :class:`NWConsensusReconstructor`).
    seed:
        Base seed for the per-window subsampling derivation.

    The remaining parameters are inherited from
    :class:`NWConsensusReconstructor` and govern the scalar POA path that
    short strands delegate to (``max_cluster`` defaults higher here: the
    windowed kernel's cost per read is bounded, so large clusters stay
    affordable).
    """

    def __init__(
        self,
        match: int = 2,
        mismatch: int = -2,
        gap: int = -2,
        max_cluster: int = 64,
        two_pass: bool = True,
        band: Optional[int] = None,
        window: int = 160,
        window_overlap: int = 24,
        window_band: int = 24,
        anchor_gram: int = 8,
        max_window_reads: int = 32,
        min_fit_fraction: float = 0.25,
        window_two_pass: bool = False,
        seed: int = 0,
    ):
        super().__init__(
            match=match,
            mismatch=mismatch,
            gap=gap,
            max_cluster=max_cluster,
            two_pass=two_pass,
            band=band,
        )
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if not 0 < window_overlap < window:
            raise ValueError(
                f"window_overlap must be in (0, window), got {window_overlap}"
            )
        if window_band < 1:
            raise ValueError(f"window_band must be positive, got {window_band}")
        if max_window_reads < 1:
            raise ValueError(
                f"max_window_reads must be positive, got {max_window_reads}"
            )
        self.window = window
        self.window_overlap = window_overlap
        self.window_band = window_band
        self.anchor_gram = anchor_gram
        self.max_window_reads = max_window_reads
        self.min_fit_fraction = min_fit_fraction
        self.window_two_pass = window_two_pass
        self.seed = seed
        self._windows_planned = 0
        self._short_delegated = 0
        self._window_reads_dropped = 0
        self._merge_fallbacks = 0
        self._reads_subsampled = 0

    def drain_counters(self):
        counts = super().drain_counters()
        counts.update(
            {
                "nww_windows_planned": self._windows_planned,
                "nww_short_delegated": self._short_delegated,
                "nww_window_reads_dropped": self._window_reads_dropped,
                "nww_merge_fallbacks": self._merge_fallbacks,
                "nww_reads_subsampled": self._reads_subsampled,
            }
        )
        self._windows_planned = 0
        self._short_delegated = 0
        self._window_reads_dropped = 0
        self._merge_fallbacks = 0
        self._reads_subsampled = 0
        return counts

    # ------------------------------------------------------------------
    # Planning (always in the calling process, so fan-out cannot change it)
    # ------------------------------------------------------------------

    def _cluster_codes(self, cluster: Sequence[str]) -> Tuple[List[np.ndarray], List]:
        """Selected reads as code arrays plus lazy string accessors.

        Code arrays slice the cluster pool's cached code column zero-copy.
        Selection uses the exact ordering of :meth:`_select_reads`, so the
        windowed and scalar paths always agree on the backbone.
        """
        cluster = as_read_view(cluster)
        lengths = cluster.lengths
        nonempty = [i for i in range(len(cluster)) if lengths[i] > 0]
        if not nonempty:
            raise ValueError("cluster must contain at least one non-empty read")
        keep = self._selection_order([int(lengths[i]) for i in nonempty])
        self._reads_capped += max(0, len(nonempty) - self.max_cluster)
        pool = cluster.pool
        codes_all = pool.codes
        offsets = pool.offsets
        codes = []
        readers = []
        for position in keep:
            index = int(cluster.indices[nonempty[position]])
            codes.append(codes_all[offsets[index] : offsets[index + 1]])
            readers.append(index)
        return codes, [lambda p=pool, i=index: p[i] for index in readers]

    def _plan(self, cluster: Sequence[str], expected_length: int) -> _ClusterPlan:
        """Build the execution plan for one cluster.

        Planning (selection, anchoring, window slicing, subsampling) is
        deterministic and always runs in the calling process; the returned
        window tasks are pure data, so running them serially or fanned out
        yields identical bytes.
        """
        codes, readers = self._cluster_codes(cluster)
        self._reads_folded += len(codes)
        backbone = codes[0]
        horizon = self.window + self.window_overlap
        if expected_length <= horizon or backbone.shape[0] <= horizon:
            self._short_delegated += 1
            return _ClusterPlan(short_reads=[reader() for reader in readers])

        bounds = self._window_bounds(backbone.shape[0])
        shifts = self._anchor_shifts(backbone, codes, bounds)
        tasks: List[_WindowTask] = []
        n_backbone = backbone.shape[0]
        for window_index, (start, stop) in enumerate(bounds):
            slices: List[np.ndarray] = []
            minimum = (stop - start) // 2
            for read_index, read_codes in enumerate(codes):
                shift = shifts[read_index][window_index]
                lo = max(0, start + shift - self.window_band)
                hi = min(read_codes.shape[0], stop + shift + self.window_band)
                if hi - lo >= minimum:
                    slices.append(read_codes[lo:hi])
            if len(slices) > self.max_window_reads:
                rng = random.Random(
                    derive_seed(self.seed, "window", window_index, len(slices))
                )
                chosen = sorted(
                    rng.sample(range(len(slices)), self.max_window_reads)
                )
                self._reads_subsampled += len(slices) - self.max_window_reads
                slices = [slices[i] for i in chosen]
            tasks.append(_WindowTask(backbone[start:stop], slices))
        self._windows_planned += len(tasks)
        return _ClusterPlan(tasks=tasks)

    def _window_bounds(self, length: int) -> List[Tuple[int, int]]:
        """Overlapping ``[start, stop)`` windows covering ``[0, length)``."""
        step = self.window - self.window_overlap
        bounds: List[Tuple[int, int]] = []
        start = 0
        while True:
            stop = min(start + self.window, length)
            bounds.append((start, stop))
            if stop >= length:
                break
            start += step
        if len(bounds) > 1 and bounds[-1][1] - bounds[-1][0] < 2 * self.window_overlap:
            # A stub last window has too little fresh sequence to merge
            # reliably; extend the previous window to the end instead.
            bounds[-2] = (bounds[-2][0], bounds[-1][1])
            bounds.pop()
        return bounds

    def _anchor_shifts(
        self,
        backbone: np.ndarray,
        codes: Sequence[np.ndarray],
        bounds: Sequence[Tuple[int, int]],
    ) -> List[List[int]]:
        """Per-read, per-window coordinate shifts from q-gram anchors."""
        gram = self.anchor_gram
        zeros = [0] * len(bounds)
        if (backbone == NON_ACGT_CODE).any() or backbone.shape[0] < gram:
            return [list(zeros) for _ in codes]
        backbone_values = _window_values(backbone, gram)
        order = np.argsort(backbone_values, kind="stable")
        sorted_values = backbone_values[order]
        # Only grams unique in the backbone anchor reliably; a repeated
        # gram matches several positions and would smear the shift.
        unique = np.ones(sorted_values.shape[0], dtype=bool)
        unique[1:] &= sorted_values[1:] != sorted_values[:-1]
        unique[:-1] &= sorted_values[:-1] != sorted_values[1:]
        anchor_values = sorted_values[unique]
        anchor_positions = order[unique]

        margin = self.window_overlap
        shifts: List[List[int]] = []
        for read_index, read_codes in enumerate(codes):
            if read_index == 0:
                shifts.append(list(zeros))  # the backbone anchors itself
                continue
            if (read_codes == NON_ACGT_CODE).any() or read_codes.shape[0] < gram:
                shifts.append(list(zeros))
                continue
            read_values = _window_values(read_codes, gram)
            slots = np.searchsorted(anchor_values, read_values)
            slots = np.minimum(slots, anchor_values.shape[0] - 1)
            hits = anchor_values[slots] == read_values
            backbone_pos = anchor_positions[slots[hits]]
            read_pos = np.nonzero(hits)[0]
            if backbone_pos.size == 0:
                shifts.append(list(zeros))
                continue
            diffs = read_pos - backbone_pos
            by_pos = np.argsort(backbone_pos, kind="stable")
            backbone_sorted = backbone_pos[by_pos]
            diffs_sorted = diffs[by_pos]
            global_shift = int(np.median(diffs_sorted))
            per_window: List[int] = []
            for start, stop in bounds:
                lo = int(np.searchsorted(backbone_sorted, start - margin))
                hi = int(np.searchsorted(backbone_sorted, stop + margin))
                if hi - lo >= 3:
                    per_window.append(int(np.median(diffs_sorted[lo:hi])))
                else:
                    per_window.append(global_shift)
            shifts.append(per_window)
        return shifts

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _merge_pieces(
        self,
        pieces: Sequence[Tuple[str, List[int]]],
        expected_length: int,
    ) -> str:
        """Chain-merge window ``(sequence, gap_votes)`` pieces and trim.

        Over-length trimming happens here, *after* the merge, on the
        merged sequence's accumulated gap votes — the windowed analogue of
        :meth:`PartialOrderGraph.consensus`'s surplus-column rule.  A
        per-window length budget would instead trim away legitimately
        restored insertion columns in any window whose local deletion
        count runs above average.
        """
        merged, gaps = pieces[0]
        for piece, piece_gaps in pieces[1:]:
            (merged, gaps), fallback = _merge_overlap(
                merged, gaps, piece, piece_gaps, self.window_overlap
            )
            if fallback:
                self._merge_fallbacks += 1
        if len(merged) > expected_length:
            surplus = len(merged) - expected_length
            by_gappiness = sorted(
                range(len(merged)), key=lambda c: gaps[c], reverse=True
            )
            drop = set(by_gappiness[:surplus])
            merged = "".join(
                char for index, char in enumerate(merged) if index not in drop
            )
        if len(merged) < expected_length:
            merged = merged + "A" * (expected_length - len(merged))
        return merged

    def reconstruct(self, cluster: Sequence[str], expected_length: int) -> str:
        plan = self._plan(cluster, expected_length)
        if plan.short_reads is not None:
            return self._consensus_core(plan.short_reads, expected_length)
        pieces: List[Tuple[str, List[int]]] = []
        for task in plan.tasks:
            piece, gaps, dropped = _window_consensus(
                task,
                self.match,
                self.mismatch,
                self.gap,
                self.min_fit_fraction,
                self.window_two_pass,
            )
            self._window_reads_dropped += dropped
            pieces.append((piece, gaps))
        return self._merge_pieces(pieces, expected_length)

    def reconstruct_all(
        self,
        clusters: Sequence[Sequence[str]],
        expected_length: int,
        tracer: Optional[Tracer] = None,
        pool: Optional[WorkerPool] = None,
    ) -> List[str]:
        """Reconstruct every cluster, fanning out individual *windows*.

        Unlike the base implementation (which chunks whole clusters), the
        parallel unit here is the window task: a single huge cluster with
        a kb-scale strand still spreads across every worker.  Planning
        stays in the calling process and window tasks are pure functions
        of their inputs, so output is byte-identical at any worker count.
        """
        if pool is None or pool.workers <= 1:
            return super().reconstruct_all(
                clusters, expected_length, tracer=tracer, pool=pool
            )
        tracer = as_tracer(tracer)
        self.drain_counters()  # discard counts from untraced earlier calls
        with tracer.span(
            f"reconstruction.{type(self).__name__}", clusters=len(clusters)
        ) as span:
            if not isinstance(clusters, (list, tuple)):
                clusters = list(clusters)
            plans = [self._plan(cluster, expected_length) for cluster in clusters]
            flattened: List[Tuple[str, object]] = []
            for plan in plans:
                if plan.short_reads is not None:
                    flattened.append(("cluster", plan.short_reads))
                else:
                    flattened.extend(("window", task) for task in plan.tasks)
            chunk_results = pool.run_chunks(
                _windowed_chunk,
                flattened,
                (self, expected_length),
                min_items=1,  # window tasks are heavy; fan out even a few
            )
            results: List[str] = []
            counters: Dict[str, int] = {}
            for chunk_consensus, chunk_counters in chunk_results:
                results.extend(chunk_consensus)
                for name, value in chunk_counters.items():
                    counters[name] = counters.get(name, 0) + value
            consensus: List[str] = []
            cursor = 0
            for plan in plans:
                if plan.short_reads is not None:
                    consensus.append(results[cursor])
                    cursor += 1
                else:
                    pieces = results[cursor : cursor + len(plan.tasks)]
                    cursor += len(plan.tasks)
                    consensus.append(self._merge_pieces(pieces, expected_length))
            span.set("shards", pool.last_shards)
        for name, value in self.drain_counters().items():
            counters[name] = counters.get(name, 0) + value
        self._flush_batch_metrics(tracer, clusters, counters)
        return consensus

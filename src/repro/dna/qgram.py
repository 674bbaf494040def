"""q-gram and w-gram signatures for cheap read similarity tests.

The clustering module (Section VI of the paper) avoids expensive edit
distance computations by first comparing *signatures* of cluster
representatives:

* a **q-gram signature** (baseline, Rashtchian et al.) is a binary vector
  marking which of a random set of q-grams occur in the read; signatures are
  compared with Hamming distance;
* a **w-gram signature** (the paper's novel variant) records the *position of
  the first occurrence* of each gram instead of mere presence, and signatures
  are compared with the L1 norm.  This spreads dissimilar reads further
  apart, cutting down the number of edit-distance calls the clusterer must
  fall back to.

Signature construction is vectorised: when every gram has the same length
and read + grams are plain ACGT, the read is radix-encoded once and every
window becomes a base-4 integer, so one :func:`numpy.isin` (presence) or one
stable argsort + :func:`numpy.searchsorted` (first occurrence) answers all
grams at once instead of one Python ``str.find`` per gram.  Batches run on
the cached base codes of a :class:`~repro.dna.readpool.ReadPool` (other
inputs are pooled once at the boundary).  Gram sets or batches outside that
fast path (mixed gram lengths, non-ACGT reads) fall back to the scalar loop
with identical results.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

import numpy as np

from repro.dna.alphabet import BASES
from repro.dna.readpool import _encode_acgt, as_read_pool


def sample_grams(
    count: int, gram_length: int, rng: Optional[random.Random] = None
) -> List[str]:
    """Return *count* distinct random grams of the given length.

    Raises :class:`ValueError` when more distinct grams are requested than
    exist (``4 ** gram_length``).
    """
    if gram_length <= 0:
        raise ValueError(f"gram_length must be positive, got {gram_length}")
    if count > 4**gram_length:
        raise ValueError(
            f"cannot sample {count} distinct grams of length {gram_length}"
        )
    rng = rng or random.Random()
    grams = set()
    while len(grams) < count:
        grams.add("".join(rng.choice(BASES) for _ in range(gram_length)))
    return sorted(grams)


def _window_values(codes: np.ndarray, gram_length: int) -> np.ndarray:
    """Base-4 integer value of every length-``gram_length`` window."""
    windows = codes.shape[0] - gram_length + 1
    if windows <= 0:
        return np.empty(0, dtype=np.int64)
    values = np.zeros(windows, dtype=np.int64)
    for offset in range(gram_length):
        values *= 4
        values += codes[offset : offset + windows]
    return values


class _GramSet:
    """Shared fast-path machinery of the two signature flavours."""

    def __init__(self, grams: Sequence[str]):
        if not grams:
            raise ValueError("signature requires at least one gram")
        self.grams = list(grams)
        # The vectorised path needs uniform-length, pure-ACGT grams; any
        # other gram set silently keeps the scalar path.
        self._gram_length = len(self.grams[0])
        encoded = []
        for gram in self.grams:
            codes = _encode_acgt(gram) if len(gram) == self._gram_length else None
            if codes is None or codes.size == 0:
                encoded = None
                break
            encoded.append(codes)
        if encoded is None:
            self._gram_values: Optional[np.ndarray] = None
            self._sort_perm: Optional[np.ndarray] = None
            self._sorted_values: Optional[np.ndarray] = None
        else:
            stacked = np.stack(encoded).astype(np.int64)
            weights = 4 ** np.arange(self._gram_length - 1, -1, -1, dtype=np.int64)
            self._gram_values = stacked @ weights
            # Grams are distinct, so their values are too; sorting them once
            # here turns every per-read lookup into a single searchsorted.
            self._sort_perm = np.argsort(self._gram_values).astype(np.int64)
            self._sorted_values = self._gram_values[self._sort_perm]

    def _read_windows(self, sequence: str) -> Optional[np.ndarray]:
        """Window values of *sequence*, or ``None`` when off the fast path."""
        if self._gram_values is None:
            return None
        codes = _encode_acgt(sequence)
        if codes is None:
            return None
        return _window_values(codes, self._gram_length)

    def _gram_hits(self, windows: np.ndarray):
        """``(window_index, original_gram_index)`` of every gram occurrence."""
        slots = np.searchsorted(self._sorted_values, windows)
        slots = np.minimum(slots, self._sorted_values.shape[0] - 1)
        hits = self._sorted_values[slots] == windows
        return np.nonzero(hits)[0], self._sort_perm[slots[hits]]

    def _batch_hits(self, sequences: Sequence[str]):
        """Gram occurrences of a whole batch in one vectorised pass.

        Returns ``(read_ids, window_positions, gram_indices, lengths)`` —
        one entry per gram occurrence anywhere in the batch — or ``None``
        when any read (or the gram set) is off the ACGT fast path.  The
        pool's flat code array is the concatenated radix encoding, so the
        window values and the gram lookup each run once over the whole
        batch; windows that straddle a read boundary are excluded by
        construction.
        """
        if self._gram_values is None:
            return None
        gram_length = self._gram_length
        reads = as_read_pool(sequences)
        if not reads.is_acgt:
            return None
        lengths = reads.lengths
        empty = np.empty(0, dtype=np.int64)
        window_counts = np.maximum(lengths - gram_length + 1, 0)
        total_windows = int(window_counts.sum())
        if total_windows == 0:
            return empty, empty, empty, lengths
        values = _window_values(reads.codes, gram_length)
        read_ids = np.repeat(np.arange(len(reads), dtype=np.int64), window_counts)
        first_window = np.cumsum(window_counts) - window_counts
        positions = np.arange(total_windows, dtype=np.int64) - np.repeat(
            first_window, window_counts
        )
        starts = reads.offsets[read_ids] + positions
        window_values = values[starts]
        slots = np.searchsorted(self._sorted_values, window_values)
        slots = np.minimum(slots, self._sorted_values.shape[0] - 1)
        hits = self._sorted_values[slots] == window_values
        return (
            read_ids[hits],
            positions[hits],
            self._sort_perm[slots[hits]],
            lengths,
        )


class QGramSignature(_GramSet):
    """Binary presence/absence signatures over a fixed gram set."""

    def compute(self, sequence: str) -> np.ndarray:
        """Return the uint8 presence vector of this signature's grams."""
        windows = self._read_windows(sequence)
        if windows is None:
            return np.fromiter(
                (1 if gram in sequence else 0 for gram in self.grams),
                dtype=np.uint8,
                count=len(self.grams),
            )
        presence = np.zeros(len(self.grams), dtype=np.uint8)
        if windows.size:
            _, gram_indices = self._gram_hits(windows)
            presence[gram_indices] = 1
        return presence

    def compute_batch(self, sequences: Sequence[str]) -> List[np.ndarray]:
        """Signatures of many reads (one array per read, in order)."""
        batch = self._batch_hits(sequences)
        if batch is None:
            return [self.compute(sequence) for sequence in sequences]
        read_ids, _, gram_indices, _ = batch
        presence = np.zeros((len(sequences), len(self.grams)), dtype=np.uint8)
        presence[read_ids, gram_indices] = 1
        return list(presence)

    @staticmethod
    def distance(left: np.ndarray, right: np.ndarray) -> int:
        """Hamming distance between two presence vectors."""
        return int(np.count_nonzero(left != right))


class WGramSignature(_GramSet):
    """First-occurrence-position signatures over a fixed gram set.

    A gram that does not occur is assigned the sentinel position
    ``len(sequence)`` ("past the end"), which keeps the L1 distance
    well-defined and penalises presence/absence disagreements in proportion
    to strand length.
    """

    def compute(self, sequence: str) -> np.ndarray:
        """Return the int32 first-occurrence-position vector."""
        sentinel = len(sequence)
        windows = self._read_windows(sequence)
        if windows is None:
            positions = np.empty(len(self.grams), dtype=np.int32)
            for index, gram in enumerate(self.grams):
                found = sequence.find(gram)
                positions[index] = sentinel if found < 0 else found
            return positions
        positions = np.full(len(self.grams), sentinel, dtype=np.int32)
        if windows.size:
            window_indices, gram_indices = self._gram_hits(windows)
            # Assign occurrences in reverse read order: with duplicate gram
            # indices the last assignment wins, so the earliest occurrence
            # is what sticks.
            positions[gram_indices[::-1]] = window_indices[::-1]
        return positions

    def compute_batch(self, sequences: Sequence[str]) -> List[np.ndarray]:
        """Signatures of many reads (one array per read, in order)."""
        batch = self._batch_hits(sequences)
        if batch is None:
            return [self.compute(sequence) for sequence in sequences]
        read_ids, window_positions, gram_indices, lengths = batch
        positions = np.repeat(
            lengths[:, np.newaxis], len(self.grams), axis=1
        ).astype(np.int32)
        # Fancy-index assignment order with duplicate indices is not
        # defined, so first occurrences are selected explicitly: hits come
        # out in read order, and np.unique's stable sort keeps the first
        # hit of every (read, gram) cell.
        cells = read_ids * len(self.grams) + gram_indices
        first_cells, first_hits = np.unique(cells, return_index=True)
        positions.reshape(-1)[first_cells] = window_positions[first_hits]
        return list(positions)

    @staticmethod
    def distance(left: np.ndarray, right: np.ndarray) -> int:
        """L1 distance between two position vectors."""
        return int(np.abs(left.astype(np.int64) - right.astype(np.int64)).sum())

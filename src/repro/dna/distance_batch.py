"""Batched Myers edit distance: one pattern against many texts in uint64 lanes.

The gray-zone phase of clustering compares each bucket representative
against many candidate reads with the same bound.  The scalar kernel
(:func:`repro.dna.distance.myers_levenshtein`) packs the DP column into one
Python big integer per *pair*; this module instead packs the pattern's
Myers bit-vectors into ``ceil(m / 64)`` numpy ``uint64`` words and advances
*all* candidate texts at once — one numpy op updates one word of every
lane's DP column, so interpreter overhead is paid per column, not per pair.

The update sequence mirrors ``distance._myers_columns`` word-for-word
(Hyyrö's formulation), with two extra mechanics the big-int version gets
for free:

* the ``(Eq & VP) + VP`` addition propagates carries across words manually
  (detected via unsigned wraparound), and
* the ``<< 1`` shifts feed bit 63 of word *w* into bit 0 of word ``w + 1``
  (``HP`` shifts in a 1 at the very bottom, ``HN`` a 0).

Texts are processed longest-first so finished lanes fall off the end of the
active prefix instead of needing per-lane freeze masks.  Results are exact:
``myers_levenshtein_batch(p, texts, bound)[i] ==
levenshtein_distance(p, texts[i], bound)`` for every input (property-tested
against the scalar oracle), including the ``bound + 1`` saturation
semantics.  Texts are read from a :class:`~repro.dna.readpool.ReadPool`
view's cached code matrix (other inputs are pooled once at the boundary);
patterns or texts off the ACGT alphabet fall back to the scalar kernel
with identical results.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.dna.distance import _pattern_masks, myers_levenshtein_fixed
from repro.dna.readpool import _encode_acgt, as_read_view

_WORD = 64


def _pack_pattern(codes: np.ndarray) -> np.ndarray:
    """Myers ``Peq`` masks as a ``(4, ceil(m / 64))`` uint64 array.

    Bit ``i`` of word ``w`` in row *b* is set when
    ``codes[w * 64 + i] == b``.
    """
    length = codes.shape[0]
    words = (length + _WORD - 1) // _WORD
    peq = np.zeros((4, words), dtype=np.uint64)
    positions = np.arange(length, dtype=np.int64)
    bits = np.uint64(1) << (positions % _WORD).astype(np.uint64)
    np.bitwise_or.at(peq, (codes.astype(np.int64), positions // _WORD), bits)
    return peq


def myers_levenshtein_batch(
    pattern: str,
    texts: Sequence[str],
    bound: Optional[int] = None,
) -> np.ndarray:
    """Edit distance of *pattern* against every text, as an int64 array.

    Exactly matches ``levenshtein_distance(pattern, text, bound=bound)``
    per lane, including the saturation of values above *bound* to
    ``bound + 1``.  *texts* may be any ``Sequence[str]`` of latin-1 reads;
    a :class:`~repro.dna.readpool.ReadPool` (or view) is used zero-copy.
    """
    if bound is not None and bound < 0:
        raise ValueError(f"bound must be non-negative, got {bound}")
    count = len(texts)
    if count == 0:
        return np.empty(0, dtype=np.int64)

    texts = as_read_view(texts)
    pattern_codes = _encode_acgt(pattern)
    if pattern_codes is None or not texts.is_acgt:
        masks = _pattern_masks(pattern)
        return np.fromiter(
            (
                myers_levenshtein_fixed(pattern, text, bound=bound, masks=masks)
                for text in texts
            ),
            dtype=np.int64,
            count=count,
        )
    matrix, lengths = texts.padded_codes()

    length = pattern_codes.size
    if length == 0:
        distances = lengths.astype(np.int64)
        if bound is not None:
            distances = np.minimum(distances, bound + 1)
        return distances

    # Longest-first: finished lanes become a shrinking suffix, so the kernel
    # always operates on a contiguous active prefix.
    order = np.argsort(-lengths, kind="stable")
    sorted_lengths = lengths[order]
    max_len = int(sorted_lengths[0]) if count else 0
    # Column-major text codes: row j holds every lane's j-th character, so
    # the per-column slice is contiguous.
    columns = np.ascontiguousarray(matrix[order].T.astype(np.int64))
    # Lanes with text longer than column j (still active while processing j).
    active_counts = np.searchsorted(
        -sorted_lengths, -np.arange(max_len, dtype=np.int64), side="left"
    )

    words = (length + _WORD - 1) // _WORD
    # Word-major (words, 4) Peq so the per-column gather lands word rows
    # contiguously; state arrays are likewise (words, lanes).
    peq = np.ascontiguousarray(_pack_pattern(pattern_codes).T)
    top_bits = length - _WORD * (words - 1)
    top_mask = np.uint64(2**top_bits - 1) if top_bits < _WORD else np.uint64(2**64 - 1)
    high_bit = np.uint64(1) << np.uint64((length - 1) % _WORD)
    zero = np.uint64(0)
    one = np.uint64(1)
    word_top = np.uint64(_WORD - 1)

    vp = np.full((words, count), np.uint64(2**64 - 1), dtype=np.uint64)
    vp[-1] = top_mask
    vn = np.zeros((words, count), dtype=np.uint64)
    score = np.full(count, length, dtype=np.int64)
    result = np.empty(count, dtype=np.int64)

    active = count
    for column in range(max_len):
        k = int(active_counts[column])
        if k < active:
            result[k:active] = score[k:active]
            vp = np.ascontiguousarray(vp[:, :k])
            vn = np.ascontiguousarray(vn[:, :k])
            score_k = score[:k]
            active = k
        elif column == 0:
            score_k = score[:k]
        if k == 0:
            break
        eq = peq[:, columns[column, :k]]
        x = eq & vp
        # Multi-word (Eq & VP) + VP: manual carry propagation between words
        # (unsigned wraparound flags the carry; a carry out of the top word
        # is beyond bit m-1 and irrelevant).
        total = x + vp
        if words > 1:
            # Carry-out of each word = raw-add wraparound OR the carry-in
            # pushing a word of all-ones over the edge (total becomes 0).
            carry = total[0] < x[0]
            for word in range(1, words):
                row = total[word]
                overflow = row < x[word]
                row += carry
                if word < words - 1:
                    overflow |= row < carry
                    carry = overflow
        diag_zero = total  # reused in place: total is dead after this point
        diag_zero ^= vp
        diag_zero |= eq
        diag_zero |= vn
        horizontal_pos = diag_zero | vp
        np.invert(horizontal_pos, out=horizontal_pos)
        horizontal_pos |= vn
        horizontal_neg = vp & diag_zero
        score_k += (horizontal_pos[-1] & high_bit) != zero
        score_k -= (horizontal_neg[-1] & high_bit) != zero
        # << 1 across words: bit 63 of word w feeds bit 0 of word w + 1; HP
        # shifts a 1 into the very bottom (the scalar kernel's `| 1`).
        if words > 1:
            pos_carries = horizontal_pos[:-1] >> word_top
            neg_carries = horizontal_neg[:-1] >> word_top
        horizontal_pos <<= one
        horizontal_neg <<= one
        if words > 1:
            horizontal_pos[1:] |= pos_carries
            horizontal_neg[1:] |= neg_carries
        horizontal_pos[0] |= one
        horizontal_pos[-1] &= top_mask
        horizontal_neg[-1] &= top_mask
        vp = diag_zero | horizontal_pos
        np.invert(vp, out=vp)
        vp |= horizontal_neg
        vp[-1] &= top_mask
        np.bitwise_and(horizontal_pos, diag_zero, out=vn)
        if bound is not None and (column & 15) == 15:
            # The score drops by at most 1 per remaining character, so once
            # every active lane's floor exceeds the bound nothing can recover.
            floors = score_k - (sorted_lengths[:k] - column - 1)
            if int(floors.min()) > bound:
                result[:k] = bound + 1
                active = 0
                break
    if active:
        result[:active] = score[:active]

    if bound is not None:
        np.minimum(result, bound + 1, out=result)
    unsorted = np.empty(count, dtype=np.int64)
    unsorted[order] = result
    return unsorted

"""Columnar read-pool storage: one flat byte array for a whole read set.

The pipeline's hot stages (signature screening, gray-zone edit verdicts,
consensus voting) all iterate over *every* read.  Keeping reads as a Python
``list[str]`` makes each of those passes pay per-object interpreter tax; the
:class:`ReadPool` instead stores the pool as

* ``data`` — every read's bytes concatenated into one ``uint8`` array, and
* ``offsets`` — ``int64`` prefix offsets (``n + 1`` entries) delimiting reads,

which is the radix layout the batched q-gram signatures scan.  Base codes
(A=0, C=1, G=2, T=3 via ``_BASE_CODES``; 255 marks anything off the
alphabet) are derived lazily and cached, so batched kernels
(:mod:`repro.dna.distance_batch`, matrix consensus, windowed POA) gather
lanes without re-encoding, while ``from_strings`` / ``to_strings``
round-trip losslessly for arbitrary latin-1 payloads.

This module is the one place strings become base codes.  Every batched
stage (signatures, gray-zone verdicts, consensus matrices, per-read edit
distances) takes a pool or view and coerces anything else once at its
boundary via :func:`as_read_pool` / :func:`as_read_view`, which reject
reads outside latin-1 with a :class:`ValueError`.  Latin-1 reads off the
ACGT alphabet (``N``, lowercase) are stored losslessly and routed to the
scalar kernels through :attr:`ReadPool.is_acgt`.

A :class:`ReadPool` is a ``Sequence[str]`` — ``len``, indexing, and slicing
behave like the list of reads it replaces — so it drops into every existing
API (clustering, :class:`repro.parallel.WorkerPool` chunking, provenance)
without adapters.  :meth:`ReadPool.view` produces a zero-copy
:class:`ReadPoolView` over a subset of reads (e.g. one cluster), which
pickles as a compact standalone pool so process fan-out ships only the reads
it needs; :func:`concat_views` gathers views of any number of pools (e.g.
clusters unpickled in a worker) back into one.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.dna.alphabet import BASES

#: code used for padding positions in dense per-cluster matrices; distinct
#: from the 0..3 base codes and from the 255 non-ACGT sentinel.
PAD_CODE = 4

#: sentinel marking bytes outside ACGT in :attr:`ReadPool.codes`.
NON_ACGT_CODE = 255

#: byte value -> base code (0..3); NON_ACGT_CODE marks bytes outside ACGT
_BASE_CODES = np.full(256, NON_ACGT_CODE, dtype=np.uint8)
for _code, _base in enumerate(BASES):
    _BASE_CODES[ord(_base)] = _code


def _encode_acgt(sequence: str) -> Optional[np.ndarray]:
    """Base codes (0..3) of one string, or ``None`` off the ACGT alphabet.

    For single patterns and grams; read sets go through :class:`ReadPool`.
    """
    try:
        raw = sequence.encode("ascii")
    except UnicodeEncodeError:
        return None
    codes = _BASE_CODES[np.frombuffer(raw, dtype=np.uint8)]
    if codes.size and codes.max(initial=0) == NON_ACGT_CODE:
        return None
    return codes


class ReadPool(Sequence[str]):
    """Immutable columnar pool of reads (flat bytes + offsets)."""

    __slots__ = ("data", "offsets", "_codes", "_strings", "_acgt_per_read")

    def __init__(self, data: np.ndarray, offsets: np.ndarray) -> None:
        self.data = np.ascontiguousarray(data, dtype=np.uint8)
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        if self.offsets.ndim != 1 or self.offsets.size == 0:
            raise ValueError("offsets must be a non-empty 1-d array")
        if self.offsets[0] != 0 or self.offsets[-1] != self.data.size:
            raise ValueError("offsets must start at 0 and end at len(data)")
        if np.any(np.diff(self.offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        self._codes: np.ndarray | None = None
        self._strings: List[str] | None = None
        self._acgt_per_read: np.ndarray | None = None

    # -- construction -------------------------------------------------

    @classmethod
    def from_strings(cls, reads: Iterable[str]) -> "ReadPool":
        """Build a pool from reads; lossless for any latin-1 text.

        Raises :class:`ValueError` naming the first read that contains
        characters outside latin-1 (no single-byte encoding exists for it).
        """
        materialised = list(reads)
        try:
            chunks = [read.encode("latin-1") for read in materialised]
        except UnicodeEncodeError as exc:
            index = next(
                i for i, read in enumerate(materialised) if max(read) > "\xff"
            )
            raise ValueError(
                f"read {index} is not latin-1: ReadPool only stores "
                "single-byte strings"
            ) from exc
        offsets = np.zeros(len(chunks) + 1, dtype=np.int64)
        if chunks:
            np.cumsum([len(chunk) for chunk in chunks], out=offsets[1:])
        data = np.frombuffer(b"".join(chunks), dtype=np.uint8).copy()
        pool = cls(data, offsets)
        pool._strings = [str(read) for read in materialised]
        return pool

    # -- derived columns ----------------------------------------------

    @property
    def codes(self) -> np.ndarray:
        """Base codes (0..3, 255 = non-ACGT) for the flat data, cached."""
        if self._codes is None:
            self._codes = _BASE_CODES[self.data]
        return self._codes

    @property
    def lengths(self) -> np.ndarray:
        """Per-read lengths as ``int64``."""
        return np.diff(self.offsets)

    @property
    def acgt_per_read(self) -> np.ndarray:
        """Boolean per read: ``True`` when the read is pure ACGT."""
        if self._acgt_per_read is None:
            bad = np.concatenate(
                ([0], np.cumsum((self.codes == NON_ACGT_CODE).astype(np.int64)))
            )
            self._acgt_per_read = (bad[self.offsets[1:]] - bad[self.offsets[:-1]]) == 0
        return self._acgt_per_read

    @property
    def is_acgt(self) -> bool:
        """``True`` when every read in the pool is pure ACGT."""
        return bool(self.acgt_per_read.all())

    # -- Sequence[str] protocol ---------------------------------------

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                return [self[position] for position in range(start, stop, step)]
            offsets = self.offsets[start : stop + 1] - self.offsets[start]
            data = self.data[self.offsets[start] : self.offsets[stop]]
            sliced = ReadPool(data, offsets)
            if self._strings is not None:
                sliced._strings = self._strings[start:stop]
            return sliced
        position = int(index)
        if position < 0:
            position += len(self)
        if not 0 <= position < len(self):
            raise IndexError("read index out of range")
        if self._strings is not None:
            return self._strings[position]
        lo, hi = self.offsets[position], self.offsets[position + 1]
        return self.data[lo:hi].tobytes().decode("latin-1")

    def to_strings(self) -> List[str]:
        """All reads as Python strings (cached after first call)."""
        if self._strings is None:
            text = self.data.tobytes().decode("latin-1")
            offsets = self.offsets
            self._strings = [
                text[offsets[index] : offsets[index + 1]]
                for index in range(len(self))
            ]
        return self._strings

    # -- subsetting ---------------------------------------------------

    def subset(self, indices: Sequence[int]) -> "ReadPool":
        """Compact standalone pool holding ``reads[i] for i in indices``."""
        index_array = np.asarray(indices, dtype=np.int64)
        lengths = self.lengths[index_array]
        offsets = np.zeros(index_array.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        # Source byte of every output byte: read start + position in read.
        shift = np.repeat(self.offsets[index_array] - offsets[:-1], lengths)
        data = self.data[np.arange(int(offsets[-1]), dtype=np.int64) + shift]
        return ReadPool(data, offsets)

    def view(self, indices: Sequence[int]) -> "ReadPoolView":
        """Zero-copy view of a subset of reads (e.g. one cluster)."""
        return ReadPoolView(self, np.asarray(indices, dtype=np.int64))

    def padded_codes(self, pad: int = PAD_CODE) -> "tuple[np.ndarray, np.ndarray]":
        """Dense ``(n, max_len)`` code matrix padded with *pad*, plus lengths."""
        return _padded_codes(self.codes, self.offsets[:-1], self.lengths, pad)

    def __getstate__(self):
        # Ship only the columnar arrays; caches (codes, strings, flags) are
        # cheap to rebuild and would bloat worker-chunk pickles.
        return (self.data, self.offsets)

    def __setstate__(self, state) -> None:
        self.data, self.offsets = state
        self._codes = None
        self._strings = None
        self._acgt_per_read = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ReadPool(reads={len(self)}, bytes={self.data.size})"


def _padded_codes(
    codes: np.ndarray, starts: np.ndarray, lengths: np.ndarray, pad: int
) -> "tuple[np.ndarray, np.ndarray]":
    count = starts.size
    width = int(lengths.max()) if count else 0
    matrix = np.full((count, width), pad, dtype=np.uint8)
    if width and codes.size:
        columns = np.arange(width)
        valid = columns[None, :] < lengths[:, None]
        matrix[valid] = codes[(starts[:, None] + columns[None, :])[valid]]
    return matrix, lengths.copy()


class ReadPoolView(Sequence[str]):
    """Lazy ``Sequence[str]`` over a subset of a :class:`ReadPool`.

    Holds only the parent pool reference and an index array, so building one
    per cluster is O(cluster size) ints — no string copies.  Pickling
    compacts the view into a standalone pool carrying just its own reads, so
    worker fan-out does not ship the whole parent pool per cluster.
    """

    __slots__ = ("pool", "indices")

    def __init__(self, pool: ReadPool, indices: np.ndarray) -> None:
        self.pool = pool
        self.indices = np.asarray(indices, dtype=np.int64)

    def __len__(self) -> int:
        return self.indices.size

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return ReadPoolView(self.pool, self.indices[index])
        return self.pool[int(self.indices[index])]

    @property
    def lengths(self) -> np.ndarray:
        return self.pool.lengths[self.indices]

    @property
    def is_acgt(self) -> bool:
        return bool(self.pool.acgt_per_read[self.indices].all())

    def to_strings(self) -> List[str]:
        return [self.pool[int(position)] for position in self.indices]

    def padded_codes(self, pad: int = PAD_CODE) -> "tuple[np.ndarray, np.ndarray]":
        return _padded_codes(
            self.pool.codes,
            self.pool.offsets[:-1][self.indices],
            self.pool.lengths[self.indices],
            pad,
        )

    def __reduce__(self):
        return (as_read_view, (self.pool.subset(self.indices),))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ReadPoolView(reads={len(self)})"


def as_read_pool(reads: Sequence[str]) -> ReadPool:
    """Coerce *reads* to a :class:`ReadPool` (views are compacted).

    Raises :class:`ValueError` when a read is outside latin-1.
    """
    if isinstance(reads, ReadPool):
        return reads
    if isinstance(reads, ReadPoolView):
        return reads.pool.subset(reads.indices)
    return ReadPool.from_strings(reads)


def as_read_view(reads: Sequence[str]) -> ReadPoolView:
    """Coerce *reads* to a :class:`ReadPoolView` (views pass through zero-copy).

    Raises :class:`ValueError` when a read is outside latin-1.
    """
    if isinstance(reads, ReadPoolView):
        return reads
    pool = as_read_pool(reads)
    return pool.view(np.arange(len(pool), dtype=np.int64))


def concat_views(groups: Sequence[Sequence[str]]) -> ReadPoolView:
    """One view over the reads of every group, in order.

    Groups may be views of different pools — clusters unpickled in a worker
    each carry their own compact pool — or anything :func:`as_read_view`
    accepts.  Views sharing one pool stay zero-copy; otherwise the distinct
    pools' columns are concatenated once.
    """
    views = [as_read_view(group) for group in groups]
    if not views:
        return ReadPool.from_strings([]).view([])
    pools: List[ReadPool] = []
    read_bases: dict = {}
    total = 0
    for view in views:
        if id(view.pool) not in read_bases:
            read_bases[id(view.pool)] = total
            total += len(view.pool)
            pools.append(view.pool)
    indices = np.concatenate(
        [view.indices + read_bases[id(view.pool)] for view in views]
    )
    if len(pools) == 1:
        return ReadPoolView(pools[0], indices)
    byte_bases = np.cumsum([0] + [pool.data.size for pool in pools[:-1]])
    offsets = np.concatenate(
        [[0]] + [pool.offsets[1:] + base for pool, base in zip(pools, byte_bases)]
    )
    data = np.concatenate([pool.data for pool in pools])
    return ReadPoolView(ReadPool(data, offsets), indices)

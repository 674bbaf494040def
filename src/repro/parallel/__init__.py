"""Unified parallel execution layer for the pipeline.

One :class:`WorkerPool` (serial or process-pool backend, chunked fan-out)
serves every embarrassingly-parallel stage, and
:func:`derive_seed` gives sharded stages per-item RNG streams so outputs
are byte-identical at any worker count.  See the module docstrings of
:mod:`repro.parallel.pool` and :mod:`repro.parallel.seeding` for the
design notes.
"""

from repro.parallel.pool import DEFAULT_MIN_ITEMS, WorkerPool
from repro.parallel.seeding import derive_seed

__all__ = ["DEFAULT_MIN_ITEMS", "WorkerPool", "derive_seed"]

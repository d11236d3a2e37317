"""Vectorized hot-path engine for MobiEyes (``engine="vectorized"``).

The reference engine is deliberately per-object pure Python; at paper scale
(Table 1: 10,000 objects, 1,000 queries) its three hot loops dominate the
wall clock: object movement, the per-step coverage-index rebuild, and the
object-side LQT evaluation.  This package keeps the *protocol* untouched --
every message still flows through :class:`~repro.core.client.MobiEyesClient`
and :class:`~repro.core.transport.SimulatedTransport`, so ledgers, traces,
and the loss model see bit-identical traffic -- but replaces the hot-loop
*computation* with structure-of-arrays numpy kernels:

- :class:`~repro.fastpath.store.ObjectStateStore`: the one owner of the
  objects' kinematic state -- positions, velocities, ``recorded_at``,
  speed bounds, grid cells, lattice tiles -- as ``float64`` / ``int64``
  columns; the objects everyone holds are row views over it.
- :class:`~repro.fastpath.motion.VectorizedMotionModel`: movement as
  array operations on those columns; boundary reflections fall back to
  the scalar kernel for the few out-of-bounds objects, bit for bit.
- :class:`~repro.fastpath.coverage.VectorizedCoverageIndex`: cell/tile
  bucketing as a stable ``argsort`` group-by and every station's receivers
  resolved in one batched distance pass, once per step; a lookup is a
  ``set`` filled from list slices.
- :class:`~repro.fastpath.evaluator.BatchEvaluator`: all LQT entries
  system-wide in one persistent arena, one slot per entry that never
  moves; ``dist^2 vs reach^2``, containment, safe periods, and enter/leave deltas
  as array expressions; differential reports dispatched through the
  unchanged client/transport message path.

numpy is an *optional* dependency: the reference engine never imports it,
and requesting ``engine="vectorized"`` without numpy raises a clear error.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=1)
def numpy_available() -> bool:
    """Whether numpy can be imported (the fast path is usable)."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def require_numpy():
    """Import and return numpy, raising a helpful error when absent."""
    try:
        import numpy
    except ImportError as exc:  # pragma: no cover - depends on environment
        raise RuntimeError(
            "MobiEyesConfig(engine='vectorized') requires numpy; install the "
            "'fast' extra (pip install .[fast]) or use engine='reference'"
        ) from exc
    return numpy


__all__ = ["numpy_available", "require_numpy"]

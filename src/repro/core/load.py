"""Shared load accounting for server-side components.

Server load is measured two ways, as in the paper's "time spent executing
the server side logic per time step":

- ``seconds``: wall-clock time spent inside timed sections, re-entrant
  (nested sections are counted once), with explicit *pauses* for the spans
  that are not server work (e.g. waiting on a client round trip).
- ``ops``: a deterministic abstract operation counter for
  hardware-independent comparisons (and for the differential tests, which
  cannot compare wall-clock values).

Every server component -- the monolithic server, and each shard behind the
coordinator -- charges one :class:`LoadAccount`, which is its own
re-entrant context manager: a handler's ``with self.load.timed():``
allocates nothing, and only the outermost enter/exit pair reads the clock.

Counters in this package only go up.  A component names its lifetime
counters once, in a class-level ``COUNTERS`` tuple that its
``CHECKPOINT_FIELDS`` include (a counter *is* a checkpoint field);
:func:`read_counters` is the one read of that tuple, and anything that
wants a per-step or per-window figure keeps a *mark* of the totals and
subtracts (``MobiEyesSystem._measurement_phase``, the rebalance policy's
window, the run driver's tail window).  Nothing is zeroed on read.
"""

from __future__ import annotations

import time
from typing import Any


class _PausedSection:
    """Context manager suspending an account's running timed section."""

    __slots__ = ("account",)

    def __init__(self, account: "LoadAccount") -> None:
        self.account = account

    def __enter__(self) -> "LoadAccount":
        self.account.__exit__()
        return self.account

    def __exit__(self, *exc_info: object) -> None:
        self.account.__enter__()


def read_counters(owner: Any) -> dict[str, Any]:
    """The lifetime counters ``owner``'s class names in ``COUNTERS``
    (empty for a component the system was built without)."""
    if owner is None:
        return {}
    return {name: getattr(owner, name) for name in owner.COUNTERS}


class LoadAccount:
    """Re-entrant wall-clock + operation-count accounting for one server.

    ``seconds`` / ``ops`` accumulate over the account's lifetime: the
    step sample, the rebalance policy and the per-shard load-balance
    report all difference them against their own marks.
    """

    __slots__ = ("seconds", "ops", "_depth", "_start")

    COUNTERS = ("seconds", "ops")
    #: Rides in its server unit's checkpoint section (core/snapshot.py).
    CHECKPOINT_FIELDS = COUNTERS

    def __init__(self) -> None:
        self.seconds = 0.0
        self.ops = 0
        self._depth = 0
        self._start = 0.0

    def timed(self) -> "LoadAccount":
        """``with account.timed(): ...`` -- a timed section (re-entrant)."""
        return self

    def __enter__(self) -> "LoadAccount":
        if self._depth == 0:
            self._start = time.perf_counter()
        self._depth += 1
        return self

    def __exit__(self, *exc_info: object) -> None:
        """The outermost exit accumulates."""
        self._depth -= 1
        if self._depth == 0:
            self.seconds += time.perf_counter() - self._start

    def paused(self) -> _PausedSection:
        """``with account.paused(): ...`` inside a timed section -- a span
        that is *not* server work (e.g. a synchronous client round trip)."""
        return _PausedSection(self)


def load_balance(shard_loads: list[dict]) -> dict:
    """Balance summary over the per-shard lifetime load counters.

    ``imbalance`` is max/mean over the deterministic ``ops`` counters:
    1.0 is a perfect split, ``num_shards`` is the degenerate case of all
    load on one shard.  The seconds-based view reports the same split in
    wall time: ``aggregate_seconds`` sums every shard,
    ``critical_seconds`` is the slowest shard, and ``imbalance_seconds``
    is that slowest shard over the mean.
    """
    ops = [row["ops"] for row in shard_loads]
    seconds = [row["seconds"] for row in shard_loads]
    mean_ops = sum(ops) / max(1, len(ops))
    mean_seconds = sum(seconds) / max(1, len(seconds))
    return {
        "num_shards": len(shard_loads),
        "min_ops": min(ops),
        "max_ops": max(ops),
        "mean_ops": round(mean_ops, 1),
        "imbalance": round(max(ops) / mean_ops, 3) if mean_ops else 1.0,
        "aggregate_seconds": round(sum(seconds), 4),
        "min_seconds": round(min(seconds), 4),
        "max_seconds": round(max(seconds), 4),
        "critical_seconds": round(max(seconds), 4),
        "imbalance_seconds": round(max(seconds) / mean_seconds, 3) if mean_seconds else 1.0,
    }

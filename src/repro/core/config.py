"""Configuration of a MobiEyes deployment.

One frozen dataclass, validated once at construction.  A field exists
because some caller sets it; a value every caller leaves at its default
is a constant where it is read (the paper's one-step LQT evaluation, the
lazy-propagation static beacon cadence in :mod:`repro.core.server`, the
ledger's GSM/GPRS :class:`~repro.network.radio.RadioModel`, the service's
derived ingest queue bound); ``tests/test_ci_checks.py`` holds that rule.
Service ingest has one knob, the per-tick
admission budget: backpressure is a rejected submission, never a withheld
tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry import Rect
from repro.core.propagation import PropagationMode
from repro.core.rebalance import MIN_SHARDS


@dataclass(frozen=True, slots=True)
class MobiEyesConfig:
    """All knobs of the distributed MobiEyes system.

    Attributes:
        uod: the universe of discourse rectangle.
        alpha: grid cell side length (miles); the paper's key tuning knob.
        step_seconds: simulation time step (paper: 30 s).
        base_station_side: lattice pitch of the base-station deployment
            (the paper's ``alen``; miles).
        propagation: eager or lazy query propagation.
        dead_reckoning_threshold: the paper's ``delta`` (miles) -- focal
            objects relay their motion state when the true position deviates
            from the broadcast prediction by more than this.  ``0`` relays
            on any deviation (exact predictions under linear motion).
        grouping: enable query grouping (server-side bundling of queries
            sharing a focal object and monitoring region; object-side shared
            evaluation with the query bitmap in result reports).
        safe_period: enable the safe-period optimization (Section 4.2).
        engine: hot-path implementation.  ``"reference"`` is the pure-Python
            per-object protocol (no third-party imports); ``"vectorized"``
            runs movement, coverage indexing, cell-crossing detection, and
            LQT evaluation through the numpy-backed
            :mod:`repro.fastpath` engine, producing bit-identical results
            and message traffic.  Requires numpy.
        shards: number of grid-partitioned server shards.  ``1`` runs the
            monolithic server; larger values split the grid into contiguous
            column stripes, each served by a
            :class:`~repro.core.shard.ServerShard` behind a
            :class:`~repro.core.coordinator.Coordinator` that routes
            uplinks by cell and hands focal ownership across shard
            boundaries.  Counts exceeding the number of grid columns are
            clamped.
        uplink_latency_steps: delivery delay of an object -> server
            message, in whole simulation steps.  ``0`` (the default)
            delivers inline at send time -- the paper's synchrony
            assumption and the bit-identical legacy behavior.
        downlink_latency_steps: delivery delay of one server -> object
            hop (each broadcast receiver is an independent hop).
        latency_jitter_steps: extra seeded uniform delay in
            ``[0, latency_jitter_steps]`` added to every hop.
        latency_seed: seed of the jitter stream (ignored while the jitter
            span is zero).
        batch_reports: run the high-volume uplink reports (result, cell,
            velocity changes) through the buffered pipeline
            (:mod:`repro.core.reporting`): clients append one row tuple
            per report to a shared buffer flushed once per window instead
            of allocating one dataclass per report (a record lost or
            deferred on its way up stays a row).  Result hashes, message
            counts, sizes, and energy accounting are bit-identical either
            way; ``False`` forces the historical per-message path.
        shard_workers: accepts only ``0`` (the pooled shard executors were
            removed); kept because ``bench/workloads.py`` passes it.
        checkpoint_every_steps: cadence (in steps) at which the system
            retakes its in-memory *recovery basis*: the server tables as
            bytes, which a crashed shard is rebuilt from (``0``, the
            default, keeps none; shard crash windows need a tick before
            the first window).  Nothing leaves the process: durability is
            the caller's ``checkpoint(system).to_bytes()``
            (:mod:`repro.core.snapshot`), which carries the basis.
        rebalance_every_steps: cadence (in steps) at which the load-aware
            :class:`~repro.core.rebalance.RebalancePolicy` inspects the
            per-shard ``ops`` counters and may move a column span between
            stripe-adjacent shards.  ``0`` (the default) disables
            policy-driven rebalancing.  The counters are deterministic, so
            policy runs repeat bit-identically on either engine; the
            thresholds are constants in :mod:`repro.core.rebalance`.
        rebalance_schedule: explicit, deterministic repartition triggers as
            ``(step, src, dst, cols)`` tuples: at the top of ``step``, move
            ``cols`` columns from shard ``src`` into the adjacent shard
            ``dst``.  A fixed schedule keeps runs bit-identical across
            engines and shard counts (out-of-range ops clamp to
            no-ops, but the rebalance directive still broadcasts so message
            counts and the energy ledger match everywhere).
        elastic_max_shards: ceiling of the *elastic* scale-out policy.
            ``0`` (the default) disables elasticity; a positive value lets
            the rebalance policy change the shard *count* at its cadence
            (``rebalance_every_steps``): a persistently hot stripe is
            split into a newly spawned shard (up to this many live
            shards) and a persistently cold stripe is merged away and its
            slot retired.  Requires ``shards >= 2``, a positive
            ``rebalance_every_steps`` and a ceiling of at least 2.
        elastic_schedule: explicit, deterministic elastic triggers:
            ``(step, "split", donor)`` spawns a new shard from ``donor``'s
            stripe and ``(step, "merge", sid, into)`` drains shard ``sid``
            into its stripe-adjacent neighbor ``into`` and retires the
            slot, both at the top of ``step`` (CI's soak row uses it);
            requires ``shards >= 2`` and cannot be combined with
            ``rebalance_schedule`` (a fixed ``(src, dst)`` schedule is
            written against fixed shard ids).
        ingest_budget_per_step: service-mode admission budget -- how many
            queued ingest operations (position updates, query installs or
            removals) a :class:`~repro.core.service.MobiEyesService`
            admits into the system per tick.  ``0`` (the default) admits
            everything queued.  The queue bound derives from it: budget x
            the latency model's pipeline depth (1 + uplink + downlink +
            jitter steps), unbounded when the budget is 0.  A submission
            that would overflow the bound is rejected -- counted in
            ``backpressure_rejects``, never silently dropped.
        eval_period_hours: derived, not set: one step in hours, the period
            every object evaluates its LQT at (the safe-period comparison).
    """

    uod: Rect
    alpha: float = 5.0
    step_seconds: float = 30.0
    base_station_side: float = 10.0
    propagation: PropagationMode = PropagationMode.EAGER
    dead_reckoning_threshold: float = 0.0
    grouping: bool = True
    safe_period: bool = False
    engine: str = "reference"
    shards: int = 1
    uplink_latency_steps: int = 0
    downlink_latency_steps: int = 0
    latency_jitter_steps: int = 0
    latency_seed: int = 0
    batch_reports: bool = True
    shard_workers: int = 0
    checkpoint_every_steps: int = 0
    rebalance_every_steps: int = 0
    rebalance_schedule: tuple[tuple[int, int, int, int], ...] = ()
    elastic_max_shards: int = 0
    elastic_schedule: tuple[tuple, ...] = ()
    ingest_budget_per_step: int = 0
    eval_period_hours: float = field(init=False, repr=False, compare=False, default=0.0)

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.step_seconds <= 0:
            raise ValueError("step_seconds must be positive")
        if self.base_station_side <= 0:
            raise ValueError("base_station_side must be positive")
        if self.dead_reckoning_threshold < 0:
            raise ValueError("dead_reckoning_threshold must be non-negative")
        if self.engine not in ("reference", "vectorized"):
            raise ValueError(f"engine must be 'reference' or 'vectorized', got {self.engine!r}")
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        for knob in ("uplink_latency_steps", "downlink_latency_steps", "latency_jitter_steps"):
            if getattr(self, knob) < 0:
                raise ValueError(f"{knob} must be non-negative")
        if self.shard_workers != 0:
            raise ValueError(
                f"shard_workers must be 0, got {self.shard_workers!r}: the pooled shard "
                "executors were removed -- the server tier is under 12% of step wall on "
                "every benchmark workload, so no pool can beat the coordinator driving "
                "each shard in the calling thread"
            )
        if self.checkpoint_every_steps < 0:
            raise ValueError("checkpoint_every_steps must be non-negative")
        if self.rebalance_every_steps < 0:
            raise ValueError("rebalance_every_steps must be non-negative")
        for op in self.rebalance_schedule:
            if len(op) != 4 or any(not isinstance(v, int) for v in op):
                raise ValueError(
                    f"rebalance_schedule entries must be (step, src, dst, cols) ints, got {op!r}"
                )
            step, src, dst, cols = op
            if step < 1 or src < 0 or dst < 0 or cols < 1 or abs(src - dst) != 1:
                raise ValueError(f"invalid rebalance op {op!r}")
        if self.elastic_max_shards < 0:
            raise ValueError("elastic_max_shards must be non-negative")
        for op in self.elastic_schedule:
            if (
                len(op) < 3
                or not isinstance(op[0], int)
                or op[0] < 1
                or op[1] not in ("split", "merge")
            ):
                raise ValueError(
                    f"elastic_schedule entries must be (step, 'split', donor) or "
                    f"(step, 'merge', sid, into), got {op!r}"
                )
            if op[1] == "split" and (len(op) != 3 or not isinstance(op[2], int) or op[2] < 0):
                raise ValueError(f"invalid elastic split op {op!r}")
            if op[1] == "merge" and (
                len(op) != 4
                or any(not isinstance(v, int) or v < 0 for v in op[2:])
                or op[2] == op[3]
            ):
                raise ValueError(f"invalid elastic merge op {op!r}")
        elastic = self.elastic_max_shards > 0 or bool(self.elastic_schedule)
        if elastic:
            if self.shards < 2:
                raise ValueError("elastic scale-out requires a sharded server (shards >= 2)")
            if self.rebalance_schedule:
                raise ValueError(
                    "elastic_schedule / elastic_max_shards cannot be combined with "
                    "rebalance_schedule (fixed (src, dst) schedules assume fixed ids)"
                )
        if self.elastic_max_shards > 0:
            if self.rebalance_every_steps < 1:
                raise ValueError(
                    "elastic_max_shards requires a positive rebalance_every_steps cadence"
                )
            if self.elastic_max_shards < MIN_SHARDS:
                raise ValueError(f"elastic_max_shards must be 0 or at least {MIN_SHARDS}")
        if self.ingest_budget_per_step < 0:
            raise ValueError("ingest_budget_per_step must be non-negative")
        # Cached once: every object evaluates its LQT each step, so the
        # safe-period comparisons read one step in hours.
        object.__setattr__(self, "eval_period_hours", self.step_seconds / 3600.0)

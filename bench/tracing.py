"""Outside-in tracing: spans recorded from the benchmark's own files.

Nothing under ``src/`` knows it is being traced.  :class:`Tracer` replaces
bound methods on *instances* (one class-level patch: the 10,000 clients'
``on_downlink``) with wrappers that record ``(name, start, end, parent,
step)`` spans in memory; ``parent`` is the index of the span that was
open when this one started, so a span's self time is its duration minus
what its direct children cover.

Spans are kept as parallel columns (typed arrays, not tuples): a few
hundred thousand live tuples make the cyclic collector run often enough
to cost more than the wrappers themselves.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from repro.core.client import MobiEyesClient
from repro.core.messages import REC_CELL, REC_RESULT, REC_VELOCITY
from repro.sim.engine import PHASE_ORDER

PHASE_PREFIX = "sim.engine.phase."
_MISSING = object()
# Report-record kind codes to the names the metrics use.
RECORD_KINDS = {REC_RESULT: "result", REC_CELL: "cell", REC_VELOCITY: "velocity"}


def _type_suffix(prefix: str, position: int):
    """Span namer: ``prefix`` + the class name of one positional argument."""

    def name(*args, **_kwargs):
        return prefix + type(args[position]).__name__

    return name


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.steps = array("q")
        self.counts: Counter = Counter()
        self.step = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def spans(self) -> list[tuple]:
        """Every recorded span as ``(name, start, end, parent, step)``."""
        return list(zip(self.names, self.starts, self.ends, self.parents, self.steps))

    # ---------------------------------------------------------- recording

    def _open(self, name: str) -> int:
        """Start a span; the caller closes it with ``ends[idx] = now``."""
        stack = self._stack
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.steps.append(self.step)
        self.ends.append(0.0)
        stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self.ends[idx] = perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is the span name, or a callable deriving it from the call's
        arguments (per message type / record kind).  ``before(*args)`` and
        ``after(result)`` are count hooks run outside the span.
        """
        fn = getattr(owner, attr)
        fixed = name if isinstance(name, str) else None
        open_span = self._open
        ends = self.ends
        stack = self._stack

        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            idx = open_span(fixed or name(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        self._replace(owner, attr, traced)

    def count_calls(self, owner, attr: str, name: str) -> None:
        """Count calls without a span (for hooks too hot to time)."""
        fn = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._replace(owner, attr, counted)

    def _replace(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------ install

    def install(self, driver) -> None:
        """Wrap the public entry points of every layer ``driver``'s system
        crosses, and hand the driver the phase-by-phase stepper."""
        system = driver.system
        transport = system.transport
        engine = system.engine
        clock = engine.clock
        vectorized = system.config.engine == "vectorized"
        counts = self.counts

        if vectorized:
            self.wrap(system.motion, "advance", "fastpath.motion.advance")
            self.wrap(transport, "begin_step", "fastpath.coverage.rebuild")
            coverage = transport.coverage
            for attr in ("covered_by_stations", "in_cells", "receiver_mask"):
                self.wrap(coverage, attr, "fastpath.coverage.lookup")
            fanout = transport.fanout

            def accepted(result) -> None:
                counts["fastpath.fanout.accepted"] += bool(result)

            self.wrap(fanout, "try_broadcast", "fastpath.fanout.try_broadcast", after=accepted)
            self.wrap(fanout.evaluator, "run", "fastpath.evaluator.run")
            self.count_calls(fanout.evaluator, "lqt_changed", "fastpath.evaluator.lqt_changed")
        else:
            self.wrap(system.motion, "advance", "mobility.motion.advance")
            self.wrap(transport, "begin_step", "core.transport.begin_step")

        def count_records(buf) -> None:
            for kind in buf.kind:
                counts["core.reporting.records." + RECORD_KINDS[kind]] += 1

        self.wrap(transport, "flush_reports", "core.transport.flush_reports", before=count_records)
        self.wrap(transport, "uplink", "core.transport.uplink")
        self.wrap(transport, "send", _type_suffix("core.transport.send.", 1))
        self.wrap(transport, "broadcast", _type_suffix("core.transport.broadcast.", 1))
        self.wrap(transport, "delivery_phase", "core.transport.delivery_phase")
        self.wrap(system.layout, "minimal_cover", "network.basestation.minimal_cover")
        self.wrap(system.ledger, "record_uplink", "network.messaging.record")
        self.wrap(system.ledger, "record_downlink", "network.messaging.record")
        self.wrap(MobiEyesClient, "on_downlink", _type_suffix("core.client.on_downlink.", 1))

        def record_name(cols, i):
            return "core.server.apply_record." + RECORD_KINDS[cols.kind[i]]

        server = system.server
        shards = getattr(server, "shards", None)
        if shards is not None:
            # Coordinator spans minus the shard spans they contain = routing.
            for attr in ("on_uplink", "apply_report_record", "install_query", "remove_query"):
                self.wrap(server, attr, "core.coordinator." + attr)
            self.wrap(server, "apply_rebalance", "core.coordinator.apply_rebalance")
        for unit in shards if shards is not None else (server,):
            self.wrap(unit, "apply_report_record", record_name)
            self.wrap(unit, "on_uplink", _type_suffix("core.server.on_uplink.", 0))
            self.wrap(unit, "install_query", "core.server.install_query")
            self.wrap(unit, "remove_query", "core.server.remove_query")

        if driver.service is not None:
            service = driver.service

            def queue_depth(_admitted) -> None:
                # What this admission slot left waiting.
                counts["core.service.queue_depth_max"] = max(
                    counts["core.service.queue_depth_max"], service.queue_depth
                )

            def next_step() -> None:
                # The admission slot belongs to the step it precedes.
                self.step = clock.step + 1

            self.wrap(
                service, "admit", "core.service.admit", before=next_step, after=queue_depth
            )
            driver.admit = service.admit

        def step_by_phase() -> int:
            # engine.step(), phase by phase, through the engine's public
            # surface; same callbacks, same order.
            clock.advance()
            self.step = clock.step
            for phase in PHASE_ORDER:
                with self.span(PHASE_PREFIX + phase):
                    for callback in engine.callbacks(phase):
                        callback(clock)
            return clock.step

        driver.step_system = step_by_phase

    # -------------------------------------------------------------- output

    def write(self, path, header: dict) -> None:
        """One header line, then one ``[name_id, start, end, parent, step]``
        line per span (names are interned in the header)."""
        names: dict[str, int] = {}
        for name in self.names:
            names.setdefault(name, len(names))
        header = dict(header, names=list(names), counts=dict(self.counts))
        with open(path, "w", encoding="ascii") as out:
            out.write(json.dumps({"header": header}) + "\n")
            for name, started, ended, parent, step in self.spans():
                out.write(f"[{names[name]},{started!r},{ended!r},{parent},{step}]\n")


def read_trace(path):
    """Inverse of :meth:`Tracer.write`: ``(header, spans)``."""
    with open(path, encoding="ascii") as src:
        header = json.loads(src.readline())["header"]
        names = header["names"]
        spans = []
        for line in src:
            name_id, started, ended, parent, step = json.loads(line)
            spans.append((names[name_id], started, ended, parent, step))
    return header, spans


def aggregate(spans, first_step: int, factors) -> dict[str, dict]:
    """Per span name: ``total`` seconds, ``self`` seconds (total minus the
    time direct children cover) and ``calls``.  Seconds are host-normalised:
    a span of step ``first_step + i`` is scaled by ``factors[i]``."""
    child_time = [0.0] * len(spans)
    for _name, started, ended, parent, _step in spans:
        if parent >= 0:
            child_time[parent] += ended - started
    table: dict[str, dict] = {}
    for idx, (name, started, ended, _parent, step) in enumerate(spans):
        row = table.get(name)
        if row is None:
            row = table[name] = {"total": 0.0, "self": 0.0, "calls": 0}
        factor = factors[step - first_step]
        duration = ended - started
        row["total"] += duration * factor
        row["self"] += (duration - child_time[idx]) * factor
        row["calls"] += 1
    return table


def unattributed_share(table: dict[str, dict], wall: float, owned_phases) -> float:
    """Share of the traced wall that no layer row accounts for.

    Attributed: the self time of every layer span, plus the self time of
    the phases whose own code is a layer (``owned_phases``: the reporting
    scan and client reactions; on the reference engine the per-client
    evaluation loop).  The rest -- other phases' own code and the stepping
    loop between spans -- is unattributed.
    """
    attributed = sum(
        row["self"]
        for name, row in table.items()
        if not name.startswith(PHASE_PREFIX) or name in owned_phases
    )
    return max(0.0, wall - attributed) / wall

"""``.github/scripts/check_artifact.py`` against reports produced here.

CI runs the script on the artifact of every ``python -m repro drive`` row.
Running it in tier-1 on freshly produced reports means a report key the
driver renames fails here, and the doctored reports below show each check
still bites -- an assertion that silently stops checking is how the old
``--compare`` gate died.
"""

from __future__ import annotations

import argparse
import ast
import copy
import dataclasses
import importlib
import importlib.util
import inspect
import json
import re
import shlex
from pathlib import Path

import pytest

from repro.driver import run
from tests.conftest import SOAK_INPUTS

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "scripts" / "check_artifact.py"


def load_script(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_artifact = load_script(SCRIPT)
bench_trajectory = load_script(SCRIPT.with_name("bench_trajectory.py"))
bench_drift = load_script(SCRIPT.with_name("bench_drift.py"))


def run_check(report: dict, tmp_path) -> int:
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps(report))
    return check_artifact.main([str(path)])


def both_engines(report: dict) -> dict:
    """The ``--engine both`` artifact shape."""
    return {"engines": {"reference": report, "vectorized": copy.deepcopy(report)}}


@pytest.fixture(scope="module")
def crash_report():
    return run(engine="reference", steps=24, scale=0.01, shards=2, faults="crash")


@pytest.fixture(scope="module")
def rebalance_report():
    return run(engine="reference", steps=24, scale=0.01, shards=2, faults="crash", fleet="rebalance")


@pytest.fixture(scope="module")
def latency_report():
    return run(engine="reference", steps=30, scale=0.015, latency=1)


@pytest.fixture(scope="module")
def soak_report():
    return run(
        steps=40, shards=2, scale=0.02, fleet="both", ingest_rate=6, ingest_budget=3,
        query_churn=8, **SOAK_INPUTS,
    )


def test_chaos_crash(crash_report, tmp_path):
    assert run_check(crash_report, tmp_path) == 0
    assert run_check(both_engines(crash_report), tmp_path) == 0
    broken = copy.deepcopy(crash_report)
    divergence = broken["grading"]["per_step"]["divergence"]
    divergence[:] = [0] * len(divergence)
    with pytest.raises(SystemExit, match="never perturbed"):
        run_check(broken, tmp_path)
    broken = copy.deepcopy(crash_report)
    broken["counters"]["recovery"]["checkpoints_taken"] = 0
    with pytest.raises(SystemExit, match="checkpoint"):
        run_check(both_engines(broken), tmp_path)
    broken = copy.deepcopy(crash_report)
    broken["counters"]["recovery"]["basis_bytes"] = 0
    with pytest.raises(SystemExit, match="basis"):
        run_check(broken, tmp_path)


def test_the_paper_metrics_give_back_the_message_counts(crash_report, tmp_path):
    """The rates come from the per-step log and the counts from the ledger:
    a rate or a count doctored apart fails the check."""
    metrics = crash_report["metrics"]
    sent = sum(crash_report["counters"]["message_counts"].values())
    assert metrics["steps"] == crash_report["grading"]["steps"] == 24
    assert metrics["msgs_per_sim_s"] * 24 * metrics["step_seconds"] == pytest.approx(sent)
    doctors = (
        lambda m, c: m.update(uplink_msgs_per_sim_s=m["uplink_msgs_per_sim_s"] * 1.01),
        lambda m, c: m.update(msgs_per_sim_s=m["msgs_per_sim_s"] + 1),
        lambda m, c: m.update(steps=23),
        lambda m, c: c.update(Heartbeat=c["Heartbeat"] + 1),
    )
    for doctor in doctors:
        broken = copy.deepcopy(crash_report)
        doctor(broken["metrics"], broken["counters"]["message_counts"])
        with pytest.raises(SystemExit, match="message counts sum to"):
            run_check(both_engines(broken), tmp_path)


def test_chaos_rebalance(rebalance_report, tmp_path):
    assert run_check(both_engines(rebalance_report), tmp_path) == 0
    broken = copy.deepcopy(rebalance_report)
    broken["fleet"]["rebalance_log"] = []
    with pytest.raises(SystemExit, match="no repartition"):
        run_check(broken, tmp_path)
    broken = copy.deepcopy(rebalance_report)
    broken["fleet"]["partition_epoch"] = 0
    with pytest.raises(SystemExit, match="epoch behind"):
        run_check(broken, tmp_path)
    # Under uplink latency a move must have raced in-flight uplinks; the
    # zero-latency run above legitimately reports none.
    assert rebalance_report["fleet"]["stale_epoch_reroutes"] == 0
    deferred = copy.deepcopy(rebalance_report)
    deferred["inputs"]["latency"]["uplink_steps"] = 1
    with pytest.raises(SystemExit, match="no stale-epoch reroute"):
        run_check(deferred, tmp_path)
    deferred["fleet"]["stale_epoch_reroutes"] = 6
    assert run_check(deferred, tmp_path) == 0


def test_chaos_latency(latency_report, tmp_path):
    assert run_check(both_engines(latency_report), tmp_path) == 0
    for key, value in (("converged", False), ("basis", "oracle")):
        broken = copy.deepcopy(latency_report)
        broken["grading"][key] = value
        with pytest.raises(SystemExit, match="twin"):
            run_check(broken, tmp_path)
    # The twin carries the run's reliability layer: the two agree on
    # every step before the first fault window opens.
    schedule = latency_report["inputs"]["faults"]["schedule"]
    opens = min(window["start"] for windows in schedule.values() for window in windows)
    assert not any(latency_report["grading"]["per_step"]["divergence"][: opens - 1])
    broken = copy.deepcopy(latency_report)
    broken["grading"].update(results_match=False, first_divergence_step=opens - 1)
    with pytest.raises(SystemExit, match="before the first fault window"):
        run_check(broken, tmp_path)


def test_a_lossy_channel_may_set_a_run_apart_from_its_twin_before_any_window(
    latency_report, tmp_path
):
    """The twin has no channel: a lossy channel drops from step 1, so only
    a twin-graded run on lossless channels must match before its first
    window."""
    lossy = run(engine="reference", steps=30, scale=0.015, latency=1, uplink_loss=0.2)
    schedule = lossy["inputs"]["faults"]["schedule"]
    opens = min(window["start"] for windows in schedule.values() for window in windows)
    assert lossy["grading"]["basis"] == "twin"
    assert lossy["grading"]["first_divergence_step"] < opens
    early = copy.deepcopy(latency_report)
    early["grading"].update(results_match=False, first_divergence_step=1)
    early["inputs"]["faults"]["channels"]["uplink_loss"] = 0.2
    assert run_check(early, tmp_path) == 0
    early["inputs"]["faults"]["channels"]["uplink_loss"] = 0.0
    with pytest.raises(SystemExit, match="before the first fault window"):
        run_check(early, tmp_path)


def test_max_shards_is_reported_only_where_a_ceiling_is_armed(latency_report, soak_report):
    """Only the ``policy`` plan arms the thermostat with a ceiling; under
    ``both`` it runs without one and under ``static`` there is none."""
    policy = run(engine="reference", steps=4, scale=0.01, shards=2, faults="none", fleet="policy")
    assert policy["inputs"]["fleet"]["max_shards"] == 4
    assert soak_report["inputs"]["fleet"]["plan"] == "both"
    assert soak_report["inputs"]["fleet"]["max_shards"] is None
    assert latency_report["inputs"]["fleet"]["plan"] == "static"
    assert latency_report["inputs"]["fleet"]["max_shards"] is None


def test_soak(soak_report, tmp_path):
    assert run_check(soak_report, tmp_path) == 0
    doctored = {
        "diverged": lambda r: r["grading"].update(results_match=False, first_divergence_step=3),
        "lifecycle": lambda r: r["fleet"].update(merges=0),
        "backpressure": lambda r: r["counters"]["service"].update(backpressure_rejects=0),
        "accounting": lambda r: r["counters"]["service"].update(applied=0),
        "fleet": lambda r: r["fleet"].update(retired_shards=[]),
        "ops imbalance": lambda r: r["fleet"]["improvement"].update(improved_ops=False),
    }
    for message, doctor in doctored.items():
        broken = copy.deepcopy(soak_report)
        doctor(broken)
        with pytest.raises(SystemExit, match=message):
            run_check(broken, tmp_path)
    # The wall-clock verdict is reported, never gated on.
    unlucky = copy.deepcopy(soak_report)
    unlucky["clock"]["improvement"]["improved_seconds"] = False
    assert run_check(unlucky, tmp_path) == 0


def test_an_oracle_graded_run_must_match_every_step(tmp_path):
    """A run without fault windows is graded on every step, not only on
    its last one."""
    report = run(engine="reference", steps=8, scale=0.01, faults="none")
    assert report["grading"]["basis"] == "oracle"
    assert run_check(report, tmp_path) == 0
    broken = copy.deepcopy(report)
    broken["grading"].update(results_match=False, first_divergence_step=2)
    with pytest.raises(SystemExit, match="diverged from the oracle at step 2"):
        run_check(broken, tmp_path)


def test_workflow_checks_every_row_artifact():
    """The driver rows are one matrix, and one unconditional step checks
    each row's artifact: a row cannot opt out of its check."""
    workflow = (SCRIPT.parents[1] / "workflows" / "ci.yml").read_text()
    (job,) = [job for job in re.split(r"\n  (?=[\w-]+:\n)", workflow) if "repro drive" in job]
    rows = re.findall(r"^\s+- tag: ([\w-]+)\n\s+flags: (.*)$", job, re.MULTILINE)
    assert len(rows) == 7
    assert len({tag for tag, _ in rows}) == len(rows)
    steps = job.split("\n      - ")[1:]
    drive = [step for step in steps if "python -m repro drive" in step]
    check = [step for step in steps if "check_artifact.py" in step]
    assert len(drive) == len(check) == 1
    assert "python -m repro drive ${{ matrix.flags }} --tag ${{ matrix.tag }}" in drive[0]
    assert "check_artifact.py DRIVE_${{ matrix.tag }}.json" in check[0]
    assert "if:" not in check[0] and "matrix.check" not in workflow
    # Every row is a valid invocation of the one subcommand.
    from repro.cli import build_parser

    for tag, flags in rows:
        build_parser().parse_args(["drive", *shlex.split(flags), "--tag", tag])


def test_knob_counts_only_ratchet_down():
    """ROADMAP's north-star counts, pinned: a PR that adds a config field
    or a CLI argument has to raise these numbers in the open."""
    from repro.cli import build_parser
    from repro.core import MobiEyesConfig

    fields = [f for f in dataclasses.fields(MobiEyesConfig) if f.init]
    assert len(fields) <= 22, [f.name for f in fields]

    def arguments(parser):
        count = 0
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                count += sum(arguments(sub) for sub in action.choices.values())
            elif not isinstance(action, argparse._HelpAction):
                count += 1
        return count

    assert arguments(build_parser()) <= 31

    # Constructor parameters: the transport takes no ``trace`` (the ledger
    # writes message events) and the injector no ``rng`` (its channels
    # carry their own).
    from repro.core import MobiEyesSystem
    from repro.core.transport import SimulatedTransport
    from repro.faults.injector import FaultInjector

    for cls, most in ((MobiEyesSystem, 10), (SimulatedTransport, 4), (FaultInjector, 4)):
        params = list(inspect.signature(cls).parameters)
        assert len(params) <= most, (cls.__name__, params)


SRC = SCRIPT.parents[2] / "src"

#: ``MobiEyesConfig`` fields no caller sets, each with the reason it stays a
#: field rather than a constant.
UNSET_CONFIG_FIELDS = {
    # False is the settled reference path of tests/test_report_batching.py:
    # the per-message reports the buffered pipeline is graded against.
    "batch_reports",
}


def names_set(source: str) -> set[str]:
    """The names ``source`` sets: keyword arguments, the string keys of
    dict literals, and string subscripts assigned to (``config["x"] = v``)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.keyword) and node.arg is not None:
            names.add(node.arg)
        elif isinstance(node, ast.Dict):
            names.update(
                key.value
                for key in node.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            )
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.slice, ast.Constant)
        ):
            names.add(node.slice.value)
    return names


def unset_config_fields(fields: set[str], root: Path) -> list[str]:
    """The fields no module under ``root``'s ``src/`` (outside
    ``core/config.py``, whose defaults set nothing) or ``bench/`` sets by
    name, less the allowlist."""
    paths = [*(root / "src").rglob("*.py"), *(root / "bench").rglob("*.py")]
    config = root / "src" / "repro" / "core" / "config.py"
    set_anywhere = set().union(*(names_set(p.read_text()) for p in paths if p != config))
    return sorted(fields - set_anywhere - UNSET_CONFIG_FIELDS)


def test_every_config_field_has_a_caller(tmp_path):
    """The Options rule: a value every caller leaves at its default is a
    constant where it is read, not a field (PR 28 turned four into
    constants)."""
    from repro.core import MobiEyesConfig

    fields = {f.name for f in dataclasses.fields(MobiEyesConfig) if f.init}
    root = SRC.parent
    assert unset_config_fields(fields, root) == []
    assert UNSET_CONFIG_FIELDS <= fields
    # A doctored field: set only in config.py itself, then nowhere at all.
    doctored = tmp_path / "src" / "repro" / "core"
    doctored.mkdir(parents=True)
    (doctored / "config.py").write_text("MobiEyesConfig(uod=None, doctored_knob=3)\n")
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text('build(config={"uod": None})\nconfig["alpha"] = 1\n')
    assert unset_config_fields({"uod", "alpha", "doctored_knob"}, tmp_path) == ["doctored_knob"]
    assert unset_config_fields(fields | {"doctored_knob"}, root) == ["doctored_knob"]

#: The classes that own lifetime counters: each names them once, in a
#: class-level ``COUNTERS`` tuple its ``CHECKPOINT_FIELDS`` include.
COUNTER_OWNERS = {
    "EvalCounters", "FaultInjector", "LoadAccount", "MessageLedger", "MobiEyesService",
    "MobiEyesSystem", "RebalancePolicy", "ReliabilityLayer", "SimulatedTransport",
}
#: ``self.<name> += ...`` on one of those classes that is state, not a
#: counter -- each with the reason it may go unreported.
NOT_COUNTERS = {
    "LoadAccount": {"_depth"},  # re-entrancy depth of a timed section; comes back down
    "ReliabilityLayer": {"_next_token"},  # exchange-key allocator (a sequence stamp)
    "SimulatedTransport": {
        "_force_inline",  # depth of synchronous() blocks; comes back down
        "_envelope_seq",  # envelope ordering stamp; conserved against three counters
    },
}


def test_every_incremented_attribute_of_a_counter_owner_is_declared():
    """The guard that would have caught PR 22's restore bug: a number a
    counter-owning class accumulates is either in its ``COUNTERS`` tuple --
    and so checkpointed and in ``MobiEyesSystem.counters()`` -- or listed
    above with a reason."""
    owners = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(
                isinstance(stmt, ast.Assign) and getattr(stmt.targets[0], "id", None) == "COUNTERS"
                for stmt in node.body
            ):
                continue
            module = ".".join(path.relative_to(SRC).with_suffix("").parts)
            cls = getattr(importlib.import_module(module), node.name)
            owners[node.name] = cls
            assert set(cls.COUNTERS) <= set(cls.CHECKPOINT_FIELDS), node.name
            bumped = {
                sub.target.attr
                for sub in ast.walk(node)
                if isinstance(sub, ast.AugAssign)
                and isinstance(sub.op, ast.Add)
                and isinstance(sub.target, ast.Attribute)
                and isinstance(sub.target.value, ast.Name)
                and sub.target.value.id == "self"
            }
            stray = bumped - set(cls.COUNTERS) - NOT_COUNTERS.get(node.name, set())
            assert not stray, f"{node.name} accumulates undeclared {sorted(stray)}"
    assert set(owners) == COUNTER_OWNERS
    assert set(NOT_COUNTERS) <= COUNTER_OWNERS


#: ``self.x += ...`` and, outside ``__init__``, ``self.x = 0`` in one class
#: that is state with a lifecycle, not a counter drained by its reader.
RESTARTED_NOT_DRAINED = {
    "MobiEyesClient._steps_since_ack",  # a timer an acknowledgement restarts
    "SimulationClock.step",  # SimulationClock.reset() rewinds the clock
}


def test_no_zero_on_read_counter_is_left_in_src():
    pattern = re.compile(r"def drain|reset_load|total_ops\b|total_seconds\b")
    hits = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    # The idiom itself, whatever the attribute is called: accumulated with
    # ``+=`` and set back to zero outside __init__.
    for path in sorted(SRC.rglob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            bumped = {
                node.target.attr
                for node in ast.walk(cls)
                if isinstance(node, ast.AugAssign) and _is_self_attribute(node.target)
            }
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or method.name == "__init__":
                    continue
                hits += [
                    f"{path.relative_to(SRC)}:{node.lineno} {cls.name}.{target.attr}"
                    for node in ast.walk(method)
                    if isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Constant)
                    and node.value.value in (0, 0.0)
                    for target in node.targets
                    if _is_self_attribute(target)
                    and target.attr in bumped
                    and f"{cls.name}.{target.attr}" not in RESTARTED_NOT_DRAINED
                ]
    assert not hits, hits


def _is_self_attribute(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


KINEMATIC_ATTRIBUTES = {"pos", "vel", "recorded_at"}
STORE_COLUMNS = {"x", "y", "vx", "vy", "recorded_at", "built_pos", "built_vel"}


def assigned(node: ast.AST) -> list[ast.AST]:
    """The simple targets ``node`` assigns to, if it is an assignment
    (plain, augmented, annotated or unpacked)."""
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return []
    out = []
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets += target.elts
        elif isinstance(target, ast.Starred):
            targets.append(target.value)
        else:
            out.append(target)
    return out


def kinematic_writes(source: str) -> list[int]:
    """Lines of ``source`` that assign to a ``.pos`` / ``.vel`` /
    ``.recorded_at`` attribute, or to an item of a store column such as
    ``store.recorded_at[rows]``."""
    return sorted(
        {
            node.lineno
            for node in ast.walk(ast.parse(source))
            for target in assigned(node)
            if (isinstance(target, ast.Attribute) and target.attr in KINEMATIC_ATTRIBUTES)
            or (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Attribute)
                and target.value.attr in STORE_COLUMNS
            )
        }
    )


def test_the_store_is_the_one_writer_of_vectorized_kinematics():
    """On the vectorized engine an object's position, velocity and
    ``recorded_at`` live in ``fastpath/store.py``'s columns, and only the
    store writes them (its methods also drop a row's cached ``Point`` /
    ``Vector``); the rest of the package calls those methods."""
    hits = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted((SRC / "repro" / "fastpath").glob("*.py"))
        if path.name != "store.py"
        for line in kinematic_writes(path.read_text())
    ]
    assert not hits, hits
    doctored = (
        "store.set_pos(row, pos)\n"  # a store method and a local array: fine
        "xs[row] = pos.x\n"
        "store.x[row], store.y[row] = pos\n"
        "store.recorded_at[moved] = now\n"
        "obj.pos = Point(x, y)\n"
        "client.obj.vel, n = vel, 1\n"
        "obj.recorded_at += dt\n"
        "self.store.built_vel[row] = None\n"
    )
    assert kinematic_writes(doctored) == [3, 4, 5, 6, 7, 8]
    store_source = (SRC / "repro" / "fastpath" / "store.py").read_text()
    assert kinematic_writes(store_source)  # the guard sees the store's own writes


LQT_REWRITTEN_FIELDS = {"focal_state", "focal_max_speed", "mon_region"}
EVALUATED_FIELDS = {"ptm", "is_target"}
EVALUATORS = {
    "MobiEyesClient._process_group",
    "MobiEyesClient._process_static_entries",
    "BatchEvaluator._batch",
}


def lqt_rewrites(source: str) -> list[int]:
    """Lines of ``source`` that rewrite an LQT entry past its table: an
    assignment to ``.focal_state`` / ``.focal_max_speed`` /
    ``.mon_region``, any ``._entries`` access, or a ``.ptm`` /
    ``.is_target`` write outside the three evaluation functions."""
    lines = []

    def scan(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                scan(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "_entries":
                lines.append(child.lineno)
            for target in assigned(child):
                if isinstance(target, ast.Attribute) and (
                    target.attr in LQT_REWRITTEN_FIELDS
                    or (target.attr in EVALUATED_FIELDS and scope not in EVALUATORS)
                ):
                    lines.append(child.lineno)
            scan(child, scope)

    scan(ast.parse(source), "")
    return sorted(set(lines))


def test_the_table_is_the_one_rewriter_of_lqt_entries():
    """Outside evaluation, an LQT entry is written only by
    ``core/tables.py``'s ``LocalQueryTable`` (install, remove, ``refresh``,
    ``set_focal_state``, ``void_safe_periods``, ``drop_uncovered``), whose
    watcher keeps the vectorized arena current.  The object side, the
    system, the checkpoint and the vectorized engine call those methods;
    ``server.py``'s ``mon_region`` writes are to SQT rows and out of scope."""
    core = SRC / "repro" / "core"
    paths = [core / "client.py", core / "system.py", core / "snapshot.py"]
    paths += sorted((SRC / "repro" / "fastpath").glob("*.py"))
    hits = [
        f"{path.relative_to(SRC)}:{line}"
        for path in paths
        for line in lqt_rewrites(path.read_text())
    ]
    assert not hits, hits
    # The retired rewrite paths stay gone: the table's watcher hook, the
    # arena's state write and the slot lookup the fan-out called.
    source = "".join(path.read_text() for path in sorted(SRC.rglob("*.py")))
    for name in ("notify_state", "write_state", "entry_slot"):
        assert name not in source, name
    doctored = (
        "lqt.refresh(entry, desc)\n"  # a table method: fine
        "entry.focal_state = state\n"
        "entry.focal_max_speed, entry.mon_region = speed, region\n"
        "entries = client.lqt._entries\n"
        "entry.ptm = 0.0\n"
        "class MobiEyesClient:\n"
        "    def _process_group(self, entry):\n"
        "        entry.ptm = now + sp\n"  # evaluation: fine
        "        entry.is_target = inside\n"
        "    def _on_velocity_broadcast(self, entry):\n"
        "        entry.is_target = False\n"
        "class BatchEvaluator:\n"
        "    def _refresh(self, refs):\n"
        "        refs[0].ptm = 0.0\n"
    )
    assert lqt_rewrites(doctored) == [2, 3, 4, 5, 11, 14]
    tables = (core / "tables.py").read_text()
    assert lqt_rewrites(tables)  # the guard sees the table's own writes


ARENA_NAME = re.compile(r"e_\w+|arena_\w+")
# The accesses outside the evaluator: the handle's default where
# ``LqtEntry.from_descriptor`` fills an entry's slots and where
# ``LqtEntry.__setstate__`` unpickles one.
ARENA_DEFAULTS = {
    ("core/tables.py", "entry.arena_slot = -1"),
    ("core/tables.py", "self.arena_slot = -1"),
}
# The deleted (client, ·)-keyed maps and per-group member counts.
GONE_ARENA_MAPS = {"_slot", "_group", "_members"}


def arena_accesses(source: str) -> list[int]:
    """Lines of ``source`` that read or write an attribute named like the
    batch evaluator's arena -- a slot column ``e_*``, ``e_refs`` -- or an
    LQT entry's arena handle ``arena_slot``, by attribute or by
    ``getattr`` / ``setattr``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and ARENA_NAME.fullmatch(node.attr):
            lines.add(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "setattr", "hasattr")
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
            and ARENA_NAME.fullmatch(node.args[1].value)
        ):
            lines.add(node.lineno)
    return sorted(lines)


def test_only_the_evaluator_touches_the_arena():
    """An LQT entry's arena slot never moves, and only
    ``fastpath/evaluator.py`` knows where it is: no other module reads or
    writes a slot column, ``e_refs`` or an entry's arena handles (the
    fan-out resolves entries through ``holders``), but for the handles'
    defaults in ``core/tables.py``.  The deleted compaction and staging
    machinery and the ``(client, ·)`` maps stay gone."""
    from repro.fastpath.evaluator import _ENTRY_COLUMNS

    evaluator = SRC / "repro" / "fastpath" / "evaluator.py"
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        if path == evaluator:
            continue
        name = path.relative_to(SRC / "repro").as_posix()
        text = path.read_text()
        lines = text.splitlines()
        hits += [
            f"{name}:{line}"
            for line in arena_accesses(text)
            if (name, lines[line - 1].strip()) not in ARENA_DEFAULTS
        ]
    assert not hits, hits
    assert all(ARENA_NAME.fullmatch(name) for name in _ENTRY_COLUMNS)
    doctored = (
        "bucket = evaluator.holders.get(qid)\n"  # the fan-out's index: fine
        "slot = entry.arena_slot\n"
        "evaluator.e_state[:2, slot] = x, y\n"
        "entry = evaluator.e_refs[slot]\n"
        "flags = getattr(evaluator, 'e_targ')\n"
        "evaluator.e_alive, n = alive, 1\n"
        "entry.arena_group = group\n"
        "setattr(entry, 'arena_slot', -1)\n"
    )
    assert arena_accesses(doctored) == [2, 3, 4, 5, 6, 7, 8]
    assert arena_accesses(evaluator.read_text())  # the guard sees the evaluator's own
    source = "".join(path.read_text() for path in sorted(SRC.rglob("*.py")))
    for name in (
        "_compact", "compact_threshold", "_staged", "_unstage", "_touched", "_REIMAGE",
        "g_start", "g_len", "g_alive", "g_oid",
    ):
        assert name not in source, name
    # Their names are substrings of live ones (``_groups``), so these
    # are matched as whole attribute names.
    gone = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in GONE_ARENA_MAPS
    ]
    assert not gone, gone


def test_every_experiment_states_its_shape_once_and_has_a_benchmark():
    """An experiment is registered with one paragraph of what the paper's
    figure shows (its docstring: the text ``repro list`` and the report
    print) and has a ``benchmarks/test_*`` file asserting that shape."""
    from repro.experiments import EXPERIMENTS, TITLES

    assert len(EXPERIMENTS) == 22 and list(TITLES) == list(EXPERIMENTS)
    benchmarks = [path.read_text() for path in (SRC.parent / "benchmarks").glob("test_*.py")]
    for exp_id, experiment in EXPERIMENTS.items():
        assert experiment.title == TITLES[exp_id]
        assert experiment.paper.startswith(("Paper (Fig. ", "Extension")), exp_id
        assert len(experiment.paper) > 100 and "\n" not in experiment.paper, exp_id
        assert any(f'"{exp_id}"' in text for text in benchmarks), f"no benchmark runs {exp_id}"
    # One statement each: an id or a title is written once under src/.
    source = "".join(path.read_text() for path in sorted(SRC.rglob("*.py")))
    for exp_id, title in TITLES.items():
        assert source.count(f'"{exp_id}"') == 1, exp_id
        assert source.count(title) == 1, title
    # The CI job that runs those benchmarks reads no clock.
    workflow = (SCRIPT.parents[1] / "workflows" / "ci.yml").read_text()
    assert 'python -m pytest benchmarks -q -m "not clock"' in workflow


def test_usage_errors(tmp_path, capsys):
    assert check_artifact.main([]) == 2
    assert check_artifact.main(["soak", str(tmp_path / "x.json")]) == 2
    assert "usage" in capsys.readouterr().err


def test_bench_trajectory_prints_the_committed_documents(tmp_path, capsys):
    """One host line per committed ``BENCH_pr<N>.json``, then workload x
    end-to-end metric with one median column per document, PR-ascending."""
    root = SCRIPT.parents[2]
    documents = sorted(root.glob("BENCH_pr*.json"), key=bench_trajectory.pr_number)
    assert documents
    assert bench_trajectory.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    prs = [f"pr{bench_trajectory.pr_number(path)}" for path in documents]
    assert [line.split(":")[0] for line in lines[: len(prs)]] == prs
    # One line per pair document, then the host-dependence label.
    pairs = sorted(root.glob("PAIRS_*.json"))
    assert [line.split(":")[0] for line in lines[len(prs) : len(prs) + len(pairs)]] == [
        path.stem for path in pairs
    ]
    head = len(prs) + len(pairs)
    assert "host-dependent" in lines[head]
    assert lines[head + 1].split() == ["workload", "metric", "unit", *prs, "pairs_x"]
    rows = [line.split() for line in lines[head + 2 :]]
    assert len(rows) == 50
    assert all(len(row) == 4 + len(prs) for row in rows)
    # The chained column multiplies each workload's pair median ratios.
    chained: dict = {}
    for path in pairs:
        document = json.loads(path.read_text())
        ratio = document["verdict"]["metrics"]["steps_per_s"]["median_ratio"]
        chained[document["workload"]] = chained.get(document["workload"], 1.0) * ratio
    for row in rows:
        want = chained.get(row[0])
        if row[1] == "steps_per_s" and want is None:
            assert row[-1] == "-"
        elif row[1] == "steps_per_s":
            assert float(row[-1]) == pytest.approx(want, abs=1e-4)
    # A median, not a placeholder, wherever the document has the workload.
    newest = json.loads(documents[-1].read_text())
    steps_per_s = newest["workloads"]["paper_table1"]["metrics"]["steps_per_s"]["median"]
    assert rows[0][:3] == ["paper_table1", "steps_per_s", "steps/s"]
    assert float(rows[0][-2]) == pytest.approx(steps_per_s, rel=1e-4)
    # Another schema, a smoke run and a stray name are refused.
    for doctor, message in (
        ({"schema": 2}, "schema 2"),
        ({"mode": "smoke"}, "full-mode"),
        ({"trace": 1}, "untraced"),
    ):
        path = tmp_path / "BENCH_pr99.json"
        path.write_text(json.dumps({**newest, **doctor}))
        with pytest.raises(SystemExit, match=message):
            bench_trajectory.main([str(documents[0]), str(path)])
    stray = tmp_path / "BENCH_local.json"
    stray.write_text(json.dumps(newest))
    with pytest.raises(SystemExit, match="not named"):
        bench_trajectory.main([str(stray)])


def test_bench_drift_compares_the_deterministic_metrics_only():
    """The gate CI runs on a fresh ``bench/run.py --smoke --seed 42``: counts
    and hashes exact, the two float totals to 1e-9, clocks never read."""
    committed = json.loads(bench_drift.COMMITTED.read_text())
    assert committed["mode"] == "smoke" and committed["seed"] == 42 and not committed["trace"]
    assert len(committed["workloads"]) == 5
    assert bench_drift.drift(committed, copy.deepcopy(committed)) == []

    def doctored(edit) -> list[str]:
        fresh = copy.deepcopy(committed)
        edit(fresh["workloads"]["paper_table1"])
        return bench_drift.drift(committed, fresh)

    def scale(metric, factor):
        return lambda entry: entry["metrics"][metric].update(
            median=entry["metrics"][metric]["median"] * factor
        )

    for metric in bench_drift.EXACT:  # the last bit counts
        (line,) = doctored(scale(metric, 1 + 1e-15))
        assert line.startswith(f"paper_table1.{metric}: ")
    for metric in bench_drift.CLOSE:  # the summation order does not
        assert doctored(scale(metric, 1 + 1e-12)) == []
        (line,) = doctored(scale(metric, 1 + 1e-8))
        assert line.startswith(f"paper_table1.{metric}: ")
    (line,) = doctored(lambda entry: entry.update(step_hashes=["0" * 64]))
    assert line.startswith("paper_table1.step_hashes: ")
    for clock in ("steps_per_s", "step_ms_p50", "server_ms_per_step", "setup_s", "peak_rss_mb"):
        assert doctored(scale(clock, 2.0)) == []
    gone = copy.deepcopy(committed)
    del gone["workloads"]["dense_eval"]
    assert bench_drift.drift(committed, gone) == ["dense_eval: no result"]
    assert bench_drift.drift(gone, committed) == ["dense_eval: not in the committed document"]
    full = {**committed, "mode": "full"}
    assert bench_drift.drift(committed, full) == ["mode: 'smoke' -> 'full'"]
    workflow = (SCRIPT.parents[1] / "workflows" / "ci.yml").read_text()
    assert "python3 .github/scripts/bench_drift.py" in workflow

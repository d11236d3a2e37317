"""Smoke tests of the benchmark harness itself.

Run with ``python -m pytest bench/tests``; the repo's tier-1 collection
(``testpaths = ["tests"]``) does not include them.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / script), *args],
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    done = run("run.py", "--smoke", "--seed", "42", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text(encoding="utf-8")), done.stdout


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "trace.json"
    done = run("run.py", "--smoke", "--trace", "--seed", "42", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text(encoding="utf-8")), done.stdout


def test_every_end_to_end_metric_is_printed_with_its_unit(smoke):
    document, stdout = smoke
    assert document["mode"] == "smoke"
    assert sorted(document["workloads"]) == sorted(WORKLOADS)
    for name in WORKLOADS:
        entry = document["workloads"][name]
        assert entry["correct"], entry["checks"]
        for metric in SPEC["end_to_end"]:
            row = entry["metrics"][metric["name"]]
            assert row["unit"] == metric["unit"]
            assert re.search(rf"^\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}$", stdout, re.M)


def test_host_and_seed_are_recorded(smoke):
    document, _ = smoke
    assert document["seed"] == 42
    assert set(document["host"]) == {"cpu_count", "affinity", "loadavg_1m", "python", "numpy", "commit"}


def test_every_per_layer_metric_is_printed_by_some_workload(traced):
    document, _ = traced
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    printed: dict[str, str] = {}
    for name in WORKLOADS:
        for metric, row in document["workloads"][name]["metrics"].items():
            assert metric in declared, f"{name} prints undeclared {metric}"
            assert row["unit"] == declared[metric]
            printed[metric] = row["unit"]
    assert printed == declared


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert len(SPEC["per_layer"]) <= 128


def test_wrappers_leave_the_step_hash_unchanged(traced):
    document, _ = traced
    for name in WORKLOADS:
        checks = document["workloads"][name]["checks"]
        assert checks["traced_hash_matches_untraced"], name
        assert checks["snapshot_roundtrip"], name


def test_layers_separate_by_workload(traced):
    document, _ = traced
    metrics = {name: document["workloads"][name]["metrics"] for name in WORKLOADS}
    assert not [m for m in metrics["reference_scaled"] if m.startswith("fastpath.")]
    assert metrics["service_churn"]["core.server.install_query_s"]["median"] > 0
    assert metrics["paper_table1"]["core.server.install_query_s"]["median"] == 0
    assert metrics["skew_sharded_latency"]["sim.engine.phase_s.delivery"]["median"] > 0
    assert "core.shard.busy_s.0" not in metrics["dense_eval"]


def test_result_line_matches_the_contract():
    done = run("run.py", "--workload", "dense_eval", "--smoke", "--seed", "7", "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert all(sorted(v) == ["unit", "value"] for v in result["metrics"].values())


def test_compare_refuses_smoke_documents(smoke, tmp_path):
    document, _ = smoke
    path = tmp_path / "smoke.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    done = run("compare.py", str(path), str(path))
    assert done.returncode != 0
    assert "refusing" in done.stderr

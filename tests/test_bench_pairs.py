"""``.github/scripts/bench_pairs.py``: the verdict on doctored pairs.

The verdict is a pure function of the recorded runs, so each case below is
a hand-made list of run records; ``--check`` recomputes a document's
verdict the same way and refuses one that does not follow from its runs.
"""

from __future__ import annotations

import json

import pytest

from tests.test_ci_checks import SCRIPT, load_script

bench_pairs = load_script(SCRIPT.with_name("bench_pairs.py"))

END_TO_END = [
    {"name": "steps_per_s", "better": "higher"},
    {"name": "step_ms_p50", "better": "lower"},
    *({"name": name, "better": "lower"} for name in bench_pairs.DETERMINISTIC),
]


def record(steps_per_s: float, step_hash: str = "h", ops: float = 10.0) -> dict:
    metrics = {name: {"value": 1.0, "unit": "-"} for name in bench_pairs.DETERMINISTIC}
    metrics["server_ops_per_step"]["value"] = ops
    metrics["steps_per_s"] = {"value": steps_per_s, "unit": "steps/s"}
    metrics["step_ms_p50"] = {"value": 1000.0 / steps_per_s, "unit": "ms"}
    return {"step_hash": step_hash, "metrics": metrics}


def pairs_of(base: list, head: list, **head_kwargs) -> list:
    return [{"base": record(b), "head": record(h, **head_kwargs)} for b, h in zip(base, head)]


BASE = [40.0, 41.0, 42.0, 40.5, 41.5, 39.5, 42.5, 41.2, 40.8, 41.8]


def test_ten_of_ten_ahead_beyond_the_base_iqr():
    result = bench_pairs.verdict(pairs_of(BASE, [b * 1.2 for b in BASE]), END_TO_END)
    row = result["metrics"]["steps_per_s"]
    assert (result["pairs"], result["equal_pairs"]) == (10, 10)
    assert (row["ahead"], row["behind"]) == (10, 0)
    assert row["median_ratio"] == pytest.approx(1.2)
    assert row["gain_exceeds_base_iqr"] and row["gain"] > row["base_iqr"] > 0
    # A lower-is-better metric reads the same pairs the same way round.
    latency = result["metrics"]["step_ms_p50"]
    assert (latency["ahead"], latency["behind"]) == (10, 0) and latency["gain"] > 0


def test_a_tie_counts_for_neither_side():
    head = [b * 1.2 for b in BASE]
    head[3] = BASE[3]
    row = bench_pairs.verdict(pairs_of(BASE, head), END_TO_END)["metrics"]["steps_per_s"]
    assert (row["ahead"], row["behind"]) == (9, 0)
    # The deterministic metrics tie in every pair: neither side is ahead.
    ops = bench_pairs.verdict(pairs_of(BASE, head), END_TO_END)["metrics"]["server_ops_per_step"]
    assert (ops["ahead"], ops["behind"], ops["median_ratio"]) == (0, 0, 1.0)


def test_seven_of_ten_within_the_base_iqr():
    head = [b * 1.01 for b in BASE[:7]] + [b * 0.99 for b in BASE[7:]]
    row = bench_pairs.verdict(pairs_of(BASE, head), END_TO_END)["metrics"]["steps_per_s"]
    assert (row["ahead"], row["behind"]) == (7, 3)
    assert not row["gain_exceeds_base_iqr"]


def test_a_drifted_hash_or_count_is_not_an_equal_pair():
    pairs = pairs_of(BASE, [b * 1.2 for b in BASE])
    pairs[4]["head"]["step_hash"] = "drifted"
    pairs[6]["head"]["metrics"]["server_ops_per_step"]["value"] = 11.0
    result = bench_pairs.verdict(pairs, END_TO_END)
    assert result["equal_pairs"] == 8
    assert bench_pairs.equal_in_pair(pairs[4]["base"], pairs[4]["head"])["step_hash"] is False
    assert result["metrics"]["steps_per_s"]["ahead"] == 10  # the clock still reads ahead


def test_check_recomputes_every_verdict(tmp_path, capsys):
    pairs = pairs_of(BASE, [b * 1.2 for b in BASE])
    for pair in pairs:
        pair["equal"] = bench_pairs.equal_in_pair(pair["base"], pair["head"])
    document = {
        "schema": bench_pairs.SCHEMA,
        "workload": "skew_sharded_latency",
        "seed": 1,
        "end_to_end": END_TO_END,
        "pairs": pairs,
        "verdict": bench_pairs.verdict(pairs, END_TO_END),
    }
    path = tmp_path / "PAIRS_x.json"
    path.write_text(json.dumps(document))
    assert bench_pairs.main(["--check", str(path)]) == 0
    assert "ahead 10 of 10" in capsys.readouterr().out
    document["verdict"]["metrics"]["steps_per_s"]["ahead"] = 9
    path.write_text(json.dumps(document))
    assert bench_pairs.main(["--check", str(path)]) == 1
    document["verdict"] = bench_pairs.verdict(pairs, END_TO_END)
    document["pairs"][0]["head"]["step_hash"] = "drifted"  # "equal" no longer follows
    document["verdict"] = bench_pairs.verdict(document["pairs"], END_TO_END)
    path.write_text(json.dumps(document))
    assert bench_pairs.main(["--check", str(path)]) == 1


def test_committed_pair_documents_check():
    """Every committed ``PAIRS_*.json`` verdict follows from its runs."""
    documents = sorted(SCRIPT.parents[2].glob("PAIRS_*.json"))
    assert documents
    assert bench_pairs.check([str(path) for path in documents]) == 0

"""Ablation bench: online stripe rebalancing under a flash-crowd hotspot."""


def test_ablation_rebalance(run_figure):
    result = run_figure("ablation-rebalance")
    rows = {(row[0], row[1]): dict(zip(result.headers, row)) for row in result.rows}
    uniform, crowd = sorted({hotspot for hotspot, _ in rows})
    assert uniform == 0.0 and crowd > 0.0

    # Repartitioning moves load, never results.
    assert all(row["results-match-static"] for row in rows.values())

    # Static stripes never move; on the uniform workload the policy stays
    # inside its hysteresis dead band and does not move either.
    for hotspot in (uniform, crowd):
        assert rows[hotspot, "static"]["moves"] == 0
        assert rows[hotspot, "static"]["epoch"] == 0
    assert rows[uniform, "rebalanced"]["moves"] == 0

    # The flash crowd skews the static split; the policy reacts and cuts
    # both the max/mean ops imbalance and the hottest shard's ops.
    assert rows[crowd, "static"]["imbalance-ops"] > rows[uniform, "static"]["imbalance-ops"]
    assert rows[crowd, "rebalanced"]["moves"] > 0
    assert rows[crowd, "rebalanced"]["imbalance-ops"] < rows[crowd, "static"]["imbalance-ops"]
    assert rows[crowd, "rebalanced"]["max-ops"] < rows[crowd, "static"]["max-ops"]

"""Full Table 1 scale sanity run (~2 s on the vectorized engine
``run_mobieyes`` builds where numpy imports; ~7 s on the reference engine,
where it is the slowest test in the suite).

Runs MobiEyes at the paper's exact setup -- 10,000 objects, 1,000 queries,
1,000 velocity changes per 30 s step on 100,000 mi^2 -- and checks the
absolute operating point lands where the paper reports it:

- the average LQT size at the defaults reads ~2 from the paper's Fig. 10/11
  (alpha = 5, nmq = 1000) and never exceeds ~10;
- total wireless traffic at the defaults sits in the low hundreds of
  messages per second (paper Fig. 4, alpha = 5, nmq = 1000);
- the protocol invariants hold at scale.
"""

from repro.experiments.runner import run_mobieyes
from repro.workload import paper_defaults


def test_full_table1_scale_operating_point():
    params = paper_defaults()
    system = run_mobieyes(params, steps=8, warmup=2)
    metrics = system.metrics

    lqt = metrics.mean_lqt_size()
    assert 0.5 <= lqt <= 10.0, f"LQT size {lqt:.2f} outside the paper's range"

    rate = metrics.messages_per_second()
    assert 20.0 <= rate <= 2000.0, f"messaging rate {rate:.1f}/s implausible"

    assert metrics.uplink_messages_per_second() < rate

    system.check_invariants()

"""The paper's Figs. 1-13.

Each experiment is a view over the run table: it names the simulations it
needs (``runs.mobieyes(...)`` / ``runs.centralized(...)``) and lays their
metrics out as rows, so a figure that reads another column of a sweep some
other figure already ran costs nothing.  Sweep points are fractions of the
scaled Table 1 defaults, which keeps the paper's ratios at any scale.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator

from repro.baselines import IndexingMode, ReportingMode
from repro.core import PropagationMode
from repro.experiments.registry import experiment
from repro.experiments.runner import RunTable, sweep_fractions, with_queries
from repro.metrics.collectors import MetricsLog
from repro.workload import SimulationParameters

LAZY = PropagationMode.LAZY

#: alpha relative to the default (the paper sweeps 0.5-16 mi around 5)
ALPHA_FACTORS = (0.2, 0.5, 1.0, 2.0, 3.2)
#: nmq as fractions of the population (the paper's no/100 .. no/10)
QUERY_FRACTIONS = (0.01, 0.05, 0.10)
#: nmo as fractions of the population (paper: no/100 .. no/10)
NMO_FRACTIONS = (0.01, 0.04, 0.10)
#: population as fractions of the base population (paper: 1k..10k)
POPULATION_FRACTIONS = (0.25, 0.5, 1.0)


def alpha_sweep(
    runs: RunTable, params: SimulationParameters, **overrides
) -> list[tuple[float, MetricsLog]]:
    """``(alpha, metrics)`` of one MobiEyes run per point of the alpha axis."""
    alphas = [params.alpha * factor for factor in ALPHA_FACTORS]
    return [(alpha, runs.mobieyes(params, alpha=alpha, **overrides)) for alpha in alphas]


def alpha_by_query_count(runs: RunTable, params: SimulationParameters, metric, label: str):
    """One row per alpha, one column of ``metric`` per query count."""
    counts = sweep_fractions(params, QUERY_FRACTIONS)
    sweeps = [alpha_sweep(runs, with_queries(params, nmq)) for nmq in counts]
    rows = [(points[0][0], *(metric(log) for _, log in points)) for points in zip(*sweeps)]
    return ("alpha", *(f"{label}(nmq={n})" for n in counts)), rows


def nmo_sweep(params: SimulationParameters) -> Iterator[tuple[int, SimulationParameters]]:
    """``(nmo, parameters)`` per point of the velocity-changes-per-step axis."""
    for fraction in NMO_FRACTIONS:
        nmo = max(1, round(params.num_objects * fraction))
        yield nmo, replace(params, velocity_changes_per_step=nmo)


def population_sweep(
    params: SimulationParameters, query_fraction: float
) -> Iterator[SimulationParameters]:
    """Parameters per point of the population axis, at a query count of
    ``query_fraction`` of the *base* population and a constant ratio of
    velocity changes to population."""
    base_queries = max(1, round(params.num_objects * query_fraction))
    ratio = params.velocity_changes_per_step / params.num_objects
    for fraction in POPULATION_FRACTIONS:
        no = max(2, round(params.num_objects * fraction))
        yield replace(
            params,
            num_objects=no,
            num_queries=min(no, base_queries),
            velocity_changes_per_step=max(1, round(no * ratio)),
        )


def reporting_baselines(runs: RunTable, p: SimulationParameters) -> tuple[MetricsLog, MetricsLog]:
    """Naive and central-optimal reporting, on the (cheap) query index: the
    indexing choice does not affect message counts, only server load."""
    return (
        runs.centralized(p, reporting=ReportingMode.NAIVE, indexing=IndexingMode.QUERIES),
        runs.centralized(p, reporting=ReportingMode.CENTRAL_OPTIMAL, indexing=IndexingMode.QUERIES),
    )


FOUR_SYSTEMS = ("naive", "central-optimal", "mobieyes-eqp", "mobieyes-lqp")


def four_systems(runs: RunTable, p: SimulationParameters) -> tuple[MetricsLog, ...]:
    """The messaging figures' four approaches, in ``FOUR_SYSTEMS`` order."""
    return (*reporting_baselines(runs, p), runs.mobieyes(p), runs.mobieyes(p, propagation=LAZY))


def server_load_headers(*systems: str) -> tuple[str, ...]:
    """The two server-load figures print wall seconds per step, then the
    deterministic operation count per step, for each system."""
    return (*systems, *(f"ops({system})" for system in systems))


def server_load_cells(*logs: MetricsLog) -> tuple[float, ...]:
    """One row under :func:`server_load_headers`, systems in the same order."""
    return (
        *(log.mean_server_seconds() for log in logs),
        *(log.mean_server_ops() for log in logs),
    )


@experiment("fig01", "Server load (s/step) vs number of queries")
def fig01(runs: RunTable, params: SimulationParameters):
    """Paper (Fig. 1): server load (time spent executing server-side logic
    per time step, log scale) vs number of queries, for the centralized
    object-index and query-index approaches and MobiEyes with eager and
    lazy propagation. MobiEyes sits up to two orders of magnitude below the
    centralized approaches; the object index is nearly flat in nmq (its
    cost is the per-object index update); the query index grows with nmq
    and beats the object index only for small nmq; LQP <= EQP. The ``ops``
    columns are the deterministic counterpart of the clock: server
    operations per step, index node visits included.
    """
    rows = []
    for nmq in sweep_fractions(params, QUERY_FRACTIONS):
        p = with_queries(params, nmq)
        cells = server_load_cells(
            runs.centralized(p, indexing=IndexingMode.OBJECTS),
            runs.centralized(p, indexing=IndexingMode.QUERIES),
            runs.mobieyes(p),
            runs.mobieyes(p, propagation=LAZY),
        )
        rows.append((nmq, *cells))
    headers = server_load_headers("object-index", "query-index", "mobieyes-eqp", "mobieyes-lqp")
    return ("nmq", *headers), rows


@experiment("fig02", "LQP result error vs velocity changes per step")
def fig02(runs: RunTable, params: SimulationParameters):
    """Paper (Fig. 2): average query-result error (missing fraction) under
    lazy query propagation vs the number of objects changing their velocity
    vector per time step, for several alpha (2, 4, 8 around the default 5).
    Error decreases with more velocity changes per step (each change
    broadcasts query descriptors, healing missed installs) and increases as
    alpha shrinks (more cell crossings, so more missed installs).
    """
    alphas = [params.alpha * factor for factor in (0.4, 0.8, 1.6)]
    rows = [
        (
            nmo,
            *(
                runs.mobieyes(p, propagation=LAZY, alpha=a, track_accuracy=True).mean_result_error()
                for a in alphas
            ),
        )
        for nmo, p in nmo_sweep(params)
    ]
    return ("nmo", *(f"error(alpha={a:g})" for a in alphas)), rows


@experiment("fig03", "Server load (s/step) vs grid cell size alpha")
def fig03(runs: RunTable, params: SimulationParameters):
    """Paper (Fig. 3): server load vs alpha for MobiEyes, with the
    (alpha-independent) centralized approaches as reference lines. A U --
    too-small alpha means frequent cell crossings (more mediation), too-large
    alpha inflates monitoring regions (more broadcast work) -- while
    MobiEyes stays below both baselines throughout. ``ops`` columns as in
    fig01.
    """
    object_index = runs.centralized(params, indexing=IndexingMode.OBJECTS)
    query_index = runs.centralized(params, indexing=IndexingMode.QUERIES)
    rows = [
        (alpha, *server_load_cells(eqp, lqp, object_index, query_index))
        for (alpha, eqp), (_, lqp) in zip(
            alpha_sweep(runs, params), alpha_sweep(runs, params, propagation=LAZY)
        )
    ]
    headers = server_load_headers("mobieyes-eqp", "mobieyes-lqp", "object-index", "query-index")
    return ("alpha", *headers), rows


@experiment("fig04", "Messages/second vs grid cell size alpha")
def fig04(runs: RunTable, params: SimulationParameters):
    """Paper (Fig. 4): wireless messages/second vs alpha, one curve per
    query count. A U -- small alpha causes frequent cell-change uplinks,
    large alpha inflates monitoring regions and thus the broadcasts needed
    per focal-object change -- with the minimum in a mid range (paper:
    alpha in [4, 6] at full scale); more queries cost more messages at every
    alpha.
    """
    return alpha_by_query_count(runs, params, MetricsLog.messages_per_second, "msgs/s")


@experiment("fig05", "Messages/second vs number of objects")
def fig05(runs: RunTable, params: SimulationParameters):
    """Paper (Fig. 5): total wireless messages/second vs the object
    population, for naive and central-optimal reporting and MobiEyes with
    eager and lazy propagation, at a constant ratio of velocity changes to
    population. Naive reporting is worst and linear in the population; EQP
    tracks central-optimal with a roughly constant gap; LQP scales best and
    beats central-optimal for small query counts.
    """
    rows = [
        (p.num_queries, p.num_objects, *(log.messages_per_second() for log in four_systems(runs, p)))
        for query_fraction in (0.01, 0.10)  # one curve per value
        for p in population_sweep(params, query_fraction)
    ]
    return ("nmq", "no", *FOUR_SYSTEMS), rows


@experiment("fig06", "Uplink messages/second vs number of objects")
def fig06(runs: RunTable, params: SimulationParameters):
    """Paper (Fig. 6): the uplink (object -> server) component of Fig. 5's
    messaging cost, log scale. The paper has MobiEyes-LQP far below every
    other approach (only focal objects talk to the server) -- crucial for
    asymmetric links where uplink bandwidth is scarce. Here LQP stays below
    naive and EQP but above central-optimal, closing on it as the population
    grows (DESIGN.md, "Shapes the full-scale table still does not show").
    """
    rows = [
        (p.num_objects, *(log.uplink_messages_per_second() for log in four_systems(runs, p)))
        for p in population_sweep(params, 0.10)
    ]
    return ("no", *FOUR_SYSTEMS), rows


@experiment("fig07", "Messages/second vs velocity changes per step")
def fig07(runs: RunTable, params: SimulationParameters):
    """Paper (Fig. 7): messages/second vs velocity changes per step (nmo)
    for the four approaches. The EQP-to-central-optimal gap narrows as nmo
    grows (both must relay more velocity changes, but MobiEyes' fixed
    cell-change overhead is amortized); the paper has LQP best for small
    query counts. At this figure's query count (5% of the objects) LQP's
    cost is nearly flat in nmo and drops below central-optimal only at the
    largest nmo (DESIGN.md, "Shapes the full-scale table still does not
    show").
    """
    params = with_queries(params, max(1, round(params.num_objects * 0.05)))
    rows = [
        (nmo, *(log.messages_per_second() for log in four_systems(runs, p)))
        for nmo, p in nmo_sweep(params)
    ]
    return ("nmo", *FOUR_SYSTEMS), rows


@experiment("fig08", "Messages/second vs base-station side length")
def fig08(runs: RunTable, params: SimulationParameters):
    """Paper (Fig. 8): messages/second vs base-station coverage area
    (parameterized by the lattice side length alen, 5..80 around 10), for
    several query counts. Larger coverage shrinks the number of stations
    needed per monitoring-region broadcast, so the message count falls --
    until regions almost always fit inside one station's coverage, after
    which the effect disappears (the curve flattens).
    """
    counts = sweep_fractions(params, (0.01, 0.10))
    rows = []
    for factor in (0.5, 1.0, 2.0, 4.0, 8.0):
        side = params.base_station_side * factor
        logs = [runs.mobieyes(with_queries(params, n), base_station_side=side) for n in counts]
        rows.append((side, *(log.messages_per_second() for log in logs)))
    return ("alen", *(f"msgs/s(nmq={n})" for n in counts)), rows


@experiment("fig09", "Per-object communication power (W) vs number of queries")
def fig09(runs: RunTable, params: SimulationParameters):
    """Paper (Fig. 9): average per-object power due to communication vs
    query count -- message *sizes* charged with the GSM/GPRS transmit /
    receive energy model -- for naive, central-optimal and MobiEyes. Naive
    is worst (every object transmits every step, and transmitting costs ~20x
    receiving); MobiEyes is competitive at small nmq but central-optimal
    overtakes it as queries grow, because objects over-hear broadcasts about
    queries that are irrelevant to them.
    """
    rows = []
    for nmq in sweep_fractions(params, QUERY_FRACTIONS):
        p = with_queries(params, nmq)
        logs = (*reporting_baselines(runs, p), runs.mobieyes(p))
        rows.append((nmq, *(log.mean_power_watts_per_object() for log in logs)))
    return ("nmq", "naive", "central-optimal", "mobieyes"), rows


@experiment("fig10", "Average LQT size vs grid cell size alpha")
def fig10(runs: RunTable, params: SimulationParameters):
    """Paper (Fig. 10): the average number of queries a moving object
    evaluates per step (its LQT size) vs alpha, for several query counts.
    Grows super-linearly (the paper says exponentially) with alpha --
    monitoring regions are ~(alpha + 2r)^2, so the objects covered grow
    quadratically-plus -- while staying under ~10 at the defaults.
    """
    return alpha_by_query_count(runs, params, MetricsLog.mean_lqt_size, "lqt")


@experiment("fig11", "Average LQT size vs number of queries")
def fig11(runs: RunTable, params: SimulationParameters):
    """Paper (Fig. 11): average LQT size vs query count, for several
    alphas; linear growth (each query adds its monitoring-region footprint
    independently).
    """
    alphas = [params.alpha * factor for factor in (0.5, 1.0, 2.0)]
    rows = [
        (nmq, *(runs.mobieyes(with_queries(params, nmq), alpha=a).mean_lqt_size() for a in alphas))
        for nmq in sweep_fractions(params, (0.01, 0.02, 0.05, 0.10))
    ]
    return ("nmq", *(f"lqt(alpha={a:g})" for a in alphas)), rows


@experiment("fig12", "Average LQT size vs query radius factor")
def fig12(runs: RunTable, params: SimulationParameters):
    """Paper (Fig. 12): average LQT size vs the factor every query radius
    is multiplied by. Grows with the radius, but step-like: a change only
    matters once it crosses a grid-cell boundary (monitoring regions are
    quantized to cells of side alpha), so nearby factors can give identical
    sizes.
    """
    rows = [
        (factor, runs.mobieyes(replace(params, radius_factor=factor)).mean_lqt_size())
        for factor in (0.5, 1.0, 2.0, 4.0, 8.0)
    ]
    return ("radius-factor", "mean-lqt-size"), rows


@experiment("fig13", "Per-object query-processing load vs alpha, safe period on/off")
def fig13(runs: RunTable, params: SimulationParameters):
    """Paper (Fig. 13): average per-object query-processing load vs alpha,
    safe-period optimization on/off. At large alpha monitoring regions are
    wide, objects sit far from focal objects, safe periods are long and most
    evaluations are skipped -- a large win; at very small alpha the safe
    period is almost always shorter than the evaluation period and the
    bookkeeping is pure overhead (a slight loss). Besides wall time
    (hardware-dependent) the table reports the deterministic count of
    containment evaluations performed.
    """
    rows = [
        (
            alpha,
            off.mean_object_processing_seconds(),
            on.mean_object_processing_seconds(),
            off.total_evaluated_queries(),
            on.total_evaluated_queries(),
            on.total_skipped_by_safe_period(),
        )
        for (alpha, off), (_, on) in zip(
            alpha_sweep(runs, params), alpha_sweep(runs, params, safe_period=True)
        )
    ]
    return ("alpha", "proc-s(off)", "proc-s(on)", "evals(off)", "evals(on)", "skipped(on)"), rows

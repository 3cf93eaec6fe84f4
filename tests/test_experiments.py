import csv
import json
import tracemalloc
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest

from evstation import (
    AdmissionRule,
    DomainError,
    EconomicParams,
    StationParams,
    analyze_admission,
    demand_response,
    gen_poisson_arrivals,
    optimize_joap,
    price_for_demand,
    replicate,
    rng_for_stream,
    run_loss_admission,
)
from evstation import experiments
from evstation.config import RunOptions, with_penalty
from evstation.experiments import (
    POLICY_NAMES,
    ExperimentReport,
    _fmt,
    _policies,
    run_admission_validation,
    run_daily_experiment,
    run_tau_study,
    run_wait_validation,
)
from evstation.optimizer import demand_region_bound
from evstation.queueing import mean_wait
from test_simulator import run_one_row, tolist_run_loss_admission


def small_run():
    return RunOptions(seed=11, reps=4)


def test_benchmark_demand_maximizes_margin(econ_default):
    d_b = demand_region_bound(econ_default)
    assert 0 < d_b <= econ_default.phi
    margin = (price_for_demand(d_b, econ_default) - econ_default.p_e) * d_b
    for d in (d_b * 0.9, d_b * 1.1):
        other = (price_for_demand(d, econ_default) - econ_default.p_e) * d
        assert margin >= other - 1e-9


def test_scenario_that_sells_nothing(table1):
    # At or above the choke price no demand is profitable: JoAP's operating
    # point is d* = 0 with t_v = 0, and both benchmarks charge 0 kWh.
    scenarios, _ = table1
    econ = scenarios[0].econ
    broke = replace(scenarios[0], econ=replace(econ, p_e=econ.choke_price + 1.0))
    report = run_daily_experiment([broke], small_run())
    assert report.daily_profit == {"joap": 0.0, "qba": 0.0, "greedy": 0.0}
    assert report.ratios == {}
    result = run_tau_study([broke], small_run())
    assert result["aggregate_gain"] == 0.0


def test_no_ratio_to_a_benchmark_that_loses_money(table1):
    # At c = 1.0 QBA loses money over table1's day: JoAP's profit over its
    # loss would read as a share of a profit, so only greedy gets a ratio.
    scenarios, _ = table1
    report = run_daily_experiment([with_penalty(s, 1.0) for s in scenarios], small_run())
    assert report.daily_profit["qba"] < 0.0 < report.daily_profit["greedy"]
    assert report.ratios == {
        "joap_vs_greedy": report.daily_profit["joap"] / report.daily_profit["greedy"]
    }


def test_price_of_a_row_that_sells_nothing(table1):
    # At the choke price every policy charges 0 kWh, and a row's price is
    # the one that sells 0 kWh, as optimize reports it: not a free charge.
    scenarios, _ = table1
    econ = scenarios[0].econ
    choked = replace(scenarios[0], econ=replace(econ, p_e=econ.choke_price))
    report = run_daily_experiment([choked], small_run())
    assert [r.demand for r in report.rows] == [0.0, 0.0, 0.0]
    assert all(demand_response(r.price, choked.econ) == 0 for r in report.rows)
    [joap] = [r for r in report.rows if r.policy == "joap"]
    assert joap.price == optimize_joap(choked.econ, choked.station).r_star


def test_policies_by_scenario_matches_rows(table1):
    # Each (scenario, policy) operating point is the one its row reports:
    # the view is read off the rows, not stored beside them.
    assert "policies_by_scenario" not in {f.name for f in fields(ExperimentReport)}
    scenarios, _ = table1
    report = run_daily_experiment(scenarios[:2], small_run())
    assert len(report.policies_by_scenario) == len(report.rows) == 6
    for r in report.rows:
        point = report.policies_by_scenario[(r.scenario, r.policy)]
        assert point == {"n": r.n, "demand": r.demand, "price": r.price}


def test_daily_experiment_rejects_no_scenarios():
    # A day of no scenarios has no length to weight the aggregates by.
    with pytest.raises(DomainError, match=r"^scenarios must be a non-empty list, got \[\]$"):
        run_daily_experiment([], small_run())


def test_daily_summary_rows_carry_the_csv_columns(table1, tmp_path):
    # Each summary row has the CSV's five identifying columns, by the same
    # names and with the values that row of the CSV writes, and its metrics.
    scenarios, _ = table1
    run_daily_experiment(scenarios[:2], small_run(), out_dir=tmp_path)
    with open(tmp_path / "daily_scenarios.csv", newline="") as fh:
        header, *lines = list(csv.reader(fh))
    entries = json.loads((tmp_path / "daily_summary.json").read_text())["scenarios"]
    ids = ["scenario", "policy", "n", "demand_kwh", "price_per_kwh"]
    assert header[:5] == ids
    assert len(entries) == len(lines) == 6
    for entry, line in zip(entries, lines):
        assert set(entry) == {
            *ids, "admission_rate", "mean_wait", "profit_per_hour", "replication_count",
            "half_width_95",
        }
        assert [_fmt(entry[key]) for key in ids] == line[:5]


def neumaier_sum(values, start=0):
    """sum() as Python 3.12 and later add floats: with Neumaier's compensation."""
    total, compensation = float(start), 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation


def test_daily_aggregate_recombines(table1):
    # The aggregates add the rows left to right from 0.0, so a sum() that
    # compensates its rounding, as Python 3.12's does, changes none of them.
    scenarios, _ = table1
    with mock.patch.object(experiments, "sum", neumaier_sum, create=True):
        report = run_daily_experiment(scenarios[:3], small_run())
    total_time = 0.0
    for scenario in scenarios[:3]:
        total_time += scenario.duration
    for name in POLICY_NAMES:
        profit = admitted = waited = 0.0
        for r in report.rows:
            if r.policy == name:
                profit += r.metrics.profit_per_hour * r.duration / 60.0
                admitted += r.metrics.admission_rate * r.duration
                waited += r.metrics.mean_wait * r.duration
        assert report.daily_profit[name] == profit
        assert report.admission_rate[name] == admitted / total_time
        assert report.mean_wait[name] == waited / total_time


def test_common_random_numbers_across_policies(table1):
    # Policies must see identical arrival traces in each replication.
    scenarios, _ = table1
    scenario = scenarios[0]
    traces = []
    [policies] = _policies([scenario])
    for policy in policies:
        arrivals = gen_poisson_arrivals(scenario.station.lam, 240.0, rng_for_stream(11, 2))
        records = run_one_row(policy, scenario.econ, scenario.station, arrivals)
        traces.append([r.arrival_time for r in records])
    assert traces[0] == traces[1] == traces[2]


def test_daily_outputs_deterministic(table1, tmp_path):
    scenarios, _ = table1
    a, b = tmp_path / "a", tmp_path / "b"
    run_daily_experiment(scenarios[:2], small_run(), out_dir=a)
    run_daily_experiment(scenarios[:2], small_run(), out_dir=b)
    for name in ("daily_scenarios.csv", "daily_aggregate.csv", "daily_summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_admission_validation_grid(tmp_path):
    station = StationParams(m=4, alpha=3.3, parking_capacity=40, lam=0.3, tau=1.01)
    out = tmp_path / "admission.csv"
    rows = run_admission_validation(
        station, demand=35.0, grid=((3, 0.05), (4, 0.1)), arrivals_per_point=50_000,
        seed=5, out_path=out,
    )
    assert out.read_text().splitlines()[0] == "n,lambda,d,analytic,simulated,gap"
    for n, lam, d, analytic, simulated, gap in rows:
        assert gap == pytest.approx(abs(analytic - simulated))
        assert gap < 0.02


def test_admission_validation_low_traffic_row():
    station = StationParams(m=4, alpha=3.3, parking_capacity=40, lam=0.3, tau=1.01)
    rows = run_admission_validation(
        station, demand=35.0, grid=((3, 1e-6),), arrivals_per_point=500, seed=5
    )
    _, _, _, analytic, simulated, _ = rows[0]
    assert analytic == pytest.approx(1.0, abs=1e-3)
    assert simulated == pytest.approx(1.0, abs=1e-3)


def admission_rows_per_arrival_loop(
    station_template, demand, grid, arrivals_per_point, seed, draw=gen_poisson_arrivals
):
    """run_admission_validation's rows, counted by a plain per-arrival loop over tolist()."""
    rows = []
    for idx, (n, lam) in enumerate(grid):
        analysis = analyze_admission(n, demand, replace(station_template, lam=lam))
        arrivals = draw(lam, arrivals_per_point / lam, rng_for_stream(seed, idx))
        admitted = tolist_run_loss_admission(arrivals, n, analysis.t_v)
        simulated = admitted / len(arrivals) if len(arrivals) else 1.0
        analytic = float(analysis.p_admit)
        rows.append([n, lam, demand, analytic, simulated, abs(analytic - simulated)])
    return rows


def whole_minute_arrivals(lam, horizon, rng):
    """Poisson arrivals rounded up to whole minutes: ties, and arrivals on a window edge."""
    return np.ceil(gen_poisson_arrivals(lam, horizon, rng))


def test_admission_validation_matches_per_arrival_loop():
    station = StationParams(m=4, alpha=3.3, parking_capacity=40, lam=0.3, tau=1.01)
    grid = ((1, 0.01), (3, 0.05), (4, 0.4), (5, 2.0), (3, 1e-6))
    for seed in (5, 6):
        args = (station, 35.0, grid, 20_000, seed)
        assert run_admission_validation(*args) == admission_rows_per_arrival_loop(*args)
    # At 1 kWh/min and tau = 2, T_v = 2 * 4 * 30 / n minutes is a whole number
    # for each n below, so whole-minute arrivals often fall exactly on a window edge.
    station = StationParams(m=4, alpha=60.0, parking_capacity=40, lam=0.3, tau=2.0)
    grid = ((1, 0.01), (3, 0.05), (4, 0.2), (5, 0.5), (6, 1.0))
    args = (station, 30.0, grid, 5_000, 5)
    with mock.patch.object(experiments, "gen_poisson_arrivals", whole_minute_arrivals):
        rows = run_admission_validation(*args)
    assert rows == admission_rows_per_arrival_loop(*args, draw=whole_minute_arrivals)


# Rates repeat in interleaved order: 0.1 at indices 0 and 2, 0.2 at 1 and 3.
REPEATED_RATE_GRID = ((3, 0.1), (4, 0.2), (4, 0.1), (5, 0.2), (3, 0.3))


def first_index_of_rate(grid):
    first = {}
    for idx, (_, lam) in enumerate(grid):
        first.setdefault(lam, idx)
    return first


def test_admission_validation_shares_one_trace_per_rate():
    station = StationParams(m=4, alpha=3.3, parking_capacity=40, lam=0.3, tau=1.01)
    grid = REPEATED_RATE_GRID
    first = first_index_of_rate(grid)
    for seed in (5, 6):
        args = (station, 35.0, grid, 20_000, seed)
        rows = run_admission_validation(*args)
        for (n, lam), row in zip(grid, rows):
            analysis = analyze_admission(n, 35.0, replace(station, lam=lam))
            arrivals = gen_poisson_arrivals(lam, 20_000 / lam, rng_for_stream(seed, first[lam]))
            simulated = run_loss_admission(arrivals, n, analysis.t_v) / len(arrivals)
            analytic = float(analysis.p_admit)
            assert row == [n, lam, 35.0, analytic, simulated, abs(analytic - simulated)]
        # The first point at each rate reads the stream it read when every
        # point drew its own trace.
        per_point = admission_rows_per_arrival_loop(*args)
        for idx in first.values():
            assert rows[idx] == per_point[idx]
        assert rows[2] != per_point[2]  # a later point at 0.1 reads stream 0, not 2


def test_admission_validation_draws_each_rate_once():
    station = StationParams(m=4, alpha=3.3, parking_capacity=40, lam=0.3, tau=1.01)
    drawn = []

    def counting_draw(lam, horizon, rng):
        drawn.append(lam)
        return gen_poisson_arrivals(lam, horizon, rng)

    with mock.patch.object(experiments, "gen_poisson_arrivals", counting_draw):
        rows = run_admission_validation(station, 35.0, REPEATED_RATE_GRID, 5_000, 5)
    assert drawn == [0.1, 0.2, 0.3]  # first-seen order
    assert [row[:2] for row in rows] == [list(point) for point in REPEATED_RATE_GRID]


def test_admission_validation_holds_one_trace_at_a_time():
    # Every point draws about 100,000 arrivals, some 1 MB of trace. The peak
    # of the whole grid stays within one draw's own peak plus half a trace:
    # a second trace alive while the next is drawn, or every rate's trace
    # held until the end, would add at least a whole one.
    station = StationParams(m=4, alpha=3.3, parking_capacity=40, lam=0.3, tau=1.01)
    arrivals_per_point, seed = 100_000, 5
    first = first_index_of_rate(REPEATED_RATE_GRID)
    run_admission_validation(station, 35.0, REPEATED_RATE_GRID, 1_000, seed)  # warm caches
    draw_peak = trace_bytes = 0
    tracemalloc.start()
    try:
        for lam, idx in first.items():
            tracemalloc.reset_peak()
            start, _ = tracemalloc.get_traced_memory()
            arrivals = gen_poisson_arrivals(
                lam, arrivals_per_point / lam, rng_for_stream(seed, idx)
            )
            held, peak = tracemalloc.get_traced_memory()
            draw_peak = max(draw_peak, peak - start)
            trace_bytes = max(trace_bytes, held - start)
            del arrivals
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        run_admission_validation(station, 35.0, REPEATED_RATE_GRID, arrivals_per_point, seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace_bytes > 8 * arrivals_per_point
    assert peak - start < draw_peak + trace_bytes / 2


def wait_rows_per_point(station_template, econ, grid, reps, horizon, seed):
    """run_wait_validation's rows, with one replicate call per stable point."""
    rows = []
    for n, lam, d in grid:
        station = replace(station_template, lam=lam)
        analysis = analyze_admission(n, d, station)
        if analysis.rho >= 1.0:
            rows.append([n, lam, d, analysis.rho, None, None, None, "unstable"])
            continue
        analytic = mean_wait(analysis, station, econ.wait_model)
        policy = AdmissionRule(d, n, analysis.t_v)
        [[metrics]] = replicate([([policy], econ, station, horizon)], reps, seed)
        simulated = metrics.mean_wait
        rel_gap = abs(analytic - simulated) / max(simulated, 1e-12)
        rows.append([n, lam, d, analysis.rho, analytic, simulated, rel_gap, "ok"])
    return rows


def test_wait_validation_matches_one_call_per_point(econ_default):
    station = StationParams(m=4, alpha=11.5, parking_capacity=40, lam=0.4, tau=1.01)
    grid = ((4, 0.2, 1.0), (8, 0.4, 50.0), (5, 0.4, 2.0), (4, 0.2, 0.5), (6, 0.1, 1.0))
    for econ in (econ_default, replace(econ_default, wait_model="allen_cunneen")):
        args = (station, econ, grid, 5, 300.0, 7)
        rows = run_wait_validation(*args)
        assert [r[7] for r in rows] == ["ok", "unstable", "ok", "ok", "ok"]
        assert rows == wait_rows_per_point(*args)
    # A grid with no stable point simulates nothing, yet its reps are checked.
    unstable_only = ((8, 0.4, 50.0),)
    with pytest.raises(DomainError):
        run_wait_validation(station, econ_default, unstable_only, 0, 300.0, 7)
    assert run_wait_validation(station, econ_default, unstable_only, 1, 300.0, 7) == (
        wait_rows_per_point(station, econ_default, unstable_only, 1, 300.0, 7)
    )


def test_wait_validation_flags_unstable(econ_default, tmp_path):
    station = StationParams(m=4, alpha=11.5, parking_capacity=40, lam=0.4, tau=1.01)
    out = tmp_path / "wait.csv"
    rows = run_wait_validation(
        station, econ_default, grid=((4, 0.2, 1.0), (8, 0.4, 50.0)),
        reps=3, horizon=500.0, seed=5, out_path=out,
    )
    flags = {r[7] for r in rows}
    assert flags == {"ok", "unstable"}
    unstable = [r for r in rows if r[7] == "unstable"][0]
    assert unstable[4] is None and unstable[5] is None
    lines = out.read_text().splitlines()
    assert lines[0] == "n,lambda,d,rho,analytic,simulated,rel_gap,flag"
    assert any(line.endswith(",unstable") for line in lines[1:])


def test_tau_study_single_point_grid(table1):
    scenarios, _ = table1
    result = run_tau_study(scenarios[:1], small_run(), tau_grid=(1.01,))
    assert result["aggregate_gain"] == 0.0
    assert result["rows"][0][4] == 0.0  # per-scenario gain


def test_tau_study_gain_nonnegative(table1):
    scenarios, _ = table1
    result = run_tau_study(scenarios[:2], small_run(), tau_grid=(1.01, 1.5))
    assert all(row[4] >= 0.0 for row in result["rows"])
    assert result["aggregate_gain"] >= 0.0
    assert result["reference_gain"] == pytest.approx(0.059)

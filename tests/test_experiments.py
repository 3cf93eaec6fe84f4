from dataclasses import replace

import numpy as np
import pytest

from evstation import (
    EconomicParams,
    StationParams,
    gen_poisson_arrivals,
    price_for_demand,
    rng_for_stream,
)
from evstation.config import RunOptions
from evstation.experiments import (
    build_policy,
    run_admission_validation,
    run_daily_experiment,
    run_tau_study,
    run_wait_validation,
)
from evstation.optimizer import demand_region_bound
from test_simulator import run_one_row


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


def test_build_policy_rejects_unknown(table1):
    scenarios, _ = table1
    with pytest.raises(ValueError, match="unknown policy"):
        build_policy("oracle", scenarios[0])


def test_daily_aggregate_recombines(table1):
    scenarios, _ = table1
    report = run_daily_experiment(scenarios[:3], small_run())
    for name in ("joap", "qba", "greedy"):
        rows = [r for r in report.rows if r.policy == name]
        recombined = sum(r.metrics.profit_per_hour * r.duration / 60.0 for r in rows)
        assert report.daily_profit[name] == pytest.approx(recombined, abs=1e-9)


def test_common_random_numbers_across_policies(table1):
    # Policies must see identical arrival traces in each replication.
    scenarios, _ = table1
    scenario = scenarios[0]
    traces = []
    for name in ("joap", "qba", "greedy"):
        policy, _, _ = build_policy(name, scenario)
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

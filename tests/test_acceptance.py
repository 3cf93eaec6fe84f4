"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v` to see the per-criterion
verdicts. Criteria that encode external reference behavior the faithful
implementation does not reproduce are left to fail and print their measured
tables; the analysis lives in the project notes, not in the code.
"""
import time
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from evstation import (
    EconomicParams,
    StationParams,
    analyze_admission,
    brute_force_oracle,
    build_generator,
    erlang_steady_state,
    occupancy_marginal,
    optimize_joap,
)
from evstation.config import RunOptions, bundled_config_path, load_config, with_penalty
from evstation.experiments import (
    run_admission_validation,
    run_daily_experiment,
    run_tau_study,
    run_wait_validation,
)
from evstation.optimizer import UNSTABLE, demand_region_bound
from evstation.queueing import mean_wait, profit_s

SEED = 20240521


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def _random_params(rng):
    econ = EconomicParams(
        beta=rng.uniform(0.02, 0.1),
        phi=rng.uniform(30.0, 100.0),
        u_phi=rng.uniform(50.0, 150.0),
        p_e=rng.uniform(0.01, 0.12),
        c=rng.uniform(0.1, 1.0),
    )
    station = StationParams(
        m=int(rng.integers(2, 7)),
        alpha=rng.uniform(3.0, 22.0),
        parking_capacity=60,
        lam=rng.uniform(0.05, 0.5),
        tau=rng.uniform(1.01, 1.5),
    )
    return econ, station


@lru_cache(maxsize=None)
def _daily(penalty: float):
    scenarios, run = load_config(bundled_config_path("table1"))
    scenarios = [with_penalty(s, penalty) for s in scenarios]
    run = replace(run, seed=SEED, reps=200)
    start = time.perf_counter()
    report = run_daily_experiment(scenarios, run)
    return report, time.perf_counter() - start


def test_criterion_01_admission_formula_exactness():
    # Analytic admission probability vs a 10^6-arrival loss-mode simulation
    # per grid point; absolute gap below 0.01, total runtime under 2 minutes.
    station = StationParams(m=4, alpha=3.3, parking_capacity=40, lam=0.3, tau=1.01)
    grid = tuple((n, lam) for n in (3, 4, 5) for lam in (0.02, 0.05, 0.1, 0.2, 0.4))
    start = time.perf_counter()
    rows = run_admission_validation(
        station, demand=35.0, grid=grid, arrivals_per_point=1_000_000, seed=SEED
    )
    elapsed = time.perf_counter() - start
    max_gap = max(r[5] for r in rows)
    ok = max_gap < 0.01 and elapsed < 120.0
    _verdict(1, "admission formula vs loss simulation", ok,
             f"max gap {max_gap:.5f}, {len(rows)} points, {elapsed:.1f}s")
    assert max_gap < 0.01
    assert elapsed < 120.0


def test_criterion_02_ctmc_oracle_agreement():
    # Occupancy marginals of the two-phase chain match the loss-system
    # distribution to 1e-8 for n in 1..5 and offered loads 0.5, 1, 2.
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 6):
        for a in (0.5, 1.0, 2.0):
            chain = build_generator(n, 1.0, a)
            gap = float(np.max(np.abs(occupancy_marginal(chain) - erlang_steady_state(n, a))))
            worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 10.0
    _verdict(2, "chain oracle marginals", ok, f"max gap {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-8
    assert elapsed < 10.0


def test_criterion_03_optimizer_matches_oracle():
    # The vectorised optimizer ties the exhaustive search (n <= 64) in
    # objective on 200 random stable parameter sets, within 1e-6, under 5 min.
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        econ, station = _random_params(rng)
        policy = optimize_joap(econ, station)
        oracle, _ = brute_force_oracle(econ, station)
        worst = max(worst, abs(policy.predicted_profit - oracle.predicted_profit))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 300.0
    _verdict(3, "optimizer vs exhaustive oracle", ok,
             f"max objective gap {worst:.2e} over 200 sets, {elapsed:.0f}s")
    assert worst < 1e-6
    assert elapsed < 300.0


def test_criterion_04_structural_shape():
    # Concavity of the per-count profit in demand inside the positive-margin
    # region, and increasing convexity of the mean-wait term, via finite
    # differences on 100-point grids for 20 random parameter sets.
    rng = np.random.default_rng(SEED + 1)
    sets_checked = 0
    while sets_checked < 20:
        econ, station = _random_params(rng)
        bound = demand_region_bound(econ)
        if bound <= 0:
            continue
        n = station.m  # always stable at n = m
        demands = np.linspace(bound * 0.01, bound * 0.99, 100)
        profits, waits = [], []
        for d in demands:
            val = profit_s(n, float(d), econ, station)
            if val == UNSTABLE:
                break
            analysis = analyze_admission(n, float(d), station)
            profits.append(val)
            waits.append(mean_wait(analysis, station, "theorem1"))
        else:
            profits = np.array(profits)
            waits = np.array(waits)
            tol_p = 1e-8 * max(1.0, float(np.max(np.abs(profits))))
            tol_w = 1e-8 * max(1.0, float(np.max(np.abs(waits))))
            assert np.all(np.diff(profits, 2) <= tol_p), "profit not concave in demand"
            assert np.all(np.diff(waits) > 0), "wait not increasing in demand"
            assert np.all(np.diff(waits, 2) >= -tol_w), "wait not convex in demand"
            sets_checked += 1
    _verdict(4, "profit concavity / wait convexity", True,
             f"{sets_checked} parameter sets x 100 grid points")


def test_criterion_05_wait_formula_tracks_simulation():
    # Closed-form mean wait vs simulation across the stable default grid
    # (m=4, tau=1.01, rho <= 0.8), 15% relative gate. The measured gap table
    # and the best single fitted scale are printed regardless of outcome.
    station = StationParams(m=4, alpha=11.5, parking_capacity=40, lam=0.3, tau=1.01)
    econ = EconomicParams(beta=0.05, phi=100.0, u_phi=100.0, p_e=0.06, c=0.4)
    rows = run_wait_validation(station, econ, reps=30, horizon=2000.0, seed=SEED)
    usable = [r for r in rows if r[7] == "ok" and r[3] <= 0.8]
    assert usable, "no stable grid points"
    print("n lambda d rho analytic simulated rel_gap")
    for n, lam, d, rho, analytic, simulated, gap, _ in usable:
        print(f"{n} {lam:.2f} {d:.2f} {rho:.3f} {analytic:12.4g} {simulated:10.4g} {gap:10.4g}")
    positive = [r for r in usable if r[5] > 0]
    if positive:
        # Least-squares single multiplier in log space over non-zero rows.
        scale = float(np.exp(np.mean([np.log(r[5] / r[4]) for r in positive])))
        resid = max(abs(r[4] * scale - r[5]) / r[5] for r in positive)
        print(f"fitted global scale {scale:.3e}; max relative gap after scaling {resid:.3g}")
    max_gap = max(r[6] for r in usable)
    ok = max_gap <= 0.15
    _verdict(5, "wait formula vs simulation", ok,
             f"max relative gap {max_gap:.3g} over {len(usable)} stable points")
    assert ok, (
        "closed-form mean wait does not track simulation within 15%. The "
        "theorem-1 index judged here is in min^3: it reads 2.3-5624 where the "
        "simulation reads 0-2.7 min, and it is positive at n <= m, where no EV "
        "ever waits. The reference is also noisy: at 30 replications its 95% "
        "half-width exceeds 15% of its mean at 13 of the 22 positive-wait "
        "points. The allen_cunneen wait, in minutes, misses a 300-replication "
        "reference by 20-83%. See the printed gap table and fitted scale"
    )


def test_criterion_06_benchmark_dominance():
    # With the bundled daily config, 200 common-random-number replications:
    # (a) optimized policy beats both benchmarks at c=0.4 and c=1.0,
    # (b) it earns at least 1.5x greedy, (c) threshold admission loses money
    # at c=1.0. Runtime under 10 minutes.
    results = {}
    elapsed = 0.0
    for c in (0.4, 1.0):
        report, took = _daily(c)
        results[c] = report.daily_profit
        elapsed += took
    for c, profits in results.items():
        print(f"c={c}: " + ", ".join(f"{k}={v:.1f}" for k, v in profits.items()))
    a_ok = all(
        results[c]["joap"] > results[c]["qba"] and results[c]["joap"] > results[c]["greedy"]
        for c in results
    )
    b_ok = all(results[c]["joap"] >= 1.5 * results[c]["greedy"] for c in results)
    c_ok = results[1.0]["qba"] < 0.0
    ok = a_ok and b_ok and c_ok and elapsed < 600.0
    _verdict(6, "daily profit dominance", ok,
             f"(a) beats both: {a_ok}, (b) >=1.5x greedy: {b_ok}, "
             f"(c) threshold negative at c=1.0: {c_ok}, {elapsed:.0f}s")
    assert elapsed < 600.0
    assert ok, (
        "the optimized policy does not dominate the benchmarks. The bundled "
        "table1 config charges its $/min penalty against the allen_cunneen "
        "wait (minutes); charged against the theorem1 index (min^3) instead, "
        "the optimum sits on the count cap N_CAP=64 with d* under 1 kWh and "
        "earns less than greedy. Check economics.wait_model and the printed "
        "profit table"
    )


def test_criterion_07_admission_rate_ordering():
    # Reference ordering across the same runs: threshold admission highest,
    # optimized policy in the middle, greedy lowest. Published as a table.
    report, _ = _daily(0.4)
    rates = report.admission_rate
    print("admission rates: " + ", ".join(f"{k}={v:.3f}" for k, v in rates.items()))
    ok = rates["qba"] >= rates["joap"] >= rates["greedy"]
    _verdict(7, "admission-rate ordering", ok,
             f"qba={rates['qba']:.3f}, joap={rates['joap']:.3f}, greedy={rates['greedy']:.3f}")
    assert ok, (
        "measured ordering is joap >= qba >= greedy, the same under both wait "
        "models (1.000, 0.646, 0.253). The threshold policy's admission is "
        "capped by the 40-space lot: its ~19 kWh charges take ~100 min on 4 "
        "ports with 10-40 Erlangs offered. The profit-maximizing policy at "
        "c=0.4 admits nearly everyone, and the paper's abstract does not "
        "settle the expected ordering for this station"
    )


def test_criterion_08_spacing_slack_study():
    # Best spacing slack over the default grid vs the fixed 1.01 value:
    # aggregate simulated profit gain must lie in [0%, 15%].
    scenarios, run = load_config(bundled_config_path("table1"))
    run = replace(run, seed=SEED, reps=100)
    result = run_tau_study(scenarios, run)
    gain = result["aggregate_gain"]
    ok = 0.0 <= gain <= 0.15
    _verdict(8, "spacing slack gain in band", ok,
             f"aggregate gain {gain:.3%} (reference 5.9%)")
    assert ok


def test_criterion_09_byte_identical_outputs(tmp_path):
    # Identical (config, penalty, seed, reps) must produce byte-identical
    # CSV and JSON outputs across repeated daily runs.
    scenarios, run = load_config(bundled_config_path("table1"))
    run = replace(run, seed=7, reps=50)
    a, b = tmp_path / "a", tmp_path / "b"
    run_daily_experiment(scenarios, run, out_dir=a)
    run_daily_experiment(scenarios, run, out_dir=b)
    names = ["daily_scenarios.csv", "daily_aggregate.csv", "daily_summary.json"]
    same = all((a / n).read_bytes() == (b / n).read_bytes() for n in names)
    _verdict(9, "deterministic outputs", same, f"{len(names)} files compared")
    assert same

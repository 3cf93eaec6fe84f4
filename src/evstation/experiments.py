"""Canned experiments: daily profit benchmark, validation grids, spacing study.

Each runner returns plain Python data and optionally writes plot-ready CSV
files with fixed column orders. All randomness flows through per-replication
seed streams, so identical (config, seed, reps) inputs give byte-identical
output files. The daily experiment and the spacing study each make one
optimize_joap_many search for every operating point of the run and one
`replicate` call for every scenario, and the wait validation one for
every stable point of its grid. That call builds each replication's
stream once and runs a scenario's policies, the three of the daily
experiment or the JoAP plans of the spacing study, on one arrival trace
drawn from it: common random numbers by construction, which makes the
profit comparisons paired rather than independent. The admission
validation pairs its slot counts the same way: every point at one arrival
rate counts admissions on one trace, drawn once for that rate. The daily
experiment's rows are its only per-scenario state, read by its
aggregates, its files and the `policies_by_scenario` view. No scenario's
rows depend on the scenarios run beside it, so the CLI's `simulate`
prints its scenario's row of the daily experiment, run on that one alone.
"""
from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .config import RunOptions
from .economics import DomainError, EconomicParams, StationParams, demand_region_bound, price_for_demand
# optimize_joap has no caller here: perfbench's tracer test checks that this
# import site is rebound, so it stays until that test names another site.
from .optimizer import DEFAULT_TAU_GRID, optimize_joap, optimize_joap_many  # noqa: F401
from .queueing import analyze_admission, mean_wait
from .simulator import (
    AdmissionRule,
    SimMetrics,
    gen_poisson_arrivals,
    replicate,
    rng_for_stream,
    run_loss_admission,
)

POLICY_NAMES = ("joap", "qba", "greedy")

DAILY_COLUMNS = [
    "scenario",
    "policy",
    "n",
    "demand_kwh",
    "price_per_kwh",
    "admission_rate",
    "mean_wait_min",
    "profit_per_hour",
    "profit_block",
]
AGGREGATE_COLUMNS = ["policy", "daily_profit", "admission_rate", "mean_wait_min"]
ADMISSION_COLUMNS = ["n", "lambda", "d", "analytic", "simulated", "gap"]
WAIT_COLUMNS = ["n", "lambda", "d", "rho", "analytic", "simulated", "rel_gap", "flag"]
TAU_COLUMNS = ["scenario", "profit_fixed", "tau_best", "profit_best", "gain"]


@dataclass(frozen=True)
class ScenarioResult:
    scenario: str
    policy: str
    n: int | None
    demand: float
    price: float
    metrics: SimMetrics
    duration: float

    @property
    def profit_block(self) -> float:
        """Profit over the scenario's block of `duration` minutes ($)."""
        return self.metrics.profit_per_hour * self.duration / 60.0


@dataclass(frozen=True)
class ExperimentReport:
    """Per-scenario rows plus duration-weighted daily aggregates and ratios."""

    rows: list
    daily_profit: dict
    admission_rate: dict
    mean_wait: dict
    ratios: dict

    @property
    def policies_by_scenario(self) -> dict:
        """Each row's operating point, {"n", "demand", "price"}, by (scenario, policy)."""
        return {
            (r.scenario, r.policy): {"n": r.n, "demand": r.demand, "price": r.price}
            for r in self.rows
        }


def _policies(scenarios: list) -> list:
    """Each scenario's admission policies, in POLICY_NAMES order.

    JoAP sits at the scenario's optimized operating point, every scenario's
    from one optimize_joap_many search; both benchmarks charge the myopic
    margin-maximizing demand.
    """
    plans = optimize_joap_many([(s.econ, s.station) for s in scenarios])
    policies = []
    for scenario, plan in zip(scenarios, plans):
        d_b = demand_region_bound(scenario.econ)
        joap = AdmissionRule(plan.d_star, plan.n_star, plan.t_v)
        policies.append([joap, AdmissionRule(d_b), AdmissionRule(d_b, greedy=True)])
    return policies


def run_daily_experiment(scenarios: list, run: RunOptions, out_dir=None) -> ExperimentReport:
    """Benchmark JoAP against both benchmark policies across all scenarios of one day.

    All scenarios are replicated in one `replicate` call: a scenario's three
    policies run on the same arrival trace per replication. The daily
    aggregates are running totals from 0.0 in scenario order, which every
    Python version rounds alike, where sum() compensates since 3.12. The
    ratios, joap_vs_<other>, divide JoAP's daily profit by each benchmark's
    that is positive: a ratio to a loss or to 0 is no share of a profit.
    Writes daily_scenarios.csv, daily_aggregate.csv and daily_summary.json
    when out_dir is given.
    """
    if not scenarios:  # the duration-weighted aggregates divide by the day's length
        raise DomainError(f"scenarios must be a non-empty list, got {scenarios!r}")
    built = _policies(scenarios)
    rows: list[ScenarioResult] = []
    total_time = 0.0
    daily_profit, admission_rate, mean_wait = (dict.fromkeys(POLICY_NAMES, 0.0) for _ in range(3))
    for scenario, policies, results in zip(scenarios, built, _simulate(scenarios, built, run)):
        econ, duration = scenario.econ, scenario.duration
        total_time += duration
        for name, policy, metrics in zip(POLICY_NAMES, policies, results):
            n = policy.n if name == "joap" else None
            demand = policy.demand  # no demand is what the choke price sells, as optimize reports
            price = price_for_demand(demand, econ) if demand > 0 else econ.choke_price
            row = ScenarioResult(scenario.name, name, n, demand, price, metrics, duration)
            rows.append(row)
            daily_profit[name] += row.profit_block
            admission_rate[name] += metrics.admission_rate * duration
            mean_wait[name] += metrics.mean_wait * duration
    for name in POLICY_NAMES:
        admission_rate[name] /= total_time
        mean_wait[name] /= total_time
    ratios = {
        f"joap_vs_{other}": daily_profit["joap"] / daily_profit[other]
        for other in POLICY_NAMES
        if other != "joap" and daily_profit[other] > 0
    }
    report = ExperimentReport(
        rows=rows,
        daily_profit=daily_profit,
        admission_rate=admission_rate,
        mean_wait=mean_wait,
        ratios=ratios,
    )
    if out_dir is not None:
        _write_daily_outputs(report, Path(out_dir))
    return report


def _simulate(scenarios: list, policies: list, run: RunOptions) -> list:
    """Replicate each scenario's policies on its station in one `replicate` call.

    policies[k] lists scenario k's policies; each case runs for the run's
    horizon, or for its scenario's duration when the run sets none.
    """
    cases = [
        (mine, s.econ, s.station, run.horizon if run.horizon is not None else s.duration)
        for s, mine in zip(scenarios, policies)
    ]
    return replicate(cases, run.reps, run.seed)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def _write_csv(path: Path, columns: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_daily_outputs(report: ExperimentReport, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_rows = [
        [
            r.scenario,
            r.policy,
            r.n,
            r.demand,
            r.price,
            r.metrics.admission_rate,
            r.metrics.mean_wait,
            r.metrics.profit_per_hour,
            r.profit_block,
        ]
        for r in report.rows
    ]
    _write_csv(out_dir / "daily_scenarios.csv", DAILY_COLUMNS, csv_rows)
    _write_csv(
        out_dir / "daily_aggregate.csv",
        AGGREGATE_COLUMNS,
        [
            [name, report.daily_profit[name], report.admission_rate[name], report.mean_wait[name]]
            for name in POLICY_NAMES
        ],
    )
    summary = {
        "daily_profit": report.daily_profit,
        "admission_rate": report.admission_rate,
        "mean_wait_min": report.mean_wait,
        "ratios": report.ratios,
        # A row's five identifying keys are the CSV's first five columns, with its values.
        "scenarios": [
            {**dict(zip(DAILY_COLUMNS[:5], line)), **asdict(r.metrics)}
            for r, line in zip(report.rows, csv_rows)
        ],
    }
    text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    (out_dir / "daily_summary.json").write_text(text)


DEFAULT_ADMISSION_GRID = tuple(
    (n, lam) for n in (3, 4, 5) for lam in (0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4)
)


def run_admission_validation(
    station_template: StationParams,
    demand: float,
    grid=DEFAULT_ADMISSION_GRID,
    arrivals_per_point: int = 200_000,
    seed: int = RunOptions.seed,
    out_path=None,
) -> list:
    """Analytic vs loss-mode simulated admission rate per (n, λ) grid point.

    The simulation runs the slot-spacing rule with no charging stage, so any
    gap is pure Monte-Carlo noise around the blocking formula. Every point
    at one rate reads one arrival trace, drawn from stream (seed, i) where i
    is the grid index of the first point at that rate: the counts at a rate
    are compared on common random numbers, and a grid that repeats each
    rate once per count draws each rate once. The rates are drawn in
    first-seen order and one trace is alive at a time. Rows are (n, lambda,
    d, analytic, simulated, gap), in grid order.
    """
    points_at: dict = {}
    for idx, (_, lam) in enumerate(grid):
        points_at.setdefault(lam, []).append(idx)
    rows: list = [None] * len(grid)
    for lam, indices in points_at.items():
        station = replace(station_template, lam=lam)
        arrivals = gen_poisson_arrivals(
            lam, arrivals_per_point / lam, rng_for_stream(seed, indices[0])
        )
        for idx in indices:
            n = grid[idx][0]
            analysis = analyze_admission(n, demand, station)
            analytic = float(analysis.p_admit)
            admitted = run_loss_admission(arrivals, n, analysis.t_v)
            simulated = admitted / len(arrivals) if len(arrivals) else 1.0
            rows[idx] = [n, lam, demand, analytic, simulated, abs(analytic - simulated)]
        del arrivals  # the next rate's draw starts with no trace alive
    if out_path is not None:
        _write_csv(Path(out_path), ADMISSION_COLUMNS, rows)
    return rows


DEFAULT_WAIT_GRID = tuple(
    (n, lam, d)
    for n in (4, 5, 6)
    for lam in (0.1, 0.2, 0.3, 0.4)
    for d in (0.5, 1.0, 2.0)
)


def run_wait_validation(
    station_template: StationParams,
    econ: EconomicParams,
    grid=DEFAULT_WAIT_GRID,
    reps: int = 40,
    horizon: float = 2000.0,
    seed: int = RunOptions.seed,
    out_path=None,
) -> list:
    """Closed-form mean wait vs simulated mean wait over a (n, λ, d) grid.

    The closed form is the one econ.wait_model selects. Unstable points
    (ρ ≥ 1) are flagged and carry no wait values. Every stable point is a
    case of one `replicate` call, so each replication's stream is built once
    for the grid; each point reads that stream as a call of its own would.
    Rows are (n, lambda, d, rho, analytic, simulated, rel_gap, flag).
    """
    rows, cases = [], []
    for n, lam, d in grid:
        station = replace(station_template, lam=lam)
        analysis = analyze_admission(n, d, station)
        rho = analysis.rho
        if rho >= 1.0:
            rows.append([n, lam, d, rho, None, None, None, "unstable"])
            continue
        analytic = mean_wait(analysis, station, econ.wait_model)
        cases.append(([AdmissionRule(d, n, analysis.t_v)], econ, station, horizon))
        rows.append([n, lam, d, rho, analytic, None, None, "ok"])
    stable = [row for row in rows if row[-1] == "ok"]
    for row, [metrics] in zip(stable, replicate(cases, reps, seed)):
        analytic, simulated = row[4], metrics.mean_wait
        row[5:7] = simulated, abs(analytic - simulated) / max(simulated, 1e-12)
    if out_path is not None:
        _write_csv(Path(out_path), WAIT_COLUMNS, rows)
    return rows


def run_tau_study(
    scenarios: list,
    run: RunOptions,
    tau_grid=DEFAULT_TAU_GRID,
    out_path=None,
) -> dict:
    """Simulated profit at the fixed spacing factor vs the per-scenario best.

    Every scenario's operating point is re-optimized at every τ on the grid
    in one optimize_joap_many search, and every scenario's plans are
    replicated in one `replicate` call, each scenario's on its own station:
    the event loop reads no τ, so a scenario's plans share one arrival trace
    per replication. The best τ is the one with the highest simulated profit;
    the fixed spacing goes first and a later τ must strictly beat it. The
    fixed spacing is always part of the grid, so per-scenario gain is a
    maximum over a superset and never negative. Returns per-scenario rows
    and the aggregate relative gain.
    """
    taus_of = [
        [s.station.tau] + [tau for tau in tau_grid if tau != s.station.tau] for s in scenarios
    ]
    points = [
        (s.econ, replace(s.station, tau=tau)) for s, taus in zip(scenarios, taus_of) for tau in taus
    ]
    rules = (AdmissionRule(plan.d_star, plan.n_star, plan.t_v) for plan in optimize_joap_many(points))
    policies = [[next(rules) for _ in taus] for taus in taus_of]  # each scenario's plans, by τ
    rows = []
    fixed_total = 0.0
    best_total = 0.0
    for scenario, taus, results in zip(scenarios, taus_of, _simulate(scenarios, policies, run)):
        profits = [metrics.profit_per_hour * scenario.duration / 60.0 for metrics in results]
        profit_fixed = profits[0]
        best = max(range(len(taus)), key=lambda k: (profits[k], -k))
        tau_best, profit_best = taus[best], profits[best]
        fixed_total += profit_fixed
        best_total += profit_best
        gain = (profit_best - profit_fixed) / abs(profit_fixed) if profit_fixed else 0.0
        rows.append([scenario.name, profit_fixed, tau_best, profit_best, gain])
    aggregate_gain = (best_total - fixed_total) / abs(fixed_total) if fixed_total else 0.0
    if out_path is not None:
        _write_csv(Path(out_path), TAU_COLUMNS, rows)
    return {"rows": rows, "aggregate_gain": aggregate_gain, "reference_gain": 0.059}

"""Optimize the operating point for each daily scenario and benchmark it.

Replays the daily experiment at the low penalty rate with a small number of
replications, printing per-scenario operating points and the aggregate
profit comparison across the three admission policies.
"""
from evstation.config import RunOptions, bundled_config_path, load_config
from evstation.experiments import run_daily_experiment
from evstation.optimizer import optimize_joap

scenarios, _ = load_config(bundled_config_path("table1"))
run = RunOptions(seed=2024, reps=50)

print("scenario          lam   p_e($/kWh)  n*  d*(kWh)  r*($/kWh)")
for s in scenarios:
    plan = optimize_joap(s.econ, s.station)
    print(
        f"{s.name:<16} {s.station.lam:>4.1f}  {s.econ.p_e:>8.3f}  {plan.n_star:>4} "
        f"{plan.d_star:>7.2f}  {plan.r_star:>8.2f}"
    )

report = run_daily_experiment(scenarios, run)
print("\ndaily profit ($):")
for name, profit in report.daily_profit.items():
    print(f"  {name:<7} {profit:>12.1f}  (admission rate {report.admission_rate[name]:.2f})")
for label, ratio in report.ratios.items():
    print(f"  {label}: {ratio:.2f}x")

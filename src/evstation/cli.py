"""Command-line front end.

Subcommands:
    analyze     print the admission analysis for a given slot count and demand
    optimize    print the optimized operating point as JSON
    simulate    run one policy on one scenario and print metrics
    experiment  daily | admission | wait | tau batch runners writing CSVs
    oracle      ctmc: dump the verification chain and its blocking check

Exit codes: 0 success, 1 validation/input error, 2 runtime error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import ConfigError, RunOptions, _whole, bundled_config_path, load_config, with_penalty
from .ctmc import blocking_probability, build_generator, occupancy_marginal, steady_state
from .economics import DomainError
from .experiments import (
    POLICY_NAMES,
    build_policy,
    run_admission_validation,
    run_daily_experiment,
    run_tau_study,
    run_wait_validation,
)
from .optimizer import optimize_joap, optimize_tau
from .queueing import analyze_admission, erlang_blocking
from .simulator import replicate


def _json_ready(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _json_ready(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if hasattr(obj, "tolist"):
        return obj.tolist()
    return obj


def _emit(obj) -> None:
    print(json.dumps(_json_ready(obj), indent=2, sort_keys=True, allow_nan=False))


def _load(args) -> tuple[list, RunOptions]:
    path = Path(args.config)
    if not path.exists():
        bundled = bundled_config_path(path.stem)
        if bundled.exists():
            path = bundled
    scenarios, run = load_config(path)
    problems: list = []  # --seed and --reps follow the config's run-block rules
    if args.seed is not None:
        run = dataclasses.replace(run, seed=_whole(args.seed, "seed", 0, problems, "--seed"))
    if args.reps is not None:
        run = dataclasses.replace(run, reps=_whole(args.reps, "reps", 1, problems, "--reps"))
    if problems:
        raise ConfigError("; ".join(problems))
    if args.penalty is not None:
        scenarios = [with_penalty(s, args.penalty) for s in scenarios]
    return scenarios, run


def _pick_scenario(scenarios: list, index: int):
    if not 0 <= index < len(scenarios):
        raise ConfigError(f"--scenario {index} out of range (config has {len(scenarios)})")
    return scenarios[index]


def _cmd_analyze(args) -> int:
    scenarios, _ = _load(args)
    scenario = _pick_scenario(scenarios, args.scenario)
    _emit(analyze_admission(args.n, args.demand, scenario.station))
    return 0


def _cmd_optimize(args) -> int:
    scenarios, _ = _load(args)
    scenario = _pick_scenario(scenarios, args.scenario)
    if args.optimize_tau:
        tau, policy = optimize_tau(scenario.econ, scenario.station)
        _emit({"tau": tau, "policy": policy})
    else:
        _emit(optimize_joap(scenario.econ, scenario.station))
    return 0


def _cmd_simulate(args) -> int:
    scenarios, run = _load(args)
    scenario = _pick_scenario(scenarios, args.scenario)
    policy, n, demand = build_policy(args.policy, scenario)
    horizon = run.horizon if run.horizon is not None else scenario.duration
    econ, station = scenario.econ, scenario.station
    [[metrics]] = replicate([([policy], econ, station, horizon)], run.reps, run.seed)
    _emit({"policy": args.policy, "n": n, "demand_kwh": demand, "metrics": metrics})
    return 0


def _cmd_experiment(args) -> int:
    scenarios, run = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.which == "daily":
        report = run_daily_experiment(scenarios, run, out)
        _emit({"daily_profit": report.daily_profit, "ratios": report.ratios})
    elif args.which == "admission":
        rows = run_admission_validation(
            scenarios[0].station,
            demand=scenarios[0].econ.phi,
            seed=run.seed,
            out_path=out / "admission_validation.csv",
        )
        _emit({"points": len(rows), "max_gap": max(r[5] for r in rows)})
    elif args.which == "wait":
        rows = run_wait_validation(
            scenarios[0].station,
            scenarios[0].econ,
            seed=run.seed,
            out_path=out / "wait_validation.csv",
        )
        stable = [r for r in rows if r[7] == "ok"]
        _emit({"points": len(rows), "stable_points": len(stable)})
    else:  # tau
        result = run_tau_study(scenarios, run, out_path=out / "tau_study.csv")
        _emit({"aggregate_gain": result["aggregate_gain"], "reference_gain": result["reference_gain"]})
    return 0


def _cmd_oracle(args) -> int:
    chain = build_generator(args.n, args.lam, args.t_v)
    pi = steady_state(chain)
    marginal = occupancy_marginal(chain, pi)
    _emit(
        {
            "n": args.n,
            "states": [list(s) for s in chain.states],
            "generator": chain.generator,
            "occupancy_marginal": marginal,
            "blocking_ctmc": blocking_probability(chain, pi),
            "blocking_erlang": erlang_blocking(args.n, args.lam * args.t_v),
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evstation", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario=True):
        p.add_argument("--config", default="table1", help="config path or bundled name")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--reps", type=int, default=None)
        p.add_argument("--penalty", type=float, default=None, help="waiting-cost rate $/min")
        if scenario:
            p.add_argument("--scenario", type=int, default=0, help="scenario index in the config")

    p = sub.add_parser("analyze", help="admission analysis for a slot count and demand")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--demand", type=float, required=True, help="kWh per EV")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("optimize", help="optimized operating point")
    common(p)
    p.add_argument("--optimize-tau", action="store_true")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("simulate", help="replicate one policy on one scenario")
    common(p)
    p.add_argument("--policy", choices=POLICY_NAMES, default="joap")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("experiment", help="batch experiment runners")
    p.add_argument("which", choices=("daily", "admission", "wait", "tau"))
    common(p, scenario=False)
    p.add_argument("--out", default="results", help="output directory for CSV/JSON files")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("oracle", help="verification oracles")
    p.add_argument("which", choices=("ctmc",))
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--t-v", dest="t_v", type=float, default=2.0, help="slot spacing (min)")
    p.add_argument("--lam", type=float, default=0.5)
    p.set_defaults(func=_cmd_oracle)

    return parser


def cli_dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures map to a distinct code
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()

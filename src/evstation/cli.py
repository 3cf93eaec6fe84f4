"""Command-line front end.

Subcommands, each taking --config (all but oracle) and only the flags it reads:
    analyze     admission analysis for a slot count and demand: --scenario --n --demand
    optimize    the optimized operating point as JSON: --scenario --penalty --optimize-tau
    simulate    one policy's row of the daily run on one scenario:
                --scenario --seed --reps --penalty --policy
    experiment  batch runners writing CSVs, flags after the runner's name: daily and tau
                --seed --reps --penalty --out; wait --seed --reps --out; admission --seed --out
    oracle      ctmc: the verification chain and its blocking check: --n --lam --t-v

Exit codes: 0 success, 1 validation/input error, 2 runtime error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import ConfigError, RunOptions, _whole, bundled_config_path, load_config, with_penalty
from .ctmc import build_generator, occupancy_marginal
from .economics import DomainError
from .experiments import (
    POLICY_NAMES,
    run_admission_validation,
    run_daily_experiment,
    run_tau_study,
    run_wait_validation,
)
from .optimizer import optimize_joap, optimize_tau
from .queueing import analyze_admission, erlang_blocking


def _plain(obj):
    """json's hook for what it cannot write: a dataclass as its fields, a
    numpy array or scalar as its tolist(). Every dict the commands print has
    string keys, so sort_keys orders the keys as they are printed: json
    writes an int key as a string but sorts it as a number, 9 before 10,
    where the strings sort "10" first."""
    return dataclasses.asdict(obj) if dataclasses.is_dataclass(obj) else obj.tolist()


def _emit(obj) -> None:
    print(json.dumps(obj, default=_plain, indent=2, sort_keys=True, allow_nan=False))


def _load(args) -> tuple[list, RunOptions]:
    path = Path(args.config)
    if not path.exists() and path.name == args.config and not path.suffix:  # a bare name
        bundled = bundled_config_path(args.config)
        if bundled.exists():
            path = bundled
    scenarios, run = load_config(path)
    problems: list = []  # --seed and --reps follow the config's run-block rules
    if vars(args).get("seed") is not None:  # a command has only the flags it reads
        run = dataclasses.replace(run, seed=_whole(args.seed, "seed", 0, problems, "--seed"))
    if vars(args).get("reps") is not None:
        run = dataclasses.replace(run, reps=_whole(args.reps, "reps", 1, problems, "--reps"))
    if problems:
        raise ConfigError("; ".join(problems))
    if vars(args).get("penalty") is not None:
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
    [row] = [r for r in run_daily_experiment([scenario], run).rows if r.policy == args.policy]
    _emit({"policy": args.policy, "n": row.n, "demand_kwh": row.demand, "metrics": row.metrics})
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
            # The runner's own reps unless --reps is given: the config's reps are the daily run's.
            **({} if args.reps is None else {"reps": run.reps}),
        )
        stable = [r for r in rows if r[7] == "ok"]
        _emit({"points": len(rows), "stable_points": len(stable)})
    else:  # tau
        result = run_tau_study(scenarios, run, out_path=out / "tau_study.csv")
        _emit({"aggregate_gain": result["aggregate_gain"], "reference_gain": result["reference_gain"]})
    return 0


def _cmd_oracle(args) -> int:
    chain = build_generator(args.n, args.lam, args.t_v)
    marginal = occupancy_marginal(chain)
    _emit(
        {
            "n": args.n,
            "states": [list(s) for s in chain.states],
            "generator": chain.generator,
            "occupancy_marginal": marginal,
            "blocking_ctmc": float(marginal[args.n]),
            "blocking_erlang": erlang_blocking(args.n, args.lam * args.t_v),
        }
    )
    return 0


class _BeforeRunner(argparse.Action):
    """A runner's flag given before the runner's name: refused, with the order it takes."""

    def __call__(self, parser, namespace, values, option_string=None):
        example = " ".join(["experiment daily", option_string, *([values] if values else [])])
        parser.error(f"{option_string} must follow the runner's name, as in: {example}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evstation", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "--scenario": dict(type=int, default=0, help="scenario index in the config"),
        "--seed": dict(type=int, default=None),
        "--reps": dict(type=int, default=None),
        "--penalty": dict(type=float, default=None, help="waiting-cost rate $/min"),
    }

    def command(subparsers, name, func, flags, help=None):
        p = subparsers.add_parser(name, help=help)
        p.add_argument("--config", default="table1", help="config path or bundled name")
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        p.set_defaults(func=func)
        return p

    p = command(sub, "analyze", _cmd_analyze, ["--scenario"], "admission analysis for a slot count and demand")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--demand", type=float, required=True, help="kWh per EV")

    p = command(sub, "optimize", _cmd_optimize, ["--scenario", "--penalty"], "optimized operating point")
    p.add_argument("--optimize-tau", action="store_true")

    p = command(sub, "simulate", _cmd_simulate, list(shared), "a policy's daily-run row, one scenario")
    p.add_argument("--policy", choices=POLICY_NAMES, default="joap")

    runners = sub.add_parser("experiment", help="batch experiment runners")
    every = ["--seed", "--reps", "--penalty"]
    for flag in ("--config", *every, "--out"):  # a runner's flag, given before the runner's name
        runners.add_argument(
            flag, action=_BeforeRunner, nargs="?", default=argparse.SUPPRESS, help=argparse.SUPPRESS
        )
    runners = runners.add_subparsers(dest="which", required=True)
    # The validation runners fix their own grids: admission reads neither
    # --reps nor --penalty, and no output of the wait runner depends on the penalty.
    runs = {"daily": every, "admission": ["--seed"], "wait": ["--seed", "--reps"], "tau": every}
    for which, flags in runs.items():
        p = command(runners, which, _cmd_experiment, flags)
        p.add_argument("--out", default="results", help="output directory for CSV/JSON files")

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

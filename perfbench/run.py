"""evstation benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload loss-admission --seed 1 --seconds 50 --trace 0

The run imports evstation from the src/ tree of the checkout it sits in and
times calls into the package's public functions from outside it. Each call
starts only after the previous one returned. It measures for --seconds
seconds, and at least a workload's minimum number of calls. Latencies are
taken per input: where a workload repeats its inputs, an input's latency is
its fastest call. The outputs are checked after the timed loop.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 every public function of the measured
layers is wrapped (see tracing.py) and the metrics are the per-layer ones.
README.md lists them all.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()  # setup_s counts from here: nothing of evstation is loaded yet

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
SETUP_PROBES = 2  # fresh interpreters set up per untraced run, besides the run's own

# Measured layers are evstation's modules. ctmc is on no user path and cli is
# thin argparse, so neither is wrapped.
LAYERS = ("queueing", "optimizer", "simulator", "economics", "experiments", "config")
REPORTED = {
    "queueing": (
        "erlang_steady_state",
        "analyze_admission",
        "admitted_interarrival_moments",
        "admission_probability",
        "admission_probability_real",
        "erlang_blocking_real",
        "mean_wait_theorem1",
    ),
    "optimizer": (
        "optimize_joap",
        "solve_relaxed",
        "inner_demand_opt",
        "profit_s",
        "profit_s_real",
        "profit_relaxed",
        "recover_n",
        "demand_region_bound",
    ),
    "simulator": ("gen_poisson_arrivals", "run_loss_admission", "run_simulation", "replicate"),
    "economics": ("per_ev_profit", "price_for_demand"),
    "experiments": (
        "run_daily_experiment",
        "run_admission_validation",
        "build_policy",
        "benchmark_demand",
    ),
}
OBJECTIVES = ("optimizer.profit_s", "optimizer.profit_s_real", "optimizer.profit_relaxed")

END_TO_END = {
    "setup_s": "s",
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def per_layer_units() -> dict[str, str]:
    """Names and units of the metrics a traced run prints, in order."""
    units = {}
    for layer, functions in REPORTED.items():
        for fn in functions:
            units[f"{layer}.{fn}.calls"] = "count/op"
            units[f"{layer}.{fn}.self_s"] = "s/op"
        units[f"{layer}.self_s"] = "s/op"
    units["optimizer.evals"] = "count/op"
    units["optimizer.evals_per_point"] = "evals/call"
    units["optimizer.unstable_frac"] = "ratio"
    units["simulator.arrivals"] = "count/op"
    units["config.load_config.calls"] = "count"
    units["config.load_config.self_s"] = "s"
    units["config.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.errors"] = "count"
    units["bench.self_s"] = "s/op"
    units["trace.accounted_frac"] = "ratio"
    units["trace.call_ms_p50"] = "ms"
    return units


def _count_objective(counts: dict, value) -> None:
    counts["evals"] = counts.get("evals", 0) + 1
    if value == float("-inf"):
        counts["unstable"] = counts.get("unstable", 0) + 1


def _count_arrivals(counts: dict, arrivals) -> None:
    counts["arrivals"] = counts.get("arrivals", 0) + len(arrivals)


OBSERVERS = {name: _count_objective for name in OBJECTIVES}
OBSERVERS["simulator.gen_poisson_arrivals"] = _count_arrivals


def _finite(*values) -> bool:
    try:
        return all(math.isfinite(v) for v in values)
    except TypeError:  # None or not a number
        return False


# ---------------------------------------------------------------- workloads


class Workload:
    """Inputs, one timed call and the output checks of one workload.

    `why` says why the workload exists and which layers it exercises or
    bypasses; BENCHMARK.json carries the same sentence. Calls with the same
    key get the same input, and a key's latency is its fastest call. By
    default every call has a key of its own, so its latency is as measured.
    """

    name = ""
    why = ""
    min_calls = 1
    items_per_call = 1  # what items_per_s counts, per key

    def __init__(self, ev, seed: int):
        self.ev = ev
        self.seed = seed

    def key(self, i: int) -> int:
        return i

    def inputs(self, i: int):
        return self.key(i)

    def call(self, inp):
        raise NotImplementedError

    def check(self, calls: list) -> list:
        """(call index, problem) pairs for the calls that returned."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class Repeated(Workload):
    """A workload whose calls cycle over two inputs of equal work.

    On a shared 2-vCPU VM, other tenants slow work by up to 1.6x for
    stretches of 5-20 s, which moves the median call of a 20 s run by up to
    a third. Each input is called in turn, so its calls spread over the run,
    and its fastest call stands for it.
    """

    distinct = 2

    def key(self, i):
        return i % self.distinct


def random_params(ev, rng):
    """One parameter set from acceptance criterion 3's distribution, same draw order."""
    econ = ev.EconomicParams(
        beta=rng.uniform(0.02, 0.1),
        phi=rng.uniform(30.0, 100.0),
        u_phi=rng.uniform(50.0, 150.0),
        p_e=rng.uniform(0.01, 0.12),
        c=rng.uniform(0.1, 1.0),
    )
    station = ev.StationParams(
        m=int(rng.integers(2, 7)),
        alpha=rng.uniform(3.0, 22.0),
        parking_capacity=60,
        lam=rng.uniform(0.05, 0.5),
        tau=rng.uniform(1.01, 1.5),
    )
    return econ, station


def check_policy(policy, oracle=None) -> list:
    """Problems with one optimized operating point, optionally against the oracle."""
    problems = []
    values = (policy.d_star, policy.r_star, policy.t_v, policy.predicted_profit,
              policy.predicted_admit, policy.predicted_wait)
    if not _finite(*values) or policy.n_star < 1:
        problems.append(f"non-finite or invalid operating point {policy}")
    elif oracle is not None and not abs(policy.predicted_profit - oracle.predicted_profit) <= 1e-6:
        problems.append(
            f"objective {policy.predicted_profit!r} differs from the oracle's "
            f"{oracle.predicted_profit!r} by more than 1e-6"
        )
    return problems


class OptimizeRandom(Workload):
    name = "optimize-random"
    why = ("random parameter sets into optimize_joap: time is in optimizer and queueing, "
           "simulator is never called; the vectorised objective must show its gain here")
    min_calls = 100  # so that p90 has ten samples beyond it
    oracle_points = 3  # the first calls of every run are checked against brute_force_oracle

    def __init__(self, ev, seed):
        super().__init__(ev, seed)
        import numpy as np

        self.rng = np.random.default_rng(seed)
        self.points = [random_params(ev, self.rng) for _ in range(self.min_calls)]

    def inputs(self, i):
        while len(self.points) <= i:
            self.points.append(random_params(self.ev, self.rng))
        return self.points[i]

    def call(self, params):
        return self.ev.optimize_joap(*params)

    def check(self, calls):
        problems = []
        for c in calls:
            oracle = None
            if c.index < self.oracle_points:
                oracle, _ = self.ev.brute_force_oracle(*c.inp)
            problems.extend((c.index, p) for p in check_policy(c.out, oracle))
        return problems


def check_admission_rows(rows) -> list:
    """Problems with one admission-validation grid: each gap must stay below 0.01."""
    problems = []
    for n, lam, _, analytic, simulated, gap in rows:
        if not _finite(analytic, simulated, gap) or not gap < 0.01:
            problems.append(f"n={n} lam={lam}: analytic {analytic!r} vs simulated {simulated!r}")
    return problems


class LossAdmission(Repeated):
    name = "loss-admission"
    why = ("run_admission_validation on the fig4 station over criterion 1's grid: time is in "
           "simulator loss mode, with 15 analytic calls, so optimizer gains show no change here")
    grid = tuple((n, lam) for n in (3, 4, 5) for lam in (0.02, 0.05, 0.1, 0.2, 0.4))
    demand = 35.0
    arrivals_per_point = 100_000
    min_calls = 8
    items_per_call = arrivals_per_point * len(grid)  # arrivals requested

    def __init__(self, ev, seed):
        super().__init__(ev, seed)
        scenarios, _ = ev.load_config(ev.config.bundled_config_path("fig4"))
        self.station = scenarios[0].station

    def inputs(self, i):
        return self.seed * self.distinct + self.key(i)  # the arrival streams' seed

    def call(self, call_seed):
        return self.ev.run_admission_validation(
            self.station, self.demand, self.grid, self.arrivals_per_point, call_seed
        )

    def check(self, calls):
        return [(c.index, p) for c in calls for p in check_admission_rows(c.out)]


DAILY_FILES = ("daily_aggregate.csv", "daily_scenarios.csv", "daily_summary.json")


def output_digest(out_dir: Path) -> dict:
    """sha256 of every file the daily experiment wrote."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


def check_daily_report(report, digest, first_digest, oracles) -> list:
    """Problems with one daily run.

    Its files must equal, byte for byte, those of the first run with the
    same seed; every profit, rate and wait must be finite; each scenario's
    joap point must match the exhaustive oracle's (n, d).
    """
    problems = []
    if sorted(digest) != sorted(DAILY_FILES):
        problems.append(f"output files {sorted(digest)}, expected {sorted(DAILY_FILES)}")
    elif digest != first_digest:
        problems.append("output files differ from the first repetition's")
    values = [*report.daily_profit.values(), *report.admission_rate.values(),
              *report.mean_wait.values(), *report.ratios.values()]
    for row in report.rows:
        values += [row.demand, row.price, row.metrics.admission_rate,
                   row.metrics.mean_wait, row.metrics.profit_per_hour]
    if not _finite(*values):
        problems.append("non-finite profit, rate or wait")
    for scenario, oracle in oracles.items():
        point = report.policies_by_scenario.get((scenario, "joap"))
        if point is None:
            problems.append(f"{scenario}: no joap operating point")
        elif point["n"] != oracle.n_star or not abs(point["demand"] - oracle.d_star) <= 1e-6:
            problems.append(
                f"{scenario}: joap (n={point['n']}, d={point['demand']!r}) vs oracle "
                f"(n={oracle.n_star}, d={oracle.d_star!r})"
            )
    return problems


class DailyTable1(Repeated):
    name = "daily-table1"
    why = ("run_daily_experiment on table1, penalty 1.0, reps=200, three policies: about 62% "
           "optimizer and 37% charging-mode simulator, so changes to either show here")
    penalty = 1.0
    reps = 200
    min_calls = 8

    def __init__(self, ev, seed):
        super().__init__(ev, seed)
        scenarios, run = ev.load_config(ev.config.bundled_config_path("table1"))
        self.scenarios = [ev.with_penalty(s, self.penalty) for s in scenarios]
        self.runs = [replace(run, seed=seed * self.distinct + k, reps=self.reps)
                     for k in range(self.distinct)]
        self.items_per_call = len(self.scenarios) * 3 * self.reps  # replications
        scratch = ROOT / ".perfbench_tmp"
        scratch.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="daily-", dir=scratch))

    def inputs(self, i):
        return self.runs[self.key(i)], self.workdir / f"call{i}"

    def call(self, inp):
        run, out_dir = inp
        return self.ev.run_daily_experiment(self.scenarios, run, out_dir=out_dir)

    def check(self, calls):
        oracles = {s.name: self.ev.brute_force_oracle(s.econ, s.station)[0] for s in self.scenarios}
        problems = []
        first = {}
        for c in calls:
            digest = output_digest(c.inp[1])
            first.setdefault(c.key, digest)
            problems.extend(
                (c.index, p) for p in check_daily_report(c.out, digest, first[c.key], oracles)
            )
        return problems

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


WORKLOADS = {w.name: w for w in (OptimizeRandom, LossAdmission, DailyTable1)}
# BENCHMARK.json gates loss-admission and daily-table1 only. optimize-random
# needs 100 calls of 0.07-1.1 s, and its p90 over seeds spread by 0.20-0.24
# on a shared 2-vCPU VM, too close to the largest bound (0.25) to gate on;
# collect.py still measures it on request.


# ---------------------------------------------------------------- measuring


@dataclass
class Call:
    index: int
    key: int
    inp: object
    seconds: float
    out: object = None
    error: str | None = None  # traceback of a call that raised


def measure(workload: Workload, seconds: float) -> list:
    """Closed loop: call after call until both the time and the minimum count are reached."""
    calls = []
    start = time.perf_counter()
    i = 0
    while i < workload.min_calls or time.perf_counter() - start < seconds:
        inp = workload.inputs(i)
        t = time.perf_counter()
        try:
            out = workload.call(inp)
        except Exception:
            calls.append(Call(i, workload.key(i), inp, time.perf_counter() - t,
                              error=traceback.format_exc()))
        else:
            calls.append(Call(i, workload.key(i), inp, time.perf_counter() - t, out))
        i += 1
    return calls


def best_seconds(calls: list) -> list:
    """Latency of each key: its fastest call, failed or not."""
    best: dict[int, float] = {}
    for c in calls:
        best[c.key] = min(best.get(c.key, math.inf), c.seconds)
    return list(best.values())


def import_evstation():
    """Import evstation from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "evstation" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no evstation sources under {src}")
    sys.path.insert(0, str(src))
    import evstation

    if Path(evstation.__file__).resolve().parent != (src / "evstation").resolve():
        raise SystemExit(f"perfbench: evstation imported from {evstation.__file__}, not {src}")
    return evstation


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
        "git_sha": git_sha(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def setup_probe(workload: str, seed: int) -> float:
    """setup_s of one fresh interpreter running this file with --setup-only."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated within the data."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def trace_metrics(tracer: Tracer, setup: dict, calls: list, loop_wall: float) -> dict:
    """Per-layer metrics of the timed loop, per call, plus the setup phase's config."""
    n_calls = len(calls)
    functions = tracer.by_function()
    layers = tracer.by_layer()
    values = {}
    for layer, names in REPORTED.items():
        for fn in names:
            n, self_s = functions.get(f"{layer}.{fn}", (0, 0.0))
            values[f"{layer}.{fn}.calls"] = n / n_calls
            values[f"{layer}.{fn}.self_s"] = self_s / n_calls
        values[f"{layer}.self_s"] = layers[layer] / n_calls
    evals = tracer.counts.get("evals", 0)
    points = functions.get("optimizer.optimize_joap", (0, 0.0))[0]
    values["optimizer.evals"] = evals / n_calls
    values["optimizer.evals_per_point"] = evals / points if points else 0.0
    values["optimizer.unstable_frac"] = tracer.counts.get("unstable", 0) / evals if evals else 0.0
    values["simulator.arrivals"] = tracer.counts.get("arrivals", 0) / n_calls
    values.update(setup["values"])
    for layer in LAYERS:
        values[f"{layer}.errors"] = tracer.errors.get(layer, 0) + setup["errors"].get(layer, 0)
    # The benchmark's own time, from its own timers rather than the tracer's.
    bench_s = loop_wall - sum(c.seconds for c in calls)
    values["bench.self_s"] = bench_s / n_calls
    values["trace.accounted_frac"] = (sum(layers.values()) + bench_s) / loop_wall
    values["trace.call_ms_p50"] = statistics.median(best_seconds(calls)) * 1e3
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_units().items()}


def end_to_end_metrics(workload: Workload, calls: list, setups: list) -> dict:
    best = best_seconds(calls)
    values = {
        "setup_s": statistics.median(setups),
        "call_ms_p50": statistics.median(best) * 1e3,
        "call_ms_p90": quantile(best, 90) * 1e3,
        "items_per_s": len(best) * workload.items_per_call / sum(best),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    ev = import_evstation()
    tracer = Tracer("evstation", LAYERS, OBSERVERS) if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = None
    try:
        workload = WORKLOADS[args.workload](ev, args.seed)
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        env = environment()
        setup = {}
        if tracer is not None:
            n_load, load_s = tracer.by_function().get("config.load_config", (0, 0.0))
            setup = {
                "values": {
                    "config.load_config.calls": n_load,
                    "config.load_config.self_s": load_s,
                    "config.self_s": tracer.by_layer()["config"],
                },
                "errors": dict(tracer.errors),
            }
            tracer.reset()
        loop_start = time.perf_counter()
        calls = measure(workload, args.seconds)
        loop_wall = time.perf_counter() - loop_start
        if tracer is not None:
            tracer.uninstall()
        problems = workload.check([c for c in calls if c.error is None])
    finally:
        if tracer is not None:
            tracer.uninstall()
        if workload is not None:
            workload.close()

    raised = [c for c in calls if c.error is not None]
    failed = {c.index for c in raised} | {i for i, _ in problems}
    failed_frac = len(failed) / len(calls)
    for c in raised[:3]:
        print(f"perfbench: call {c.index} raised\n{c.error}", file=sys.stderr)
    for i, problem in problems[:10]:
        print(f"perfbench: call {i} failed its check: {problem}", file=sys.stderr)

    if tracer is not None:
        metrics = trace_metrics(tracer, setup, calls, loop_wall)
    else:
        setups = [setup_s] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        metrics = end_to_end_metrics(workload, calls, setups)
    env["loadavg_end"] = os.getloadavg()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calls": len(calls),
        "inputs": len(best_seconds(calls)),
        "loop_wall_s": loop_wall,
        "failed_frac": {"value": failed_frac, "unit": "ratio"},
        "env": env,
    }
    print("report " + json.dumps(report, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:50s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':50s} {failed_frac:.6g} ratio "
          f"({len(failed)} of {len(calls)} calls)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

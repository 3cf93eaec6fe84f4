"""Repeat benchmark runs over seeds and summarise them.

    python3 perfbench/collect.py --runs 10 --traced-runs 2 --out perfbench/BENCH_0.json

Runs run.py on every workload (or those given) for seeds first-seed ..
first-seed + runs - 1 untraced, interleaving the workloads so that load on
the machine spreads over all of them, and the first traced-runs seeds once
more traced.
Prints, per workload and end-to-end metric, the median, the quartiles and
the spread (q3 - q1) / median beside the bound in BENCHMARK.json, the
tracing overhead (median over seeds of traced / untraced call_ms_p50 - 1,
each traced run made right after the untraced run of its seed), and the
metrics under the names used in ROADMAP.md:
optimize_ms_p50, optimize_ms_p90, loss_arrivals_per_s, daily_s, and setup_s,
peak_rss_mb and failed_frac per workload. With --out it also writes every
run's result and environment to a JSON file.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# ROADMAP name -> (workload, end-to-end metric, scale, unit)
NAMED = {
    "optimize_ms_p50": ("optimize-random", "call_ms_p50", 1.0, "ms"),
    "optimize_ms_p90": ("optimize-random", "call_ms_p90", 1.0, "ms"),
    "loss_arrivals_per_s": ("loss-admission", "items_per_s", 1.0, "1/s"),
    "daily_s": ("daily-table1", "call_ms_p50", 1e-3, "s"),
}


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    report = json.loads(next(line for line in lines if line.startswith("report "))[7:])
    return {"seed": seed, "report": report, "result": json.loads(lines[-1])}


def summarise(runs: list, bounds: dict) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        entry = {"unit": runs[0]["result"]["metrics"][name]["unit"], "median": median,
                 "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else 0.0)
        if name in bounds:
            entry["bound"] = bounds[name]
        out[name] = entry
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced-runs", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)

    plain = {w: [] for w in args.workloads}
    traced = {w: [] for w in args.workloads}
    for n, seed in enumerate(seeds):
        for w in args.workloads:
            plain[w].append(one_run(w, seed, args.seconds, 0))
            r = plain[w][-1]
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in r["result"]["metrics"].items()), flush=True)
            if n < args.traced_runs:  # right after its untraced twin, so the host is alike
                traced[w].append(one_run(w, seed, args.seconds, 1))

    record = {"command": spec["command"], "seconds": args.seconds, "seeds": list(seeds),
              "env": plain[args.workloads[0]][0]["report"]["env"], "workloads": {}}
    for w in args.workloads:
        attempted = sum(r["result"]["attempted"] for r in plain[w])
        failed = sum(r["result"]["failed"] for r in plain[w])
        entry = {"end_to_end": summarise(plain[w], bounds),
                 "failed_frac": {"value": failed / attempted, "unit": "ratio",
                                 "failed": failed, "attempted": attempted},
                 "runs": plain[w]}
        print(f"\n{w}: {failed} of {attempted} calls failed")
        for name, m in entry["end_to_end"].items():
            print(f"  {name:14s} median {m['median']:.6g} {m['unit']:5s} "
                  f"q1 {m.get('q1', m['median']):.6g} q3 {m.get('q3', m['median']):.6g} "
                  f"spread {m.get('spread', 0.0):.3f} bound {m.get('bound', '-')}")
        if traced[w]:
            entry["per_layer"] = summarise(traced[w], {})
            entry["tracing_overhead"] = statistics.median(
                t["result"]["metrics"]["trace.call_ms_p50"]["value"]
                / p["result"]["metrics"]["call_ms_p50"]["value"] - 1
                for t, p in zip(traced[w], plain[w])
            )
            entry["traced_runs"] = traced[w]
            print(f"  tracing overhead on call_ms_p50: {entry['tracing_overhead']:+.1%}")
        record["workloads"][w] = entry

    named = {}
    for alias, (w, metric, scale, unit) in NAMED.items():
        if w in record["workloads"]:
            m = record["workloads"][w]["end_to_end"][metric]
            named[alias] = {"value": m["median"] * scale, "unit": unit}
    for w, entry in record["workloads"].items():
        for metric in ("setup_s", "peak_rss_mb"):
            m = entry["end_to_end"][metric]
            named[f"{metric}[{w}]"] = {"value": m["median"], "unit": m["unit"]}
        named[f"failed_frac[{w}]"] = {"value": entry["failed_frac"]["value"], "unit": "ratio"}
    record["named"] = named
    print()
    for alias, m in named.items():
        print(f"{alias:32s} {m['value']:.6g} {m['unit']}")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

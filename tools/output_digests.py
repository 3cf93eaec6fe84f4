"""Print one sha256 per output file and per stdout of the bundled CLI commands.

Usage, from the root of a checkout:

    python3 tools/output_digests.py [--src DIR] > digests.txt

Each command runs as `python3 -m evstation.cli ...` in a fresh process,
with `evstation` imported from DIR (default: the `src/` of the checkout
holding this script), and writes into its own temporary directory. Each
output line is `<sha256>  <command> :: <file or stdout>`, in a fixed order,
so two runs compare with one `diff`:

    python3 tools/output_digests.py --src ../old/src > old.txt
    python3 tools/output_digests.py > new.txt
    diff old.txt new.txt

A command that exits non-zero stops the run with its stderr.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

EXPERIMENTS = [
    ("daily", "table1", ["--penalty", "0.4"]),
    ("daily", "table1", ["--penalty", "1.0"]),
    ("daily", "fig4", []),
] + [(which, config, []) for which in ("admission", "wait", "tau") for config in ("table1", "fig4")]

COMMANDS = (
    [["experiment", which, "--config", config, *extra] for which, config, extra in EXPERIMENTS]
    + [
        ["optimize", "--config", "table1", "--scenario", str(k), *extra]
        for extra in ([], ["--optimize-tau"])
        for k in range(6)
    ]
    + [
        ["simulate", "--config", "table1", "--reps", "30", "--policy", policy, *extra]
        for extra in ([], ["--scenario", "5", "--penalty", "0.4"])
        for policy in ("joap", "qba", "greedy")
    ]
    + [
        ["analyze", "--config", "table1", "--n", "4", "--demand", "35"],
        ["oracle", "ctmc", "--n", "3", "--lam", "0.5", "--t-v", "2.0"],
        ["experiment", "wait", "--config", "fig4", "--reps", "5"],
    ]
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(argv: list, src: Path) -> list:
    """(name, sha256) of stdout and of every file one command writes."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if argv[0] == "experiment":
            argv = [*argv, "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, "-m", "evstation.cli", *argv], cwd=tmp, env=env, capture_output=True
        )
        if proc.returncode != 0:
            sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr.decode()}")
        files = sorted(out.iterdir()) if out.exists() else []
        return [("stdout", sha256(proc.stdout))] + [(f.name, sha256(f.read_bytes())) for f in files]


def lines(argv: list, src: Path) -> list:
    """One command's output lines, `<sha256>  <command> :: <file or stdout>`."""
    return [f"{digest}  {' '.join(argv)} :: {name}" for name, digest in digests(argv, src)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_src = Path(__file__).resolve().parent.parent / "src"
    parser.add_argument("--src", type=Path, default=default_src, help="directory holding evstation")
    src = parser.parse_args().src.resolve()
    if not (src / "evstation").is_dir():
        sys.exit(f"no evstation package under {src}")
    for argv in COMMANDS:
        print(*lines(argv, src), sep="\n", flush=True)


if __name__ == "__main__":
    main()

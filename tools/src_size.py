"""Print the size of the evstation package: lines per module, total, exports.

Usage, from the root of a checkout:

    python3 tools/src_size.py [--src DIR]

One line per `evstation/*.py` module under DIR (default: the `src/` of the
checkout holding this script), as `<lines> <module>` with lines counted as
`wc -l` counts them, then `<lines> total`, then `exports <k>`: the public
names `import evstation` binds that are not modules. Two checkouts compare
with one `diff`.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

# Run in a fresh interpreter, so the count is of DIR's package alone.
_COUNT_EXPORTS = (
    "import types, evstation; "
    "print(sum(not k.startswith('_') and not isinstance(v, types.ModuleType) "
    "for k, v in vars(evstation).items()))"
)


def module_lines(src: Path) -> list:
    """(module path relative to src, newline count) for each evstation module, by name."""
    return [
        (path.relative_to(src).as_posix(), path.read_bytes().count(b"\n"))
        for path in sorted((src / "evstation").glob("*.py"))
    ]


def exports(src: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_EXPORTS], env=env, capture_output=True, text=True, check=True
    )
    return int(proc.stdout)


def report(src: Path) -> list:
    """The tool's output lines for the package under src."""
    sizes = module_lines(src)
    return [f"{count:5d} {name}" for name, count in sizes] + [
        f"{sum(count for _, count in sizes):5d} total",
        f"exports {exports(src)}",
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_src = Path(__file__).resolve().parent.parent / "src"
    parser.add_argument("--src", type=Path, default=default_src, help="directory holding evstation")
    src = parser.parse_args().src.resolve()
    if not (src / "evstation").is_dir():
        sys.exit(f"no evstation package under {src}")
    print(*report(src), sep="\n")


if __name__ == "__main__":
    main()

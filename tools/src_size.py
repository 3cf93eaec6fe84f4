"""Print the size of the evstation package: lines per module, total, exports.

Usage, from the root of a checkout:

    python3 tools/src_size.py [--src DIR]

One line per `evstation/*.py` module under DIR (default: the `src/` of the
checkout holding this script), as `<lines> <code> <module>`, with lines
counted as `wc -l` counts them and code the lines that are neither blank,
nor only a comment, nor part of a docstring. Then `<lines> <code> total`,
then `exports <k>`: the public names `import evstation` binds that are not
modules. Two checkouts compare with one `diff`.
"""
from __future__ import annotations

import argparse
import ast
import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

# Run in a fresh interpreter, so the count is of DIR's package alone.
_COUNT_EXPORTS = (
    "import types, evstation; "
    "print(sum(not k.startswith('_') and not isinstance(v, types.ModuleType) "
    "for k, v in vars(evstation).items()))"
)


_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    """Lines of Python source text that hold a token of code outside every docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:  # a string spanning lines makes each of them code
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def module_lines(src: Path) -> list:
    """(module path relative to src, newline count, code lines) for each evstation module, by name."""
    return [
        (path.relative_to(src).as_posix(), path.read_bytes().count(b"\n"),
         code_lines(path.read_text(encoding="utf-8")))
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
    return [f"{count:5d} {code:5d} {name}" for name, count, code in sizes] + [
        f"{sum(count for _, count, _ in sizes):5d} {sum(code for *_, code in sizes):5d} total",
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

import argparse
import ast
import importlib.util
import re
import shlex
from pathlib import Path
from types import ModuleType

import evstation
from evstation.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_digests_line_format_and_stability():
    # The tool every bit-for-bit claim is checked with: one command's lines,
    # in the format its diffs compare, and the same digest from two runs.
    tool = load_tool("output_digests")
    argv = ["optimize", "--config", "table1", "--scenario", "0"]
    assert argv in tool.COMMANDS
    first = tool.lines(argv, ROOT / "src")
    assert first == tool.lines(argv, ROOT / "src")
    [line] = first  # optimize writes no file
    assert re.fullmatch(r"[0-9a-f]{64}  optimize --config table1 --scenario 0 :: stdout", line)


def test_output_digests_commands_parse():
    # A digest run starts one interpreter per command and is not in Tier-1;
    # this catches a CLI change that stops a command of it from parsing.
    parser = build_parser()
    for argv in load_tool("output_digests").COMMANDS:
        extra = ["--out", "out"] if argv[0] == "experiment" else []
        assert parser.parse_args([*argv, *extra]).func


def subcommands(parser):
    """The names a parser's subcommand argument accepts."""
    [action] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_output_digests_reach_every_command_and_runner():
    # A bit-for-bit check covers only the commands it runs: a new subcommand
    # or experiment runner must join COMMANDS, or this fails.
    commands = load_tool("output_digests").COMMANDS
    top = subcommands(build_parser())
    assert {argv[0] for argv in commands} == set(top)
    runners = {argv[1] for argv in commands if argv[0] == "experiment"}
    assert runners == set(subcommands(top["experiment"]))


def test_readme_cli_lines_parse():
    # README's CLI block is run by no other test; each of its commands must
    # still parse as written.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert lines and all(line.startswith("evstation ") for line in lines)
    parser = build_parser()
    for line in lines:
        assert parser.parse_args(shlex.split(line)[1:]).func


def code_lines(text):
    """Lines that are not blank, not only a comment and not in a docstring, counted line by line."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(
        k not in docstrings and line.strip() != "" and not line.lstrip().startswith("#")
        for k, line in enumerate(text.splitlines(), 1)
    )


def test_src_size_format_and_consistency():
    # One line per module with its lines and code lines, totals that are their
    # sums, and the export count of the evstation this suite imports (the same src/).
    *modules, total, exported = load_tool("src_size").report(ROOT / "src")
    files = sorted((ROOT / "src" / "evstation").glob("*.py"))
    assert len(modules) == len(files)
    counts = []
    for line, path in zip(modules, files):
        assert re.fullmatch(rf" *(\d+) +(\d+) evstation/{re.escape(path.name)}", line)
        counts.append([int(field) for field in line.split()[:2]])
        assert counts[-1] == [len(path.read_text().splitlines()), code_lines(path.read_text())]
    assert re.fullmatch(r" *\d+ +\d+ total", total)
    assert [int(field) for field in total.split()[:2]] == [sum(column) for column in zip(*counts)]
    bound = [v for k, v in vars(evstation).items() if not k.startswith("_")]
    assert exported == f"exports {sum(not isinstance(v, ModuleType) for v in bound)}"

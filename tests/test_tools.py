import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_output_digests():
    spec = importlib.util.spec_from_file_location(
        "output_digests", ROOT / "tools" / "output_digests.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_digests_line_format_and_stability():
    # The tool every bit-for-bit claim is checked with: one command's lines,
    # in the format its diffs compare, and the same digest from two runs.
    tool = load_output_digests()
    argv = ["optimize", "--config", "table1", "--scenario", "0"]
    assert argv in tool.COMMANDS
    first = tool.lines(argv, ROOT / "src")
    assert first == tool.lines(argv, ROOT / "src")
    [line] = first  # optimize writes no file
    assert re.fullmatch(r"[0-9a-f]{64}  optimize --config table1 --scenario 0 :: stdout", line)

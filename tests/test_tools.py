"""The measurement scripts under ``tools/`` run end to end on small grids."""

import importlib.util
import pathlib
import re

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_thread_breakeven_prints_the_lanes_for_each_size(capsys):
    assert _load("thread_breakeven").main(["21^3", "41^2", "--pairs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1 pairs of 60 steps; seconds as median (quartiles)"
    rows = [re.match(r"\s*(\d+\^\d) lanes: nodes\s+(\d+)\s+one ", line) for line in lines[1:]]
    assert [(m[1], int(m[2])) for m in rows] == [("21^3", 9261), ("41^2", 1681)]
    assert all(line.rstrip().endswith("x") for line in lines[1:])

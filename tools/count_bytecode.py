"""Count the bytecode that vlsym's serial search executes.

For each benchmark workload (the clean corpus, the swap bug and the colmax
bug, at the default bounds), load the program afresh, so that translating
its functions is counted too, and run one serial explore under
sys.settrace with opcode events on. Print the instructions executed, the
Python calls made (call events, generator resumptions included), the lines
of Python source that the explore's translations compile (its functions'
and its extents', counted in a second, untraced explore) and the search's
Stats. The counts depend on the Python version and on string hashing, so
run it with PYTHONHASHSEED=0 to compare two trees:

    PYTHONHASHSEED=0 python tools/count_bytecode.py

Standard library only; it imports vlsym from the repository's src directory.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vlsym import engine  # noqa: E402
from vlsym.ast import Program  # noqa: E402
from vlsym.corpus import CLEAN_FILES, COLMAX_FILES, SWAP_FILES, load_sources  # noqa: E402
from vlsym.engine import SearchConfig, explore  # noqa: E402
from vlsym.parser import load_program  # noqa: E402

WORKLOADS = (("clean", CLEAN_FILES), ("swap", SWAP_FILES), ("colmax", COLMAX_FILES))


def load(files) -> Program:
    program = load_program(load_sources(files))
    assert isinstance(program, Program), program
    return program


def count(files) -> tuple[int, int, object]:
    """Instructions and calls of one serial explore of a freshly loaded
    program, and its Stats."""
    program = load(files)
    counts = {"call": 0, "opcode": 0}

    def on_event(frame, event, arg):
        if event in counts:
            counts[event] += 1
        if event == "call":
            frame.f_trace_opcodes = True
        return on_event

    sys.settrace(on_event)
    try:
        result = explore(program, SearchConfig())
    finally:
        sys.settrace(None)
    return counts["opcode"], counts["call"], result.stats


def generated_lines(files) -> int:
    """The lines that engine._compile is handed in one serial explore of a
    freshly loaded program."""
    program = load(files)
    lines = 0
    real_compile = engine._compile

    def compile_(source, filename, consts):
        nonlocal lines
        lines += len(source)
        return real_compile(source, filename, consts)

    engine._compile = compile_
    try:
        explore(program, SearchConfig())
    finally:
        engine._compile = real_compile
    return lines


def main() -> None:
    print(f"Python {sys.version.split()[0]}")
    for name, files in WORKLOADS:
        instructions, calls, stats = count(files)
        lines = generated_lines(files)
        print(f"{name:7} {instructions:>12,} instructions {calls:>9,} calls {lines:>5} lines  {stats}")


if __name__ == "__main__":
    main()

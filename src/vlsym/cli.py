"""Command line front end.

    vlsym verify [options] driver.vl kernel.vl ...
    vlsym replay --trail path.trail [options] driver.vl kernel.vl ...
    vlsym run [options] driver.vl kernel.vl ...
    vlsym corpus-dir

Integer inputs can be overridden with -input<NAME>=<value> anywhere on
the command line, e.g. `vlsym verify -inputM_B=4 driver.vl ...`.

Exit codes: 0 clean, 1 usage or load failure, 2 violations found.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from pathlib import Path

from . import ast, engine, report
from .engine import SearchConfig, TrailFormatError, TrailMismatch
from .parser import load_program

_INPUT_RE = re.compile(r"^-input([A-Za-z_][A-Za-z0-9_]*)=(.*)$")


class UsageError(Exception):
    pass


def extract_overrides(argv: list[str]) -> tuple[dict[str, int], list[str]]:
    overrides: dict[str, int] = {}
    rest = []
    for arg in argv:
        m = _INPUT_RE.match(arg)
        if m is None:
            rest.append(arg)
            continue
        name, value = m.groups()
        try:
            overrides[name] = int(value, 10)
        except ValueError:
            raise UsageError(f"-input{name} needs an integer value, got {value!r}") from None
    return overrides, rest


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("files", nargs="+", help="VL source files, linked in order")
    p.add_argument("--budget", type=int, default=engine.DEFAULT_BUDGET,
                   help="max points enumerated per satisfiability check")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for solver sampling and random runs")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="vlsym", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="explore every execution and report violations")
    _add_common(v)
    v.add_argument("--workers", type=int, default=1,
                   help="search in this many forked processes, over a frontier "
                        "of live paths (1 = in this process)")
    v.add_argument("--max-depth", type=int, default=0,
                   help="abandon paths after this many decisions (0 = unlimited)")
    v.add_argument("--first", action="store_true",
                   help="stop at the first violation instead of collecting all")
    v.add_argument("--emit-trails", metavar="DIR",
                   help="write each violation's decision trail into DIR")

    r = sub.add_parser("replay", help="re-execute one recorded path symbolically")
    _add_common(r)
    r.add_argument("--trail", required=True, help="trail file to follow")

    g = sub.add_parser("run", help="execute one path with concrete random values")
    _add_common(g)
    g.add_argument("--trail", help="follow this trail instead of random choices")

    sub.add_parser("corpus-dir", help="print the directory holding the bundled corpus")
    return p


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _load(paths: list[str]) -> tuple[ast.Program, dict[str, str]]:
    files = [(path, _read(path)) for path in paths]
    result = load_program(files)
    if not isinstance(result, ast.Program):
        raise UsageError("\n".join(d.render() for d in result))
    return result, dict(files)


def _read_trail(path: str) -> list[engine.Decision]:
    return engine.parse_trail(_read(path))


def _emit_trails(directory: str, violations) -> None:
    """Write each violation's trail into directory, which is made if it is
    not there; with no violations, only make it."""
    out = Path(directory)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for i, v in enumerate(violations):
            (out / f"violation-{i:04d}.trail").write_text(
                engine.render_trail(v.trail), encoding="utf-8"
            )
    except OSError as exc:
        raise UsageError(f"cannot write trails to {directory}: {exc.strerror}") from None


def _config(args, overrides, **search) -> SearchConfig:
    """The search settings of a command, refused when out of range."""
    if args.budget < 1:
        raise UsageError(f"--budget must be at least 1, got {args.budget}")
    return SearchConfig(budget=args.budget, seed=args.seed, overrides=overrides, **search)


def cmd_verify(args, overrides) -> int:
    if args.max_depth < 0:
        raise UsageError(f"--max-depth must be 0 (unlimited) or more, got {args.max_depth}")
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")
    cfg = _config(
        args, overrides, max_depth=args.max_depth, first_only=args.first, workers=args.workers
    )
    program, sources = _load(args.files)
    if args.emit_trails:
        _emit_trails(args.emit_trails, ())  # fail before the search, not after it
    started = time.monotonic()
    result = engine.explore(program, cfg)
    elapsed = time.monotonic() - started
    sys.stdout.write(
        report.render_report(args.files, result.inputs_desc, elapsed, result, sources)
    )
    if args.emit_trails:
        _emit_trails(args.emit_trails, result.violations)
    for i, v in enumerate(result.violations):
        print(report.violation_summary(i, v), file=sys.stderr)
    return 2 if result.violations else 0


def cmd_replay(args, overrides) -> int:
    cfg = _config(args, overrides)
    program, sources = _load(args.files)
    trail = _read_trail(args.trail)
    outcome = engine.replay(program, cfg, trail)
    return _report_path(outcome, sources)


def cmd_run(args, overrides) -> int:
    cfg = _config(args, overrides)
    program, sources = _load(args.files)
    trail = _read_trail(args.trail) if args.trail else None
    outcome = engine.run_path(program, cfg, trail=trail)
    return _report_path(outcome, sources)


def _report_path(outcome, sources) -> int:
    for line in outcome.prints:
        print(line)
    if outcome.violations:
        for i, v in enumerate(outcome.violations):
            print(file=sys.stderr)
            print(report.render_violation(i, v, sources), file=sys.stderr)
        return 2
    if outcome.state is None:
        print("the path was infeasible and was abandoned", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str]) -> int:
    try:
        overrides, rest = extract_overrides(argv)
        args = build_parser().parse_args(rest)
        if args.command == "corpus-dir":
            from .corpus import corpus_dir

            print(corpus_dir())
            return 0
        handler = {"verify": cmd_verify, "replay": cmd_replay, "run": cmd_run}[args.command]
        return handler(args, overrides)
    except UsageError as exc:
        print(f"vlsym: {exc}", file=sys.stderr)
        return 1
    except (TrailFormatError, TrailMismatch) as exc:
        print(f"vlsym: trail: {exc}", file=sys.stderr)
        return 1
    except (engine.EngineInitError, engine.WorkerFailed) as exc:
        print(f"vlsym: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()

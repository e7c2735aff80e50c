"""In-process traced run of `vlsym verify`, for the per-layer split.

bench/run.py starts this in a fresh process, with src/ on PYTHONPATH and
the corpus directory as the working directory:

    python3 bench/trace.py --seed N --report FILE --spans FILE verify ARGS...

It wraps the public functions of each vlsym layer, drives vlsym.cli.main
with `verify ARGS` (the report goes to --report), and prints "done" the
moment main returns, so the parent can time the run from outside. It then
removes the wrappers, re-executes a seeded sample of PROVEABLE violations
with their witness values through engine.run_path, and prints one JSON
object with the per-layer figures and the witness results.

Spans are timed with time.thread_time, the CPU time of the thread that
runs them. Each thread keeps its own span stack, so with several search
threads a span is never closed by another thread, and time a thread spends
waiting for the interpreter lock is charged to no layer. Coarse spans
(load, validate, init, explore, each solver call, report) are kept as
records and written to --spans; hot ones (Poly ops, make_int, int_poly,
state clones) are folded into per-thread counts and times, so memory
stays bounded. A layer's self time is its span time minus the time of the
spans it opened.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
import traceback
from collections import Counter
from fractions import Fraction
from random import Random

from vlsym import ast, cli, engine, parser, report, solver, values
from vlsym.values import SymKind

WITNESS_SAMPLE = 20
FRACTION_NEW = "values.fraction_new"
POLY_OPS = ("const", "symbol", "__add__", "__sub__", "__neg__", "__mul__", "scale", "div",
            "substitute", "eval")


class _Thread:
    """One thread's open spans and folded totals; only that thread writes it."""

    __slots__ = ("index", "stack", "names", "totals")

    def __init__(self, index: int):
        self.index = index
        self.stack: list[float] = []  # CPU time of the children of each open span
        self.names: list[str] = []  # names of the open coarse spans
        self.totals: dict[str, list] = {}  # name -> [calls, self_s, total_s]


def _fold(t: _Thread, name: str, took: float, child: float) -> None:
    tot = t.totals.get(name)
    if tot is None:
        tot = t.totals[name] = [0, 0.0, 0.0]
    tot[0] += 1
    tot[1] += took - child
    tot[2] += took


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[_Thread] = []
        self._undo: list[tuple[object, str, object]] = []
        self.wall0 = time.perf_counter()
        self.spans: list[dict] = []
        self.solver: Counter = Counter()
        self.missing: list[str] = []
        self.explored = None  # (program, config, result) of the last engine.explore

    def _thread(self) -> _Thread:
        try:
            return self._local.t
        except AttributeError:
            with self._lock:
                t = _Thread(len(self.threads))
                self.threads.append(t)
            self._local.t = t
            return t

    def _hot(self, name, fn):
        thread, clock = self._thread, time.thread_time

        def wrapper(*args, **kwargs):
            t = thread()
            stack = t.stack
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += took
                _fold(t, name, took, child)

        return wrapper

    def _coarse(self, name, fn, after=None):
        thread, clock, wall = self._thread, time.thread_time, time.perf_counter

        def wrapper(*args, **kwargs):
            t = thread()
            parent = t.names[-1] if t.names else None
            t.names.append(name)
            t.stack.append(0.0)
            wall_start, start = wall(), clock()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                took, wall_end = clock() - start, wall()
                child = t.stack.pop()
                t.names.pop()
                if t.stack:
                    t.stack[-1] += took
                _fold(t, name, took, child)
                with self._lock:
                    self.spans.append({
                        "name": name,
                        "thread": t.index,
                        "parent": parent,
                        "start_s": wall_start - self.wall0,
                        "end_s": wall_end - self.wall0,
                        "cpu_s": took,
                    })
                    if after is not None:
                        after(args, result, error)

        return wrapper

    def _count(self, name, fn):
        thread = self._thread

        def wrapper(*args, **kwargs):
            _fold(thread(), name, 0.0, 0.0)
            return fn(*args, **kwargs)

        return wrapper

    def _make(self, kind, name, fn, after):
        if kind == "coarse":
            return self._coarse(name, fn, after)
        return self._count(name, fn) if kind == "count" else self._hot(name, fn)

    def patch_function(self, module, attr, name, kind="hot", after=None, everywhere=True):
        """Wrap module.attr, and every other vlsym module's binding of the same
        object (e.g. `from .solver import pc_sat` in the engine)."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = self._make(kind, name, fn, after)
        owners = [module]
        if everywhere:
            owners = [m for n, m in list(sys.modules.items()) if n.startswith("vlsym")]
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is fn:
                    setattr(owner, key, wrapper)
                    self._undo.append((owner, key, fn))

    def patch_method(self, cls, attr, name, kind="hot", after=None):
        raw = cls.__dict__.get(attr)
        if raw is None:
            self.missing.append(f"{cls.__module__}.{cls.__qualname__}.{attr}")
            return
        if isinstance(raw, classmethod):
            new = classmethod(self._make(kind, name, raw.__func__, after))
        else:
            new = self._make(kind, name, raw, after)
        setattr(cls, attr, new)
        self._undo.append((cls, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def totals(self) -> dict[str, list]:
        merged: dict[str, list] = {}
        for t in self.threads:
            for name, (calls, self_s, total_s) in t.totals.items():
                m = merged.setdefault(name, [0, 0.0, 0.0])
                m[0] += calls
                m[1] += self_s
                m[2] += total_s
        return merged

    # --- observers, called under the lock ---

    def _on_solver(self, args, result, error) -> None:
        pc = args[0]
        real = any(a.kind is SymKind.REAL for a in pc.atoms)
        self.solver["real_calls" if real else "int_calls"] += 1
        self.solver["raised" if error is not None else result.status.value] += 1

    def _on_explore(self, args, result, error) -> None:
        if error is None:
            self.explored = (args[0], args[1], result)


def install(tracer: Tracer) -> None:
    tracer.patch_function(parser, "load_program", "parser.load", "coarse")
    tracer.patch_function(ast, "validate", "ast.validate", "coarse")
    tracer.patch_method(engine.Engine, "init_state", "engine.init", "coarse")
    # explore runs the serial search itself; with workers, each worker
    # thread runs _Executor.dfs, which is the explore span on that thread
    tracer.patch_function(engine, "explore", "engine.explore", "coarse", tracer._on_explore)
    tracer.patch_method(engine._Executor, "dfs", "engine.explore", "coarse")
    tracer.patch_method(engine.ExecState, "clone", "engine.clone")
    tracer.patch_function(solver, "pc_sat", "solver.pc_sat", "coarse", tracer._on_solver)
    tracer.patch_function(report, "render_report", "report.render", "coarse")
    for op in POLY_OPS:
        tracer.patch_method(values.Poly, op, f"values.Poly.{op}")
    tracer.patch_function(values, "make_int", "values.make_int")
    tracer.patch_function(values, "int_poly", "values.int_poly")
    tracer.patch_function(values, "Fraction", FRACTION_NEW, "count", everywhere=False)


def layer_metrics(totals: dict, solver: Counter) -> dict:
    def get(name, i):
        return totals.get(name, (0, 0.0, 0.0))[i]

    value_ops = [n for n in totals if n.startswith("values.") and n != FRACTION_NEW]
    out = {
        "parser.load_s": get("parser.load", 2),
        "ast.validate_calls": get("ast.validate", 0),
        "engine.self_s": get("engine.explore", 1),
        "engine.clone_calls": get("engine.clone", 0),
        "engine.clone_s": get("engine.clone", 2),
        "values.poly_calls": sum(totals[n][0] for n in value_ops),
        "values.poly_self_s": sum(totals[n][1] for n in value_ops),
        "values.poly_const_calls": get("values.Poly.const", 0),
        "values.fraction_new": get(FRACTION_NEW, 0),
        "solver.calls": get("solver.pc_sat", 0),
        "solver.s": get("solver.pc_sat", 2),
        "report.render_s": get("report.render", 2),
    }
    for key in ("sat", "unsat", "unknown", "raised", "int_calls", "real_calls"):
        out[f"solver.{key}"] = solver[key]
    return out


def _real_cells(program, config) -> dict:
    """The symbol of every cell of every real input array, by input name."""
    state = engine.Engine(program, config).init_state()
    cells = {}
    for decl in program.inputs:
        ref = state.lookup(decl.name)
        if isinstance(ref, engine.ArrayRef):
            cells[decl.name] = [next(iter(c.poly.symbols())) for c in state.heap[ref.addr].cells]
    return cells


def check_witnesses(explored, seed: int) -> tuple[int, list[str]]:
    """Re-execute a seeded sample of PROVEABLE violations concretely, with
    the witness as the real inputs and the trail as the path; each must hit
    the same property at the same location."""
    if explored is None:
        return 0, ["engine.explore was not observed"]
    program, config, result = explored
    proveable = [v for v in result.violations if v.certainty is engine.Certainty.PROVEABLE]
    sample = Random(seed).sample(proveable, min(WITNESS_SAMPLE, len(proveable)))
    cells = _real_cells(program, config) if sample else {}
    failures = []
    for v in sample:
        reals = {
            name: [Fraction(v.witness.get(sym, 0)) for sym in syms] for name, syms in cells.items()
        }
        where = f"{v.prop.value} at {v.loc.render()}"
        try:
            outcome = engine.run_path(program, config, trail=list(v.trail), reals=reals)
        except Exception:
            failures.append(f"{where}: {traceback.format_exc(limit=3)}")
            continue
        if outcome.state is not None or not any(
            w.prop is v.prop and w.loc == v.loc for w in outcome.violations
        ):
            failures.append(f"{where}: not reproduced by its witness")
    return len(sample), failures


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--report", required=True, help="file that receives the report")
    p.add_argument("--spans", required=True, help="file that receives the spans")
    p.add_argument("vlsym_argv", nargs=argparse.REMAINDER)
    args = p.parse_args(argv)

    tracer = Tracer()
    install(tracer)
    stdout = sys.stdout
    try:
        with open(args.report, "w") as out:
            sys.stdout = out
            rc = cli.main(args.vlsym_argv)
    finally:
        sys.stdout = stdout
        tracer.uninstall()
    print("done", flush=True)

    totals = tracer.totals()
    with open(args.spans, "w") as f:
        json.dump({
            "threads": len(tracer.threads),
            "totals": {n: dict(zip(("calls", "self_s", "total_s"), v)) for n, v in totals.items()},
            "spans": tracer.spans,
        }, f)
    checked, failures = check_witnesses(tracer.explored, args.seed)
    print(json.dumps({
        "rc": rc,
        "layers": layer_metrics(totals, tracer.solver),
        "missing": tracer.missing,
        "witness_checked": checked,
        "witness_failures": failures,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

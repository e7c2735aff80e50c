"""Time to verdict of `vlsym verify` on fixed workloads from the bundled corpus.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: vlsym is imported from src/ and
nothing is built. NAME is a workload of bench/workloads.py, or `all` to
run each in turn.

Each workload runs as a `vlsym verify` child process, closed loop: one run
at a time, the next starting when the previous one has exited, with the
report sent to a file under .bench_run/. Runs repeat until the next one
would end past S seconds, and there is at least one. The seed goes to
vlsym as --seed; verdicts must not depend on it. A run fails if its exit
code, verdict marks, terminal paths or violation counts disagree with the
workload's oracle, or its counters or report digest disagree with the
first run of this invocation.

--trace 0 reports the end-to-end metrics:
  wall_s       launch to exit of one verify process (median over the runs)
  setup_s      launch of a fresh process until Engine.init_state returns
               (median of SETUP_PROBES probes, half before the runs and half
               after; see bench/setup_probe.py)
  peak_rss_mb  peak resident memory of the verify process, from os.wait4
Each time is taken to reference host speed with a probe process that
runs beside the workload (bench/speed.py), because on a shared host the
raw times spread by a quarter from minute to minute. The raw times are
printed as well.
--trace 1 reports the per-layer metrics: the same runs, then one traced
in-process run (bench/trace.py) that also spot-checks witnesses.

Lines before the last describe the machine, the workload and every metric
with its unit, fail_share included. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics, whose names
and units are those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

from speed import REF_BURST_S, SpeedProbe
from workloads import WORKLOADS, Outcome, Workload, check, parse_report

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CORPUS = SRC / "vlsym" / "corpus"
OUT = ROOT / ".bench_run"
RECORDED = BENCH / "recorded.json"
SETUP_PROBES = 20
# One workload's invocation must end within 180 s; leave room to report.
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Run:
    rc: int
    start: float
    wall_s: float  # as measured; bench() takes it to reference speed
    cpu_s: float
    rss_mb: float
    outcome: Outcome


class Ledger:
    """Checks every run of one workload and counts the ones that fail."""

    def __init__(self, w: Workload):
        self.w = w
        self.attempted = 0
        self.problems: list[str] = []
        self.reference = None

    def record(self, label: str, rc: int, outcome: Outcome, extra=()) -> None:
        self.attempted += 1
        problems = check(self.w, rc, outcome) + list(extra)
        fingerprint = outcome.fingerprint(rc)
        if self.reference is None:
            self.reference = fingerprint
        elif fingerprint != self.reference:
            problems.append("counters or report digest differ from the first run")
        if problems:
            self.problems.append(f"{label}: " + "; ".join(problems))

    @property
    def failed(self) -> int:
        return len(self.problems)


@contextmanager
def child(args: list[str], deadline: float, stdout, stderr):
    """A Python child process in the corpus directory with src/ on its path;
    killed if it is still running at the deadline, and always reaped."""
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=CORPUS,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=stdout,
        stderr=stderr,
    )
    expired = threading.Event()

    def kill():
        expired.set()
        proc.kill()

    timer = threading.Timer(max(0.0, deadline - perf_counter()), kill)
    timer.start()
    try:
        yield proc
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
    if expired.is_set():
        raise BenchError(f"{' '.join(args[:2])} was still running at the time limit")


def verify_argv(w: Workload, seed: int) -> list[str]:
    return ["verify", *w.argv, "--seed", str(seed)]


def verify_once(w: Workload, seed: int, deadline: float) -> Run:
    report = OUT / f"{w.name}.out"
    with open(report, "wb") as out, open(OUT / f"{w.name}.err", "wb") as err:
        start = perf_counter()
        with child(["-m", "vlsym.cli", *verify_argv(w, seed)], deadline, out, err) as proc:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(
        rc=proc.returncode,
        start=start,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        outcome=parse_report(report.read_bytes()),
    )


def setup_once(w: Workload, seed: int, deadline: float) -> tuple[float, float]:
    """Start and duration of one set-up probe."""
    log = OUT / f"{w.name}.setup.err"
    with open(log, "wb") as err:
        start = perf_counter()
        probe = [str(BENCH / "setup_probe.py"), *verify_argv(w, seed)]
        with child(probe, deadline, subprocess.PIPE, err) as proc:
            line = proc.stdout.readline()
            took = perf_counter() - start
            proc.communicate()
    if line != b"ready\n":
        raise BenchError(f"{w.name}: set-up probe exited {proc.returncode}; see {log}")
    return start, took


def traced_once(w: Workload, seed: int, deadline: float) -> tuple[float, float, dict, Outcome]:
    report, spans, log = (OUT / f"{w.name}.{ext}" for ext in ("trace.out", "spans.json", "trace.err"))
    with open(log, "wb") as err:
        start = perf_counter()
        tracer = [str(BENCH / "trace.py"), "--seed", str(seed), "--report", str(report),
                  "--spans", str(spans), *verify_argv(w, seed)]
        with child(tracer, deadline, subprocess.PIPE, err) as proc:
            line = proc.stdout.readline()
            wall = perf_counter() - start
            rest, _ = proc.communicate()
    if line != b"done\n" or proc.returncode != 0:
        raise BenchError(f"{w.name}: traced run exited {proc.returncode}; see {log}")
    return start, wall, json.loads(rest), parse_report(report.read_bytes())


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_at_start": os.getloadavg(),
    }


def bench(w: Workload, seed: int, seconds: float, trace: bool, why: str, units: dict) -> dict:
    deadline = perf_counter() + TIME_LIMIT_S
    host = machine()
    if w.workers > host["nproc"]:
        raise BenchError(f"{w.name} uses --workers {w.workers} but nproc is {host['nproc']}")
    print(f"machine: {json.dumps(host)}")
    print(f"workload: {w.name}: {why}")
    print(f"command: vlsym {' '.join(verify_argv(w, seed))}")
    OUT.mkdir(exist_ok=True)

    setup_once(w, seed, deadline)  # compiles bytecode once, as an install would
    ledger = Ledger(w)
    runs: list[Run] = []
    with SpeedProbe(OUT / f"{w.name}.speed.txt") as speed:
        # half the set-up probes before the runs and half after, so that
        # their median spans the same stretch of time as the runs
        probes = 0 if trace else SETUP_PROBES // 2
        setups = [setup_once(w, seed, deadline) for _ in range(probes)]
        started = perf_counter()
        while True:
            run = verify_once(w, seed, deadline)
            runs.append(run)
            ledger.record(f"run {len(runs)}", run.rc, run.outcome)
            if perf_counter() - started + median(r.wall_s for r in runs) > seconds:
                break
        setups += [setup_once(w, seed, deadline) for _ in range(probes)]
        traced = traced_once(w, seed, deadline) if trace else None

    def at_ref(start: float, took: float) -> float:
        return took * speed.scale(start, start + took)

    walls = [at_ref(r.start, r.wall_s) for r in runs]
    wall = median(walls)
    first = runs[0].outcome
    notes = {"wall_s": _spread(walls)}
    print(f"runs: wall_s as measured {json.dumps([r.wall_s for r in runs])}")
    bursts = [d for _, d in speed.samples]
    print(f"host speed: {len(bursts)} bursts, median {median(bursts) * 1e3:.3f} ms, "
          f"reference {REF_BURST_S * 1e3:g} ms")
    if traced is None:
        setup_times = [at_ref(start, took) for start, took in setups]
        metrics = {
            "wall_s": wall,
            "setup_s": median(setup_times),
            "peak_rss_mb": median(r.rss_mb for r in runs),
        }
        notes["setup_s"] = _spread(setup_times)
        notes["peak_rss_mb"] = _spread(r.rss_mb for r in runs)
    else:
        traced_start, traced_wall, result, outcome = traced
        failures = result["witness_failures"]
        ledger.record("traced run", result["rc"], outcome, failures)
        if result["missing"]:
            print(f"warning: not traced: {', '.join(result['missing'])}", file=sys.stderr)
        metrics = {
            **result["layers"],
            **{f"engine.{k}": v for k, v in outcome.counters.items()},
            "engine.states_per_s": first.counters.get("states", 0) / wall,
            "engine.cpu_per_wall": median(r.cpu_s / r.wall_s for r in runs),
            "solver.witness_checked": result["witness_checked"],
            "solver.witness_failed": len(failures),
            "report.bytes": outcome.masked_bytes,
            "report.violations": sum(outcome.violations.values()),
            "trace.overhead": at_ref(traced_start, traced_wall) / wall,
        }
        notes["trace.overhead"] = f"traced run {traced_wall:.6g} s as measured"

    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    record = {"counters": first.counters, "report_sha256": first.digest}
    print(f"record: {json.dumps(record)}")
    recorded = json.loads(RECORDED.read_text()).get(w.name)
    print(f"record {'matches' if recorded == record else 'differs from'} {RECORDED.relative_to(ROOT)}")
    for problem in ledger.problems:
        print(f"FAILED {problem}")
    for name, unit in units.items():
        value = metrics[name]
        shown = f"{value:<14}" if isinstance(value, int) else f"{value:<14.6g}"
        print(f"  {name:26} {shown} {unit:6} {notes.get(name, '')}")
    print(f"  {'fail_share':26} {ledger.failed / ledger.attempted:<14.6g} {'share':6} "
          f"{ledger.failed} of {ledger.attempted} runs")
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def _spread(values) -> str:
    values = sorted(values)
    return f"median of {len(values)}, min {values[0]:.6g}, max {values[-1]:.6g}"


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        if not (SRC / "vlsym" / "cli.py").is_file():
            raise BenchError(f"no vlsym sources under {SRC}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        whys = {w["name"]: w["why"] for w in spec["workloads"]}
        kind = "per_layer" if args.trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in spec[kind]}
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            result = bench(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                           whys[name], units)
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

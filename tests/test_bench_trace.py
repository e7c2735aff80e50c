"""bench/trace.py wraps vlsym functions and methods by name, so renaming one
of them must fail a test, not only the benchmark's smoke run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# loads bench/trace.py by path, installs its wrappers, runs a few Poly
# operators through them and prints what the tracer missed and what it saw
_CHILD = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("bench_trace", sys.argv[1])
trace = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trace)
tracer = trace.Tracer()
trace.install(tracer)
from vlsym.values import Poly, SymConst, SymKind
x = Poly.symbol(SymConst("A", 0, SymKind.REAL, 0))
(x * x + x - x).scale(2)
print(json.dumps({"missing": tracer.missing, "traced": sorted(tracer.totals())}))
"""


def test_every_name_the_tracer_patches_exists():
    # a child process, so that the wrappers never reach another test
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(ROOT / "bench" / "trace.py")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["missing"] == []
    ops = ("symbol", "__mul__", "__add__", "__sub__", "scale")
    assert {f"values.Poly.{op}" for op in ops} <= set(out["traced"])

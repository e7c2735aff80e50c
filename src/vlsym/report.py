"""Plain-text reports for verification runs.

The report depends only on what was verified and what was found, never
on how the work was scheduled, so runs with the same inputs produce
identical text up to the time statistic.
"""

from __future__ import annotations

from .engine import Certainty, Property, SearchResult, Violation

CATEGORY_ROWS = (
    ("Assertion violations", Property.ASSERTION_VIOLATION),
    ("Out of bounds accesses", Property.OUT_OF_BOUNDS),
    ("Division by zero", Property.DIVISION_BY_ZERO),
    ("Reads of undefined values", Property.READ_UNDEFINED),
    ("Writes to input variables", Property.WRITE_TO_INPUT),
)

ABSENCE_LEGEND = "All errors marked with '+' are absent on all executions."


def _witness_text(v: Violation) -> str:
    if v.witness is None:
        return "(none)"
    if not v.witness:
        # a condition without atoms: the path fails whatever the inputs are
        return "(any input)"
    items = sorted(v.witness.items(), key=lambda kv: kv[0].ord)
    return ", ".join(f"{sym.render()} = {value}" for sym, value in items)


def _snippet(v: Violation, sources: dict[str, str]) -> str:
    text = sources.get(v.loc.file)
    if text is None:
        return v.loc.render()
    lines = text.splitlines()
    if not 1 <= v.loc.line <= len(lines):
        return v.loc.render()
    return f"{v.loc.render()} | {lines[v.loc.line - 1].strip()}"


def render_violation(index: int, v: Violation, sources: dict[str, str]) -> str:
    out = [
        f"Violation {index} encountered at depth {v.depth}:",
        f"(property: {v.prop.value}, certainty: {v.certainty.value}) at",
        _snippet(v, sources),
        f"cause: {v.message}",
    ]
    if v.prop is not Property.ENUM_BUDGET:
        out.append(f"witness: {_witness_text(v)}")
    if v.detail:
        for name, rendered in v.detail:
            out.append(f"{name}: {rendered}")
    if v.trail:
        out.append("trail:")
        out.extend(f"  {d.render()}" for d in v.trail)
    return "\n".join(out)


def violation_summary(index: int, v: Violation) -> str:
    return f"violation {index}: {v.prop.value} ({v.certainty.value}) at {v.loc.render()}"


def render_report(
    files: list[str],
    inputs: list[str],
    elapsed: float,
    result: SearchResult,
    sources: dict[str, str],
) -> str:
    found = {v.prop for v in result.violations}
    out = ["=== Source files ==="]
    out.extend(files)
    out.append("")
    out.append("=== Inputs ===")
    out.extend(inputs)
    out.append("")
    out.append("=== Stats ===")
    out.append(f"time (s)        : {elapsed:.2f}")
    out.append(f"states explored : {result.stats.states}")
    out.append(f"terminal paths  : {result.stats.terminals}")
    out.append(f"pruned branches : {result.stats.pruned}")
    out.append(f"solver calls    : {result.stats.solver_calls}")
    out.append("")
    out.append("=== Result ===")
    out.append(ABSENCE_LEGEND)
    for label, prop in CATEGORY_ROWS:
        if prop in found:
            mark = "-"
        elif result.incomplete:
            mark = " "
        else:
            mark = "+"
        out.append(f" {mark} {label}")
    if result.incomplete:
        out.append("note: the search was cut short; unmarked categories were not fully checked.")
    if result.violations:
        out.append("")
        out.append("=== Violations ===")
        for i, v in enumerate(result.violations):
            out.append("")
            out.append(render_violation(i, v, sources))
    return "\n".join(out) + "\n"

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


def _witness_text(witness, texts: dict) -> str:
    """The text of a witness. texts keeps the text of each witness dict by
    its id while the violations that hold the dicts are being rendered:
    many violations share the witness of one solver answer."""
    if witness is None:
        return "(none)"
    text = texts.get(id(witness))
    if text is None:
        if not witness:
            # a condition without atoms: the path fails whatever the inputs are
            text = "(any input)"
        else:
            items = sorted(witness.items(), key=lambda kv: kv[0].ord)
            text = ", ".join(f"{sym.render()} = {value}" for sym, value in items)
        texts[id(witness)] = text
    return text


def _split(sources: dict[str, str]) -> dict[str, list[str]]:
    return {name: text.splitlines() for name, text in sources.items()}


def _snippet(v: Violation, lines: dict[str, list[str]]) -> str:
    file_lines = lines.get(v.loc.file)
    if file_lines is None or not 1 <= v.loc.line <= len(file_lines):
        return v.loc.render()
    return f"{v.loc.render()} | {file_lines[v.loc.line - 1].strip()}"


def render_violation(index: int, v: Violation, sources: dict[str, str]) -> str:
    """One violation as the report shows it; sources maps each file to
    its text."""
    return _render_violation(index, v, _split(sources), {})


def _render_violation(index: int, v: Violation, lines: dict[str, list[str]], texts: dict) -> str:
    """One violation as the report shows it. texts keeps, while one report
    is built, the text of each witness dict and each trail step by the id
    of its object, and of each header by its property, certainty, location
    object and cause: forks hand the same decision objects to every path
    below them, and one statement's findings share a header."""
    key = (id(v.prop), id(v.certainty), id(v.loc), v.message)
    head = texts.get(key)
    if head is None:
        head = texts[key] = (
            f"(property: {v.prop.value}, certainty: {v.certainty.value}) at\n"
            f"{_snippet(v, lines)}\ncause: {v.message}"
        )
    out = [f"Violation {index} encountered at depth {v.depth}:", head]
    if v.prop is not Property.ENUM_BUDGET:
        out.append(f"witness: {_witness_text(v.witness, texts)}")
    if v.detail:
        for name, rendered in v.detail:
            out.append(f"{name}: {rendered}")
    if v.trail:
        out.append("trail:")
        for d in v.trail:
            step = texts.get(id(d))
            if step is None:
                step = texts[id(d)] = f"  {d.render()}"
            out.append(step)
    return "\n".join(out)


def violation_summary(index: int, v: Violation, tails: dict | None = None) -> str:
    """One violation's summary line. tails, if given, keeps the text after
    the index for each property, certainty and location object while one
    run's summaries are written."""
    if tails is None:
        tails = {}
    key = (id(v.prop), id(v.certainty), id(v.loc))
    tail = tails.get(key)
    if tail is None:
        tail = tails[key] = f": {v.prop.value} ({v.certainty.value}) at {v.loc.render()}"
    return f"violation {index}{tail}"


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
        lines, texts = _split(sources), {}
        for i, v in enumerate(result.violations):
            out.append("")
            out.append(_render_violation(i, v, lines, texts))
    return "\n".join(out) + "\n"

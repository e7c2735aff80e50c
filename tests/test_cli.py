"""Command line behavior: exit codes, overrides, output routing."""

import os
import subprocess
import sys

import pytest

from vlsym import cli
from vlsym.cli import UsageError, extract_overrides
from vlsym.corpus import CLEAN_FILES, SWAP_FILES, corpus_dir


def corpus_argv(names):
    root = corpus_dir()
    return [str(root / name) for name in names]


def test_extract_overrides():
    overrides, rest = extract_overrides(["verify", "-inputM_B=4", "a.vl", "-inputN=2"])
    assert overrides == {"M_B": 4, "N": 2}
    assert rest == ["verify", "a.vl"]
    overrides, rest = extract_overrides(["verify", "a.vl"])
    assert overrides == {}
    with pytest.raises(UsageError, match="integer"):
        extract_overrides(["-inputM_B=four"])


def test_corpus_dir_command(capsys):
    assert cli.main(["corpus-dir"]) == 0
    printed = capsys.readouterr().out.strip()
    assert (corpus_dir() / "driver.vl").exists()
    assert printed == str(corpus_dir())


def test_verify_clean_corpus(capsys):
    rc = cli.main(["verify", *corpus_argv(CLEAN_FILES)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "terminal paths  : 682" in captured.out
    assert " + Assertion violations" in captured.out
    assert captured.err == ""


def test_verify_reports_violations_and_exits_2(capsys, tmp_path):
    trails = tmp_path / "trails"
    rc = cli.main(["verify", "--first", "--emit-trails", str(trails), *corpus_argv(SWAP_FILES)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "=== Violations ===" in captured.out
    assert "(property: ASSERTION_VIOLATION, certainty: PROVEABLE) at" in captured.out
    assert "violation 0: ASSERTION_VIOLATION" in captured.err
    emitted = sorted(trails.iterdir())
    assert [p.name for p in emitted] == ["violation-0000.trail"]
    assert emitted[0].read_text().startswith("# trail v1\n")


def test_emitted_trails_replace_those_of_an_earlier_run(capsys, tmp_path):
    trails = tmp_path / "trails"
    trails.mkdir()
    (trails / "notes.txt").write_text("kept")
    swap = corpus_argv(SWAP_FILES)
    assert cli.main(["verify", "--max-depth", "8", "--emit-trails", str(trails), *swap]) == 2
    assert len(list(trails.glob("violation-*.trail"))) == 141
    assert cli.main(["verify", "--first", "--emit-trails", str(trails), *swap]) == 2
    capsys.readouterr()
    assert sorted(p.name for p in trails.iterdir()) == ["notes.txt", "violation-0000.trail"]
    assert (trails / "notes.txt").read_text() == "kept"


def test_override_shrinks_the_search(capsys):
    rc = cli.main(["verify", "-inputM_B=1", *corpus_argv(CLEAN_FILES)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "terminal paths  : 14" in captured.out
    assert "M_B = 1 (override)" in captured.out


def test_replay_emitted_trail_reaches_the_violation(capsys, tmp_path):
    trails = tmp_path / "trails"
    cli.main(["verify", "--first", "--emit-trails", str(trails), *corpus_argv(SWAP_FILES)])
    capsys.readouterr()
    rc = cli.main(
        ["replay", "--trail", str(trails / "violation-0000.trail"), *corpus_argv(SWAP_FILES)]
    )
    captured = capsys.readouterr()
    assert rc == 2
    assert "n: 1 m: 1" in captured.out  # the dump of the failing case
    assert "ASSERTION_VIOLATION" in captured.err
    assert "witness: N = 1, M = 1" in captured.err


def test_replay_clean_trail_exits_0(capsys, tmp_path):
    # record one terminal path by exploring a bound-1 search, then replay it
    from vlsym.corpus import load_sources
    from vlsym.engine import SearchConfig, explore, render_trail
    from vlsym.parser import load_program

    prog = load_program(load_sources(CLEAN_FILES))
    states = []
    explore(prog, SearchConfig(overrides={"N_B": 1, "M_B": 1}), on_terminal=states.append)
    trail_file = tmp_path / "t.trail"
    trail_file.write_text(render_trail(states[0].trail))
    rc = cli.main(
        [
            "replay",
            "-inputN_B=1",
            "-inputM_B=1",
            "--trail",
            str(trail_file),
            *corpus_argv(CLEAN_FILES),
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "--------" in captured.out
    assert captured.err == ""


def test_replay_wrong_trail_is_a_usage_error(capsys, tmp_path):
    trail_file = tmp_path / "bad.trail"
    trail_file.write_text("# trail v1\nB t\n")
    rc = cli.main(["replay", "--trail", str(trail_file), *corpus_argv(CLEAN_FILES)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "trail" in captured.err


def test_run_is_seeded_and_concrete(capsys):
    assert cli.main(["run", "--seed", "5", *corpus_argv(CLEAN_FILES)]) == 0
    first = capsys.readouterr().out
    assert cli.main(["run", "--seed", "5", *corpus_argv(CLEAN_FILES)]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "n: " in first
    # concrete values, not symbols
    assert "X_A" not in first and "X_V" not in first


def test_run_follows_a_trail(capsys, tmp_path):
    trail_file = tmp_path / "t.trail"
    trail_file.write_text("# trail v1\nZ N=2/3\nZ M=1/3\nC 1/2\nC 1/2\nC 0/1\nC 0/1\n")
    rc = cli.main(["run", "--trail", str(trail_file), *corpus_argv(CLEAN_FILES)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "n: 2 m: 1" in captured.out
    assert "row_ptr: [ 0 1 2 ]" in captured.out


def test_run_of_an_infeasible_path_exits_1(capsys, tmp_path):
    src = tmp_path / "never.vl"
    src.write_text('func main() {\n  assume(1 < 0);\n  print("never");\n}\n')
    rc = cli.main(["run", str(src)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "the path was infeasible and was abandoned\n"


def test_missing_file_and_bad_source_exit_1(capsys, tmp_path):
    assert cli.main(["verify", str(tmp_path / "nope.vl")]) == 1
    assert "cannot read" in capsys.readouterr().err

    bad = tmp_path / "bad.vl"
    bad.write_text("func main() { var int x = ; }\n")
    assert cli.main(["verify", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err

    untyped = tmp_path / "untyped.vl"
    untyped.write_text("func main() { var int x = 1.5; }\n")
    assert cli.main(["verify", str(untyped)]) == 1
    assert "error:" in capsys.readouterr().err

    # a source and a trail that are not UTF-8
    latin = tmp_path / "latin.vl"
    latin.write_bytes(b"func main() { print(\"\xe9\"); }\n")
    assert cli.main(["verify", str(latin)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"vlsym: cannot read {latin}: 'utf-8' codec can't decode")
    swap = corpus_argv(SWAP_FILES)
    assert cli.main(["replay", "--trail", str(latin), *swap]) == 1
    assert capsys.readouterr().err.startswith(f"vlsym: cannot read {latin}: 'utf-8'")

    # a trail directory that is a file is refused before the search runs
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli.main(["verify", "--emit-trails", str(taken), *swap]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"vlsym: cannot write trails to {taken}: File exists\n"


def test_out_of_range_bounds_are_usage_errors(capsys):
    files = corpus_argv(CLEAN_FILES)
    cases = [
        (["verify", "--max-depth", "-1"], "--max-depth must be 0 (unlimited) or more, got -1"),
        (["verify", "--budget", "0"], "--budget must be at least 1, got 0"),
        (["verify", "--workers", "0"], "--workers must be at least 1, got 0"),
        (["replay", "--trail", "t.trail", "--budget", "-5"], "--budget must be at least 1, got -5"),
        (["run", "--budget", "0"], "--budget must be at least 1, got 0"),
    ]
    for argv, message in cases:
        assert cli.main([*argv, *files]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"vlsym: {message}\n"

    # the smallest values in range are taken: --max-depth 0 is unlimited,
    # and a budget of 1 is too small for the first assume
    argv = ["verify", "--max-depth", "0", "--budget", "1", *corpus_argv(CLEAN_FILES)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "cause: 3 assignments exceed the budget of 1" in captured.out
    assert "violation 0: ENUM_BUDGET (MAYBE)" in captured.err


def test_array_wider_than_the_cell_cap_names_the_cap(capsys, tmp_path):
    src = tmp_path / "wide.vl"
    src.write_text("func main() {\n  var int a[1048577];\n}\n")
    # the cap is fixed, so a larger --budget does not lift it
    for budget in ([], ["--budget", "5000000"]):
        assert cli.main(["verify", *budget, str(src)]) == 2
        captured = capsys.readouterr()
        cause = "cause: extent 1048577 of array 'a' exceeds the cap of 1048576 cells\n"
        assert cause in captured.out
        assert "note: the search was cut short" in captured.out
        assert "budget" not in captured.out
        assert captured.err == f"violation 0: ENUM_BUDGET (MAYBE) at {src}:2:3-21\n"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "vlsym.cli", "corpus-dir"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == str(corpus_dir())


@pytest.mark.parametrize(
    "names, code, summaries", [(SWAP_FILES, 2, 673), (CLEAN_FILES, 0, 0)], ids=["swap", "clean"]
)
def test_verify_through_pipes_writes_all_its_output_before_it_exits(
    capsys, names, code, summaries
):
    # entry() ends the process with os._exit once it has flushed stdout and
    # stderr. Through a pipe, stdout is block buffered unless
    # PYTHONUNBUFFERED is set: a report larger than the buffer passes
    # straight through it, but the clean corpus's short report stays in it
    # until the flush
    argv = ["verify", *corpus_argv(names)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run(
        [sys.executable, "-m", "vlsym.cli", *argv], capture_output=True, text=True, env=env
    )
    assert cli.main(argv) == code
    captured = capsys.readouterr()

    def stable(text):
        return [ln for ln in text.splitlines() if not ln.startswith("time (s)")]

    assert proc.returncode == code
    assert stable(proc.stdout) == stable(captured.out)
    assert len(stable(proc.stdout)) > 10
    assert proc.stderr == captured.err
    assert len(proc.stderr.splitlines()) == summaries


def test_entry_exits_at_once_after_a_flush_and_normally_when_one_fails(monkeypatch):
    monkeypatch.setattr(cli, "main", lambda argv: 2)
    exits = []
    monkeypatch.setattr(cli.os, "_exit", exits.append)
    cli.entry()
    assert exits == [2]

    class ClosedPipe:
        def write(self, text):
            return len(text)

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 2
    assert exits == [2]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every launch pays for what `import vlsym.cli` imports: dataclasses
    # and the inspect module it pulls in cost about 10 ms
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import vlsym.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"

import argparse
import json
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

from turantools import cli, oracle
from turantools.graphs import complete_graph, encode_graph6

K4_G6 = encode_graph6(complete_graph(4))
K3_G6 = encode_graph6(complete_graph(3))


def run_cli(args: list[str]) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "turantools.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def test_count_text():
    result = run_cli(["count", "--host", K4_G6, "--pattern", K3_G6])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "4"


def test_count_family():
    result = run_cli(
        ["--json", "count", "--host", K4_G6, "--family", "clique:3"]
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["count"] == 4


def test_oracle_json_schema():
    result = run_cli(
        ["--json", "oracle", "exa", "--n", "5", "--k", "1", "--family", "clique:3"]
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert set(doc) == {"value", "witness_graph6", "explored", "complete"}
    assert doc["value"] == 6 and doc["complete"] is True


def test_oracle_set_mode():
    result = run_cli(
        ["--json", "oracle", "set", "--n", "4", "--counts", "0,1,2,3",
         "--family", "clique:3"]
    )
    assert json.loads(result.stdout)["value"] == 5


def test_oracle_zeta():
    result = run_cli(["oracle", "zeta", "--pattern", K3_G6])
    assert result.returncode == 0
    assert "zeta = 1" in result.stdout


def test_mup_check_example():
    result = run_cli(
        ["mup", "--a", "6", "--b", "53", "--check", "3,3/13,13,13,13,1"]
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "unique = true"


def test_mup_value():
    result = run_cli(["--json", "mup", "--a", "2", "--b", "2"])
    doc = json.loads(result.stdout)
    assert doc["value"] == 3 and doc["witness"] == "1,1/2"


def test_mup_series_csv():
    result = run_cli(["mup", "--series", "--c", "1", "--n-max", "8"])
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "n,c,mup,witness,delta_vs_formula"
    assert any(line.startswith("8,1,") for line in lines)


def test_construct_klikk():
    result = run_cli(["--json", "construct", "klikk", "--n", "7", "--r", "3"])
    doc = json.loads(result.stdout)
    assert doc["ok"] is True and doc["actual_edges"] == 11


def test_construct_kab_with_parts():
    result = run_cli(
        ["--json", "construct", "kab", "--a", "2", "--b", "2", "--parts", "1,1/2"]
    )
    doc = json.loads(result.stdout)
    assert doc["ok"] is True and doc["actual_edges"] == 5


def test_game_value():
    result = run_cli(["--json", "game", "L", "--n", "4", "--family", "star"])
    doc = json.loads(result.stdout)
    assert set(doc) == {"value", "first_moves", "states_explored", "complete"}
    assert doc["value"] == 2


def test_game_sweep():
    result = run_cli(
        ["--json", "game", "sweep", "--n", "4", "--max-pattern-order", "3"]
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert set(doc) == {"suite", "ok", "rows", "report"} and doc["ok"] is True
    assert [r["check"] for r in doc["rows"]] == ["chain_x", "prime_bound"] * 3
    text = run_cli(["game", "sweep", "--n", "4", "--max-pattern-order", "3"]).stdout
    assert text.splitlines() == [
        f"{x['pattern_graph6']}: x={x['got']} floor_x={x['want']} "
        f"xprime={p['got']} floor_xprime={p['want']}"
        for x, p in zip(doc["rows"][::2], doc["rows"][1::2])
    ] + ["ok = True"]


def test_verify_suite_pass():
    result = run_cli(["verify", "--suite", "zeta"])
    assert result.returncode == 0
    assert "zeta: PASS" in result.stdout


def test_usage_errors_exit_1():
    assert run_cli(["oracle", "exa", "--n", "5"]).returncode == 1
    assert run_cli(["count", "--host", K4_G6]).returncode == 1
    assert run_cli(["count", "--host", "not-a-graph6!!", "--pattern", K3_G6]).returncode == 1
    assert run_cli(["nonsense"]).returncode == 1
    # every engine rejects an order through graphs.check_order, and a sweep
    # meets the game solver's cap before the oracles' guard
    for line, message in (
        ("game sweep --n 4 --max-pattern-order -1", "pattern order must be non-negative"),
        ("oracle exa --n 0 --k 1 --family trees", "a tree needs at least one vertex"),
        ("game L --n -2 --family clique:2", "vertex count must be in 0..32, got -2"),
        ("game sweep --n -1", "vertex count must be in 0..32, got -1"),
        ("game sweep --n 10", "game solver capped at n <= 7"),
        (
            "oracle ex --n 33 --family clique:3 --allow-large --budget 0",
            "vertex count must be in 0..32, got 33",
        ),
    ):
        proc = run_cli(line.split())
        assert proc.returncode == 1 and proc.stderr.startswith("error:"), line
        assert message in proc.stderr, line


def test_flags_a_command_does_not_honour_exit_1(capsys):
    cases = [
        ("oracle set --n 4 --counts -1 --family clique:3", "copy counts are non-negative"),
        ("game sweep --n 4 --budget 1", "unrecognized arguments: --budget"),
        (f"oracle zeta --pattern {K3_G6} --budget 0", "unrecognized arguments: --budget 0"),
        ("verify --suite sandwich --n-max 3", "takes no n_max"),
        ("verify --suite all --n-max 10", "needs a single suite"),
        ("oracle ex --n 4 --family clique:3 --jobs 2", "unrecognized arguments: --jobs"),
        ("oracle ex --n 5 --family clique:3 --k 7 --counts 9", "unrecognized arguments: --k 7"),
        ("oracle zeta --pattern Bw --allow-large --n 3", "unrecognized arguments: --allow"),
        ("construct klikk --n 7 --r 3 --k 5 --parts 1/1", "unrecognized arguments: --k 5"),
        ("game L --n 4 --family star --max-pattern-order 9", "unrecognized arguments: --max"),
        ("game sweep --n 4 --family star", "unrecognized arguments: --family star"),
        ("mup --a 2 --b 2 --c 5 --n-max 3", "--c and --n-max need --series"),
        ("mup --a 2 --b 2 --check 1,1/2 --series --c 1", "not allowed with argument --check"),
        ("mup --series --c 1 --a 2", "--series takes no --a / --b"),
        ("verify --suite zeta --jobs 2", "unrecognized arguments: --jobs"),
        ("verify --suite bogus", "unknown suite"),
        ("oracle ex --n 9 --family clique:3 --budget nan", "budget must be >= 0"),
        ("game L --n 5 --family trees --budget -1", "budget must be >= 0"),
    ]
    for line, message in cases:
        assert cli.main(line.split()) == cli.EXIT_USAGE, line
        assert message in capsys.readouterr().err, line


def _sub_parsers(parser: argparse.ArgumentParser) -> dict:
    return next(
        a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )


def _flags(parser: argparse.ArgumentParser) -> set[str]:
    return {f for a in parser._actions for f in a.option_strings} - {"-h", "--help"}


# one valid command line per mode; the walk below appends a sibling's flag to it
_MODE_ARGS = {
    ("oracle", "ex"): ["--n", "4", "--family", "clique:3"],
    ("oracle", "exa"): ["--n", "4", "--k", "1", "--family", "clique:3"],
    ("oracle", "set"): ["--n", "4", "--counts", "0,1", "--family", "clique:3"],
    ("oracle", "prime"): ["--n", "4", "--family", "clique:3"],
    ("oracle", "zeta"): ["--pattern", K3_G6],
    ("construct", "klikk"): ["--n", "7", "--r", "3"],
    ("construct", "triangle"): ["--n", "7", "--k", "2"],
    ("construct", "star"): ["--n", "6", "--r", "3", "--k", "2"],
    ("construct", "kab"): ["--a", "2", "--b", "2"],
    ("game", "L"): ["--n", "4", "--family", "star"],
    ("game", "x"): ["--n", "4", "--family", "star"],
    ("game", "xprime"): ["--n", "4", "--family", "star"],
    ("game", "sweep"): ["--n", "4"],
}


def test_each_mode_rejects_the_flags_only_its_siblings_declare(capsys):
    walked = set()
    for command, command_parser in _sub_parsers(cli._build_parser()).items():
        if not any(isinstance(a, argparse._SubParsersAction)
                   for a in command_parser._actions):
            continue
        modes = _sub_parsers(command_parser)
        for mode, mode_parser in modes.items():
            walked.add((command, mode))
            own = _flags(mode_parser)
            foreign = set().union(*map(_flags, modes.values())) - own
            for flag in sorted(foreign):
                argv = [command, mode, *_MODE_ARGS[command, mode], flag, "1"]
                assert cli.main(argv) == cli.EXIT_USAGE, argv
                assert "unrecognized arguments: " + flag in capsys.readouterr().err, argv
    assert walked == set(_MODE_ARGS)


def test_budget_exhaustion_exit_2():
    result = run_cli(
        ["oracle", "ex", "--n", "8", "--family", "clique:3", "--budget", "0"]
    )
    assert result.returncode == 2
    assert "value = unknown" in result.stdout.splitlines()


def test_game_budget_exhaustion_exit_2(capsys):
    started = time.monotonic()
    code = cli.main(["game", "L", "--n", "6", "--family", "trees", "--budget", "0.001"])
    assert time.monotonic() - started < 1.0
    assert code == cli.EXIT_UNSOLVED
    assert "value = unsolved" in capsys.readouterr().out.splitlines()


def test_failed_reverification_exit_3(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "count_copies", lambda host, pattern: 99)
    code = cli.main(["oracle", "exa", "--n", "4", "--k", "1", "--family", "clique:3"])
    assert code == cli.EXIT_VERIFY_FAILED
    err = capsys.readouterr().err
    assert err.startswith("error: witness re-verification failed")
    assert len(err.splitlines()) == 1


def test_seed_flag_is_gone():
    result = run_cli(["--seed", "1", "count", "--host", K4_G6, "--pattern", K3_G6])
    assert result.returncode == 1


def test_json_outputs_are_run_deterministic():
    args = ["--json", "verify", "--suite", "games"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_readme_examples_exit_zero(capsys):
    # every `turantools ...` line in the README's fenced blocks runs as shown
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.S | re.M)
    lines = [
        line.strip()
        for block in blocks
        for line in block.splitlines()
        if line.strip().startswith("turantools ")
    ]
    assert len(lines) >= 10
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line
        assert capsys.readouterr().out, line

"""Acceptance gate: every criterion below runs at its stated exact tolerance.

All values are exact integers (tolerance zero).  Each criterion reads the
rows of its verify suites, one `got relation want` check per row with its
`holds` flag; values marked report-only come from a suite's `report` entries
and are printed but not asserted.  Run with
`pytest tests/test_acceptance.py -v -s` to see one PASS line per criterion.
"""

import json
import subprocess
import sys

from turantools.verify import (
    run_suite,
    suite_classics,
    suite_games,
    suite_kab,
    suite_klikk,
    suite_mup_series,
    suite_sandwich,
    suite_triangle,
)


def _report(num: int, label: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" [{extra}]" if extra else ""
    print(f"ACCEPTANCE {num} ({label}): {status}{tail}")
    assert ok, f"criterion {num} ({label}) failed"


def _rows(rep: dict, *checks: str) -> list[dict]:
    return [r for r in rep["rows"] if r["check"] in checks]


def _notes(rep: dict, check: str) -> list[dict]:
    return [r for r in rep["report"] if r["check"] == check]


def test_criterion_1_single_clique_formula():
    rep = suite_klikk(n_max=12)
    builds = _rows(rep, "edges", "copies")
    oracle = _rows(rep, "exa1")
    builds_ok = all(r["holds"] for r in builds)
    oracle_ok = all(r["holds"] for r in oracle)
    covered = {(r["n"], r["r"]) for r in oracle}
    assert {(n, 3) for n in range(3, 8)} <= covered
    assert {(n, 4) for n in range(4, 7)} <= covered
    _report(1, "unique-clique formula", builds_ok and oracle_ok,
            f"{len(_rows(rep, 'edges'))} builds, {len(oracle)} oracle points")


def test_criterion_2_exact_triangle_counts():
    rep = suite_triangle(n_max=12)
    builds_ok = all(r["holds"] for r in _rows(rep, "edges", "copies"))
    oracle = _rows(rep, "exa_k")
    assert all(r["relation"] == ">=" for r in oracle)
    bound_ok = all(r["holds"] for r in oracle)
    eq = sum(1 for r in oracle if r["got"] == r["want"])
    _report(2, "k-triangle formula", builds_ok and bound_ok,
            f"equality at {eq}/{len(oracle)} oracle points (report-only)")


def test_criterion_3_classics():
    rep = suite_classics(n_max=8)
    _report(3, "matching/cycle/turan/nonbipartite classics",
            all(r["holds"] for r in rep["rows"]), f"{len(rep['rows'])} cases")


def test_criterion_4_sandwich_bounds():
    rep = suite_sandwich()
    ok = rep["ok"]
    vacuous = [
        (r["pattern"], r["n"], r["k"])
        for r in _notes(rep, "no_exact_k_graph")
    ]
    _report(4, "copy-count sandwich and attachment bounds", ok,
            f"nonexistent points treated vacuously: {vacuous}")


def test_criterion_5_unique_partitions():
    rep = suite_kab()
    series = suite_mup_series(n_max=40)
    prefixes = {
        str(r["c"]): r["last_step_failure"] for r in _notes(series, "step_prefix")
    }
    ok = rep["ok"] and series["ok"]
    _report(5, "unique-partition suite", ok,
            f"step=1 holds beyond n0 per c: {prefixes} (prefix report-only)")


def test_criterion_6_game_values():
    rep = suite_games()
    instances = {(r["n"], r["family"]) for r in _rows(rep, "chain_x")}
    gaps = ["%s:%s" % (r["n"], r["gap"]) for r in _notes(rep, "family_gap")]
    _report(6, "query-game minimax values", rep["ok"],
            f"{len(instances)} instances; gaps {gaps}")


def test_criterion_7_extremal_questioner():
    rep = suite_games()
    (exact,) = _rows(rep, "no_first_total")
    (worst,) = _rows(rep, "worst_case")
    (overhead,) = _notes(rep, "strategy_overhead")
    ok = exact["holds"] and worst["holds"]
    _report(7, "extremal-graph questioner", ok,
            f"worst case {worst['got']} <= {worst['want']}, "
            f"overhead {overhead['overhead_vs_nonedges']} (report-only)")


def _cli(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "turantools.cli", *args],
        capture_output=True,
        text=True,
    )


def test_criterion_8_determinism():
    repeat_ok = True
    for suite in ("games", "zeta"):
        a = _cli(["--json", "verify", "--suite", suite])
        b = _cli(["--json", "verify", "--suite", suite])
        repeat_ok = repeat_ok and a.stdout == b.stdout and a.returncode == 0
    # every suite, twice, byte for byte
    all1 = _cli(["--json", "verify", "--suite", "all"])
    all2 = _cli(["--json", "verify", "--suite", "all"])
    repeat_ok = repeat_ok and all1.stdout == all2.stdout and all1.returncode == 0
    _report(8, "byte-identical JSON across runs", repeat_ok)


def test_all_suites_green():
    # the verify driver itself: every named suite passes end to end
    names = ["klikk", "triangle", "classics", "sandwich", "kab", "mup-series",
             "games", "zeta"]
    results = {}
    for name in names:
        n_max = {"klikk": 8, "triangle": 8, "mup-series": 12}.get(name)
        results[name] = run_suite(name, n_max=n_max)["ok"]
    print("verify suites:", json.dumps(results))
    assert all(results.values())

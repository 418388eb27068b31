"""The verify suites' row shape: one `got relation want` check per row."""

import pytest

from turantools import cli, verify
from turantools.counting import all_pattern_classes
from turantools.graphs import encode_graph6

ROW_KEYS = {"check", "got", "want", "relation", "holds"}


@pytest.mark.parametrize(
    "relation, got, want, holds",
    [
        ("==", 3, 3, True),
        ("==", 3, 4, False),
        (">=", 4, 3, True),
        (">=", 3, 3, True),
        (">=", 2, 3, False),
        ("<=", 3, 4, True),
        ("<=", 3, 3, True),
        ("<=", 4, 3, False),
    ],
)
def test_row_relations(relation, got, want, holds):
    row = verify._row("c", {"n": 5}, got, want, relation)
    assert row == {
        "check": "c",
        "n": 5,
        "got": got,
        "want": want,
        "relation": relation,
        "holds": holds,
    }
    # a missing side never holds, whatever the relation
    assert verify._row("c", {}, None, want, relation)["holds"] is False
    assert verify._row("c", {}, got, None, relation)["holds"] is False
    assert verify._row("c", {}, None, None, relation)["holds"] is False


@pytest.mark.parametrize("name", sorted(verify.SUITES))
def test_every_suite_has_the_row_shape(name):
    rep = verify.run_suite(name)
    assert set(rep) == {"suite", "ok", "rows", "report"}
    assert rep["suite"] == name
    assert rep["rows"]
    for row in rep["rows"]:
        assert ROW_KEYS <= set(row)
        assert row["relation"] in ("==", ">=", "<=")
        assert isinstance(row["holds"], bool)
    for note in rep["report"]:
        assert "check" in note and "holds" not in note
    assert rep["ok"] == all(r["holds"] for r in rep["rows"])
    assert rep["ok"] is True


def test_a_wrong_formula_fails_the_suite_and_exits_3(monkeypatch, capsys):
    exa1_kab = verify.exa1_kab
    monkeypatch.setattr(verify, "exa1_kab", lambda a, b: exa1_kab(a, b) + 1)
    rep = verify.run_suite("kab")
    assert rep["ok"] is False
    failed = [r for r in rep["rows"] if not r["holds"]]
    assert failed and all(r["check"] == "exa1" for r in failed)
    assert cli.main(["verify", "--suite", "kab"]) == cli.EXIT_VERIFY_FAILED
    assert "kab: FAIL" in capsys.readouterr().out.splitlines()


def test_sweep_rows_cover_every_class_that_fits():
    # at n = 3 the classes on four vertices do not fit
    rep = verify.sweep_patterns(3, max_pattern_order=4)
    assert set(rep) == {"suite", "ok", "rows", "report"}
    assert rep["suite"] == "sweep" and rep["ok"] is True and rep["report"] == []
    fits = [encode_graph6(f) for f in all_pattern_classes(4) if f.n <= 3]
    assert len(fits) == 3
    assert [r["pattern_graph6"] for r in rep["rows"][::2]] == fits
    assert [r["pattern_graph6"] for r in rep["rows"][1::2]] == fits
    assert [r["check"] for r in rep["rows"]] == ["chain_x", "prime_bound"] * 3
    for row in rep["rows"]:
        assert ROW_KEYS | {"n", "pattern_graph6", "pattern_edges"} <= set(row)
        assert row["n"] == 3 and row["relation"] == ">="


# (pattern, x, x - floor, x', x' - floor') at n = 5, as turantools 0.1.0 gave them
_SWEEP_5 = [
    ("A_", 9, 0, 10, 0),
    ("Bo", 7, 0, 9, 0),
    ("Bw", 4, 0, 7, 0),
    ("CK", 6, 0, 8, 0),
    ("Cs", 5, 0, 8, 0),
    ("Ck", 7, 0, 10, 0),
    ("C{", 6, 1, 10, 1),
    ("C]", 4, 0, 8, 0),
    ("C}", 4, 1, 9, 1),
    ("C~", 2, 0, 8, 0),
]


def test_sweep_at_5_gives_the_pinned_values_and_gaps():
    rows = verify.sweep_patterns(5)["rows"]
    got = [
        (x["pattern_graph6"], x["got"], x["got"] - x["want"], p["got"], p["got"] - p["want"])
        for x, p in zip(rows[::2], rows[1::2])
    ]
    assert got == _SWEEP_5


def test_an_x_below_its_floor_fails_the_sweep_and_exits_3(monkeypatch, capsys):
    solve_x = verify.solve_x

    def x_minus_one(n, fam, **kw):
        res = solve_x(n, fam, **kw)
        return res._replace(value=res.value - 1)

    monkeypatch.setattr(verify, "solve_x", x_minus_one)
    rep = verify.sweep_patterns(4, max_pattern_order=3)
    assert rep["ok"] is False
    failed = [r for r in rep["rows"] if not r["holds"]]
    assert failed and all(r["check"] == "chain_x" for r in failed)
    argv = ["game", "sweep", "--n", "4", "--max-pattern-order", "3"]
    assert cli.main(argv) == cli.EXIT_VERIFY_FAILED
    assert capsys.readouterr().out.splitlines()[-1] == "ok = False"

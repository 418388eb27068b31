"""The verify suites' row shape: one `got relation want` check per row."""

import pytest

from turantools import cli, verify

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

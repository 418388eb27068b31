"""Module boundaries: public names only, a lean import, and immutable records."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import turantools
from turantools._bnb import branch_and_bound
from turantools.constructions import build_klikk
from turantools.families import GraphFamily
from turantools.game import GameState, adversary_no_first, simulate, solve_L, solver_questioner
from turantools.graphs import check_bipartite, complete_graph
from turantools.oracle import ex_oracle
from turantools.partitions import PartitionPair, mup

SRC = Path(turantools.__file__).parent


def _private_imports(path: Path):
    """`file:line name` for each underscore name imported from a turantools module."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level or (node.module or "").split(".")[0] == "turantools":
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{path.name}:{node.lineno} {alias.name}"


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    assert [hit for path in modules for hit in _private_imports(path)] == []


def _imported_modules(path: Path) -> set[str]:
    """Every turantools module `path` imports, as its last dotted name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[-1] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module in ("", "turantools"):  # `from turantools import oracle`
                found |= {alias.name for alias in node.names}
            else:
                found.add(module.split(".")[-1])
    return found


def test_the_game_imports_no_oracle_and_no_verify_suite():
    # the game's floors are checked in verify, which calls the oracles
    assert not _imported_modules(SRC / "game.py") & {"oracle", "verify"}


def _newly_loaded(statement: str, watched: tuple[str, ...]) -> list[str]:
    """Which of `watched` a fresh interpreter loads while running `statement`."""
    code = (
        "import sys; before = set(sys.modules); " + statement + "; "
        f"print(*sorted(set({watched!r}) & (set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return out.stdout.split()


def test_import_leaves_dataclasses_inspect_and_the_pool_unloaded():
    # each costs every short-lived query its import time (see README, Performance notes)
    assert _newly_loaded("import turantools", ("dataclasses", "inspect")) == []
    assert _newly_loaded("import turantools.cli", ("concurrent.futures",)) == []


_K3 = GraphFamily("clique:3")


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: branch_and_bound(3, []), id="SearchResult"),
        pytest.param(lambda: ex_oracle(4, _K3), id="OracleResult"),
        pytest.param(lambda: build_klikk(5, 3), id="ConstructionReport"),
        pytest.param(lambda: check_bipartite(complete_graph(3)), id="BipartiteResult"),
        pytest.param(lambda: PartitionPair((1, 3, 2), (2,)), id="PartitionPair"),
        pytest.param(lambda: mup(1, 2), id="MupResult"),
        pytest.param(lambda: GameState(4, _K3), id="GameState"),
        pytest.param(lambda: solve_L(4, _K3), id="GameValue"),
        pytest.param(
            lambda: simulate(4, _K3, solver_questioner(4, _K3, "L"), adversary_no_first),
            id="Transcript",
        ),
    ],
)
def test_records_refuse_attribute_assignment(make):
    record = make()
    names = record._fields + tuple(
        name for name, v in vars(type(record)).items() if isinstance(v, property)
    )
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.some_new_field = 5  # no instance dict

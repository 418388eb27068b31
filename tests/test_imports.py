"""Each turantools module uses only the public names of the others."""

import ast
from pathlib import Path

import turantools

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

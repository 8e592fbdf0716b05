"""The package stays exact and stdlib-only: every absolute import is a
standard-library module, and no module holds a float or complex literal or
uses the name float."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toriclct"


def _offences(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            modules = []
        found += [f"import {m}" for m in modules
                  if m.split(".")[0] not in sys.stdlib_module_names]
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"literal {node.value!r}")
        if isinstance(node, ast.Name) and node.id == "float":
            found.append("name float")
    return [f"{path.name}:{item}" for item in found]


def test_package_is_exact_and_stdlib_only():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 5
    assert [item for path in modules for item in _offences(path)] == []

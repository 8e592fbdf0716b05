"""The package stays exact and stdlib-only: every absolute import is a
standard-library module, no module holds a float or complex literal or uses
the name float, and numbers from outside reach Fraction only through
geometry._rational. No module imports dataclasses. Each input rule, and
each rule of the table text, is written in one function."""

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


def test_no_module_imports_dataclasses():
    # importing dataclasses loads inspect, ast, dis, tokenize and copy, and
    # @dataclass compiles each generated method: most of the CLI's import time
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for m in modules
                      if m.split(".")[0] == "dataclasses"]
    assert found == []


def _unchecked_fraction_calls(path: Path) -> list[str]:
    """One-argument Fraction(x) calls, x not an int literal, outside
    geometry._rational: Fraction(x) reads a float as its binary expansion
    and raises ZeroDivisionError on '1/0'."""
    tree = ast.parse(path.read_text(), filename=str(path))
    inside = set()
    if path.name == "geometry.py":
        helper = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                      and node.name == "_rational")
        inside = set(ast.walk(helper))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or node in inside or len(node.args) != 1:
            continue
        func, arg = node.func, node.args[0]
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("Fraction", "Rational") and not (
                isinstance(arg, ast.Constant) and type(arg.value) is int):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_numbers_reach_fraction_through_one_helper():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert [item for path in modules for item in _unchecked_fraction_calls(path)] == []


def _rule(node) -> str | None:
    """The input or text rule that node writes out, if any."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        for phrase in ("must lie in (0, 1]", "square of one dimension"):
            if phrase in node.value:
                return phrase
    if (isinstance(node, ast.IfExp) and isinstance(node.body, ast.Constant)
            and node.body.value == "-" and isinstance(node.test, ast.Compare)
            and isinstance(node.test.ops[0], ast.Is)):
        return '"-" if value is None'
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("ArgumentTypeError", "isdigit"):
            return name
        if (name == "isinstance" and len(node.args) == 2
                and getattr(node.args[1], "id", None) == "FamilyId"):
            return "isinstance(..., FamilyId)"
        if name == "ParseError" and any(
                isinstance(part, ast.Constant) and "coordinates" in str(part.value)
                for arg in node.args[1:] for part in ast.walk(arg)):
            return "ParseError(lineno, 'expected n coordinates')"
        if name == "ParseError" and any(
                isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "str"
                for arg in node.args[1:]):
            return "ParseError(lineno, str(exc))"
    return None


def test_each_input_rule_has_one_home():
    # (rule, module, top-level function or class that writes it out)
    homes = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                rule = _rule(node)
                if rule is not None:
                    homes.add((rule, path.name, getattr(top, "name", None)))
    assert homes == {
        ("ArgumentTypeError", "cli.py", "_option"),
        ("isinstance(..., FamilyId)", "database.py", "lookup"),
        ('"-" if value is None', "database.py", "_value_text"),
        ("ParseError(lineno, str(exc))", "toric.py", "_at_line"),
        ("ParseError(lineno, 'expected n coordinates')", "toric.py", "_ray_block"),
        ("isdigit", "geometry.py", "_decimal"),
        ("must lie in (0, 1]", "geometry.py", "_threshold"),
        ("square of one dimension", "geometry.py", "_matrices"),
    }


def test_package_parses_as_python_3_10():
    # pyproject.toml promises requires-python >= 3.10
    for path in sorted(PACKAGE.rglob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))

"""Every name a module of the package imports is used there or re-exported in __all__,
and every name in a module's __all__ has a caller. The package's __init__ republishes
the modules' __all__ lists through star imports, which these guards skip."""

import ast
import re
from pathlib import Path

import pytest

import adiabatica

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "adiabatica"


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names if alias.name != "*")
    return names


def exported_names(tree: ast.Module) -> set[str]:
    """The names of a literal __all__ list; none for a computed one (the package's)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ) and isinstance(node.value, ast.List):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = imported_names(tree) - used - exported_names(tree)
    assert not unused, f"{path.name} imports {sorted(unused)} without using them"


def referenced_names(path: Path) -> set[str]:
    """Names and attributes a file reads; a definition's body does not count for its own name."""
    names = set()
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        nodes = list(ast.walk(stmt))
        found = {n.id for n in nodes if isinstance(n, ast.Name)}
        found |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        names |= found - {getattr(stmt, "name", None)}
    return names


def test_every_public_name_has_a_caller():
    # Callers: the package outside __init__, the benchmark, the acceptance suite, the README.
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    public = set().union(*(exported_names(ast.parse(p.read_text(encoding="utf-8"))) for p in files))
    assert public == set(adiabatica.__all__)
    files += [*(ROOT / "bench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    called = set().union(*map(referenced_names, files))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    uncalled = {name for name in public - called if not re.search(rf"\b{name}\b", readme)}
    assert not uncalled, f"__all__ exports {sorted(uncalled)}, which nothing calls"

"""Every name a module of the package imports is used there or re-exported in __all__,
and every name in a module's __all__ has a caller. The package's __init__ republishes
the modules' __all__ lists, binding each name on first access: the namespace tests
run in fresh interpreters, so that nothing is bound before they look."""

import ast
import re
import subprocess
import sys
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


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
LIBRARY = [m for m in MODULES if m != "cli"]


def run_fresh(code: str) -> None:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_star_import_binds_every_public_name_to_its_module_object():
    run_fresh(
        "from adiabatica import *\n"
        "import importlib, adiabatica\n"
        f"modules = [importlib.import_module('adiabatica.' + m) for m in {LIBRARY!r}]\n"
        "public = {n: getattr(m, n) for m in modules for n in m.__all__}\n"
        "assert sum(len(m.__all__) for m in modules) == len(public), 'a name has two homes'\n"
        "assert adiabatica.__all__ == sorted(public), adiabatica.__all__\n"
        "assert all(globals()[n] is v and getattr(adiabatica, n) is v for n, v in public.items())\n"
    )


def test_dir_lists_every_public_name_and_module_before_any_access():
    names = {name for path in PACKAGE.glob("*.py") for name in exported_names(ast.parse(path.read_text()))}
    run_fresh(
        "import adiabatica\n"
        f"missing = {{*{sorted(names)!r}, *{LIBRARY!r}}} - set(dir(adiabatica))\n"
        "assert not missing, missing\n"
    )


def test_unknown_attribute_raises_attribute_error():
    assert not hasattr(adiabatica, "no_such_name")
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        adiabatica.no_such_name


@pytest.mark.parametrize("module", MODULES)
def test_any_module_imports_first(module):
    run_fresh(f"import adiabatica.{module}\nfrom adiabatica import *\nimport adiabatica.cli\n")

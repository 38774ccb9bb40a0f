"""Design rules that read the package source rather than run it.

Each test fails with the offending lines listed, through ``pytest.fail``
rather than ``assert``, so the rules hold in the ``python -O`` run too.
"""

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import symknot

PACKAGE = Path(symknot.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = {path.stem for path in SOURCES}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _absolute_imports(tree: ast.Module):
    """(node, module name) for every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node, node.module


def _fail_if(bad: list[str], why: str) -> None:
    if bad:
        pytest.fail(why + ":\n" + "\n".join(bad))


def test_no_assert_statements():
    # assert vanishes under python -O; internal invariants raise real exceptions
    bad = [
        f"{path}:{k}: {line.strip()}"
        for path in SOURCES
        for k, line in enumerate(path.read_text().splitlines(), 1)
        if re.match(r"\s*assert\b", line)
    ]
    _fail_if(bad, "replace each assert with a raised exception")


def test_only_standard_library_imports():
    # the package needs nothing outside the standard library
    bad = [
        f"{path}:{node.lineno}: import {name}"
        for path in SOURCES
        for node, name in _absolute_imports(_tree(path))
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    _fail_if(bad, "imports outside the standard library")


def _package_module_names(tree: ast.Module) -> set[str]:
    """Local names that ``tree`` binds to a package module or the package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "symknot"
        ):
            names |= {alias.asname or alias.name for alias in node.names if alias.name in MODULES}
        elif isinstance(node, ast.Import):
            names |= {
                alias.asname or "symknot"
                for alias in node.names
                if alias.name.split(".")[0] == "symknot"
            }
    return names


def test_no_private_names_across_modules():
    # an underscore name is private to its module: a second module that needs
    # it needs a method or a public name instead, whether it imports the name
    # or reads it off the module
    bad = []
    for path in SOURCES:
        tree = _tree(path)
        modules = _package_module_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "symknot"
            ):
                bad += [
                    f"{path}:{node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
            elif (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
            ):
                base = node.value
                while isinstance(base, ast.Attribute):
                    base = base.value
                if isinstance(base, ast.Name) and base.id in modules:
                    bad.append(f"{path}:{node.lineno}: {ast.unparse(node)}")
    _fail_if(bad, "private names used from another module")


def test_bar_natan_scan_computes_over_z():
    # the scan cancels only +-1 entries and hands what is left to the Smith
    # forms in khovanov.py; importing fractions would bring field pivots back
    path = PACKAGE / "bar_natan.py"
    bad = [
        f"{path}:{node.lineno}: import {name}"
        for node, name in _absolute_imports(_tree(path))
        if name.split(".")[0] == "fractions"
    ]
    _fail_if(bad, "fractions imported by the scan")


def _is_list(value: ast.expr) -> bool:
    return isinstance(value, (ast.List, ast.ListComp)) or (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == "list"
    )


def test_no_module_level_lists():
    # a list bound at module level is mutable state that outlives the call
    # that filled it; a scan keeps what it builds on itself
    bad = []
    for path in SOURCES:
        for node in _tree(path).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            if _is_list(node.value):
                bad += [
                    f"{path}:{node.lineno}: {ast.unparse(t)}"
                    for t in targets
                    if not (isinstance(t, ast.Name) and t.id == "__all__")
                ]
    _fail_if(bad, "module-level names bound to a list")


def test_public_names_resolve():
    # an __all__ entry the module does not define is an export left behind by
    # a removal
    bad = []
    names = ["symknot"] + [f"symknot.{m.name}" for m in pkgutil.iter_modules(symknot.__path__)]
    for name in names:
        module = importlib.import_module(name)
        bad += [
            f"{name}.{entry}"
            for entry in getattr(module, "__all__", ())
            if not hasattr(module, entry)
        ]
    _fail_if(bad, "__all__ entries the module does not define")

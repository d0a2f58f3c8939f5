"""Every name a module of the package imports is used or re-exported.

A stand-in for an unused-import lint: each ``src/mpcodes/*.py`` module
except ``__init__.py`` is parsed with ``ast``, and an imported name must
be read somewhere in the module (string annotations included) or be
listed in its ``__all__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mpcodes"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import outside ``__future__``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann) if ann is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    return used


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    keep = _used(tree) | _exported(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in keep}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"cli.py", "lincode.py", "matgf.py", "mpcode.py"}

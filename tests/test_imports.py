"""Every name the package imports, exports or parses has a reader.

Stand-ins for an unused-code lint, on modules parsed with ``ast``:

* each ``src/mpcodes/*.py`` module except ``__init__.py`` reads every
  name it imports (string annotations included) or lists it in its
  ``__all__``;
* every name in a module's ``__all__`` is read, as a name or an
  attribute, somewhere in ``src/mpcodes`` or ``bench`` outside its own
  definition (the export lists and imports are not reads);
* every option of every CLI subcommand except ``--machine`` is read as
  ``args.<dest>`` by the subcommand's ``cmd_*`` function or by a ``cli``
  function that it calls, directly or not;
* no ``src/mpcodes`` module imports a name that starts with an
  underscore from another module of the package: a private helper has
  one module as its home and is reached only through that module's
  public functions;
* every parameter with a default of a ``src/mpcodes`` function, and every
  defaulted init field of a ``src/mpcodes`` dataclass, is passed, by
  position or by name, to a call of that function's (or class's) name
  somewhere in ``src/mpcodes`` or ``bench``; a class's calls count for
  its ``__new__``, its ``__init__`` and its fields;
* importing ``mpcodes.cli`` in a fresh interpreter builds no field and
  loads no module beyond numpy's, the package's and those of a listed
  few standard-library modules.

Whether a function, method or branch has a caller at all is measured,
not read off names: see ``tests/test_reachability.py``.
"""

import argparse
import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from mpcodes import cli

SRC = Path(__file__).resolve().parent.parent / "src" / "mpcodes"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
READERS = sorted(SRC.glob("*.py")) + sorted((SRC.parent.parent / "bench").glob("*.py"))


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


def _reads(node: ast.AST) -> Counter:
    """How often each name is read in the subtree, as a name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def test_every_exported_name_has_a_reader():
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in READERS}
    reads = {p: _reads(tree) for p, tree in trees.items()}
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = trees[path]
        inside = {node.name: _reads(node) for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for name in sorted(_exported(tree)):
            own = reads[path][name] - inside.get(name, Counter())[name]
            if not own and not any(reads[p][name] for p in READERS if p != path):
                unread.append(f"{path.name}: {name}")
    assert not unread, f"exported but never read: {unread}"


def test_no_module_imports_a_private_name_of_the_package():
    imported = [
        f"{path.name}:{node.lineno}: {alias.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "mpcodes")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert not imported, f"private names imported across modules: {imported}"


def _args_read(funcs: dict[str, ast.FunctionDef], name: str) -> set[str]:
    """Every ``args.<attr>`` read by ``name`` and the cli functions it calls."""
    seen, todo, attrs = set(), [name], set()
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        for n in ast.walk(funcs[fn]):
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) \
                    and n.value.id == "args":
                attrs.add(n.attr)
            elif isinstance(n, ast.Call) and isinstance(n.func, ast.Name) \
                    and n.func.id in funcs:
                todo.append(n.func.id)
    return attrs


def test_every_cli_option_is_read_by_its_subcommand():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    unread = []
    for command, parser in subparsers.choices.items():
        read = _args_read(funcs, parser.get_default("func").__name__)
        unread += [f"{command} {'/'.join(a.option_strings) or a.dest}" for a in parser._actions
                   if a.dest not in ("help", "machine") and a.dest not in read]
    assert not unread, f"options their subcommand never reads: {unread}"


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _defaulted(tree: ast.Module):
    """(callee, parameter, positional index or None) of every parameter
    with a default and every defaulted init field of a dataclass.  The
    index counts the arguments a call passes: a method's ``self`` and a
    class's fields are reached through a call of the method's or the
    class's name; a keyword-only parameter has no index."""
    methods = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef):
                methods.add(id(fn))
                callee = cls.name if fn.name in ("__init__", "__new__") else fn.name
                yield from _parameters(fn, callee, bound=1)
        if any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
               for d in cls.decorator_list):
            fields = [f for f in cls.body if isinstance(f, ast.AnnAssign)
                      and not (isinstance(f.value, ast.Call) and any(
                          kw.arg == "init" for kw in f.value.keywords))]
            for i, f in enumerate(fields):
                if f.value is not None:
                    yield cls.name, f.target.id, i
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and id(fn) not in methods:
            yield from _parameters(fn, fn.name, bound=0)


def _parameters(fn: ast.FunctionDef, callee: str, bound: int):
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield callee, arg.arg, i - bound
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield callee, arg.arg, None


def _passes(call: ast.Call, param: str, index: int | None) -> bool:
    """Whether the call passes the parameter by name, or at its index;
    ``*args`` and ``**kwargs`` pass everything they could reach."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    return index is not None and (
        len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_defaulted_parameter_is_passed():
    """Every parameter with a default, and every defaulted init field of a
    dataclass, of ``src/mpcodes`` is passed, by position or by name, in
    some call of its function's or class's name in ``src/mpcodes`` or
    ``bench``: an option that no caller sets is dead code."""
    calls: dict[str, list[ast.Call]] = {}
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                calls.setdefault(_called_name(node), []).append(node)
    params = [
        (path.name, *param)
        for path in sorted(SRC.glob("*.py"))
        for param in _defaulted(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert params, "no defaulted parameter found"
    unpassed = [f"{mod}: {callee}({param})" for mod, callee, param, index in params
                if not any(_passes(call, param, index) for call in calls.get(callee, ()))]
    assert not unpassed, f"defaulted parameters never passed: {unpassed}"


# The standard-library modules the package imports at module level, which
# (with what they load in turn) its import may load beside numpy's: adding
# one is an edit here, so that import time, part of every command, only
# grows on purpose.
STDLIB_IMPORTS = ("__future__", "argparse", "collections.abc", "dataclasses", "enum",
                  "functools", "itertools", "math", "random", "sys", "typing")


def _fresh_modules(code: str) -> list[str]:
    """The number of fields built, then the modules loaded, after ``code``
    runs in a fresh interpreter that writes no bytecode."""
    probe = f"{code}; import sys; m = sorted(sys.modules); from mpcodes import gf; print(len(gf._SPECS), *m)"
    proc = subprocess.run([sys.executable, "-B", "-c", probe], capture_output=True, text=True,
                          check=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    return proc.stdout.split()


def test_import_builds_no_field_and_loads_only_numpy_and_listed_modules():
    """Importing the CLI builds no ``FieldSpec`` and loads no module
    beyond those of a bare interpreter, numpy's, the package's own and
    those of ``STDLIB_IMPORTS``."""
    specs, *loaded = _fresh_modules("import mpcodes.cli")
    assert specs == "0", f"import built {specs} fields"
    _, *allowed = _fresh_modules(f"import numpy, {', '.join(STDLIB_IMPORTS)}")
    extra = {m for m in loaded if m.split(".")[0] != "mpcodes"} - set(allowed)
    assert not extra, f"import loaded {sorted(extra)}"

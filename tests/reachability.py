"""Which lines of ``src/mpcodes`` no caller reaches, against a ledger.

The callers are the golden CLI commands of ``make_transcripts`` and,
for each benchmark workload at seed 0, its set-up, one run and the
answer check of every task.  They run in a fresh interpreter, traced
line by line in the frames of ``src/mpcodes`` only, so that import-time
and first-use lines count too.  A line is executable when the compiled
module maps an instruction to it.  Every line of a ``raise`` statement,
and the ``except`` line of a handler that only raises, is left out.

Every other line that does not run has an entry in ``tests/unreached.txt``,
keyed by file, function and line text (not line number), with one reason
from ``REASONS`` or ``covered: <tier-1 test id>`` for an input-dependent
branch that only that test reaches.  ``tests/test_reachability.py``
fails on an unreached line the ledger lacks and on a listed line that
runs.  From the repository root::

    python tests/reachability.py          # each unreached line and its reason
    python tests/reachability.py --write  # rewrite the ledger

The first prints one line per unreached line (``UNLISTED`` when the
ledger gives no reason) and per listed line that runs (``RUNS``).
``--write`` rewrites the ledger from the probe, keeping the reasons it
already gives; a new entry gets the reason ``UNLISTED``, to be replaced
by hand.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mpcodes"
LEDGER = Path(__file__).resolve().parent / "unreached.txt"
REASONS = ("exit-code contract", "entry point", "oracle independence", "test reference",
           "bench reader", "repr", "value semantics")
CALLERS = ("cli", "bench")
COVERED = "covered: "
UNLISTED = "UNLISTED"
HEADER = """\
# Lines of src/mpcodes that no golden CLI command and no benchmark task
# reaches, and why each is kept; see tests/reachability.py.
# One entry a line: file | function | reason | line text
"""


# -- the traced run, in its own interpreter -----------------------------

def _run_callers(part: str) -> None:
    """``cli``: every golden CLI command; ``bench``: each workload's
    set-up, one run and the answer check of every task at seed 0."""
    if part == "cli":
        import make_transcripts

        make_transcripts.record()
        return
    from bench import construct, discover, distance
    from bench.run import Context

    with tempfile.TemporaryDirectory() as tmp:
        for mod in (construct, distance, discover):
            ctx = Context(0, ROOT, Path(tmp), False)
            if hasattr(mod, "prepare"):
                ctx.prepared = mod.prepare(ctx)
            for task in mod.setup(ctx):
                value = task.run()
                task.check(task.answer(value) if task.answer else value)


def _traced(part: str) -> None:
    """Run one part of the callers under a line tracer and print, as
    JSON, the counted lines of each ``src/mpcodes`` file that ran.  A
    code object stops being traced once all its counted lines have run."""
    counted = {str(path): _counted(path) for path in SRC.glob("*.py")}
    left: dict = {}  # code object -> its counted lines not run yet
    tracer: dict = {}  # code object -> ``lines`` while it has lines left, else None

    def lines(frame, event, arg):
        todo = left[frame.f_code]
        todo.discard(frame.f_lineno)
        if not todo:
            frame.f_trace_lines = False
            tracer[frame.f_code] = None
        return lines

    def calls(frame, event, arg):
        try:
            return tracer[frame.f_code]
        except KeyError:
            code = frame.f_code
            # the first line, a def or decorator line, ran in the defining
            # scope; the code object's own line events never name it
            todo = left[code] = (_own_lines(code) & counted.get(code.co_filename, set())) \
                - {code.co_firstlineno}
            tracer[code] = lines if todo else None
            return tracer[code]

    sys.settrace(calls)
    try:
        _run_callers(part)
    finally:
        sys.settrace(None)
    ran: dict[str, set[int]] = {}
    for code, todo in left.items():
        if code.co_filename in counted:
            ran.setdefault(Path(code.co_filename).name, set()).update(
                _own_lines(code) & counted[code.co_filename] - todo)
    print(json.dumps({name: sorted(n) for name, n in ran.items()}))


def ran_lines() -> dict[str, set[int]]:
    """File name -> the lines that ran, from a fresh interpreter for each
    part of ``CALLERS``, the parts run side by side."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), str(ROOT), str(Path(__file__).resolve().parent)])}
    procs = [subprocess.Popen(
        [sys.executable, "-B", "-c", f"import reachability; reachability._traced({part!r})"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for part in CALLERS]
    outputs = [proc.communicate(timeout=600) for proc in procs]
    ran: dict[str, set[int]] = {}
    for proc, (out, err) in zip(procs, outputs):
        if proc.returncode:
            raise RuntimeError(f"probe failed:\n{err}")
        for name, lines in json.loads(out.splitlines()[-1]).items():
            ran.setdefault(name, set()).update(lines)
    return ran


# -- the static side: executable lines, functions, raise lines ----------

def _own_lines(code) -> set[int]:
    """The lines the code object's own instructions map to."""
    return {n for _, _, n in code.co_lines() if n}


def _code_lines(code) -> set[int]:
    """The lines of the code object and of every one nested in it."""
    out = _own_lines(code)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= _code_lines(const)
    return out


def _functions(tree: ast.Module) -> dict[int, str]:
    """Line -> qualified name of the innermost function or class holding it."""
    out: dict[int, str] = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                for n in range(child.lineno, child.end_lineno + 1):
                    out[n] = name
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def _raising(tree: ast.Module) -> set[int]:
    """Every line of a ``raise`` statement, and the ``except`` line of
    every handler whose body only raises."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            out.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, ast.ExceptHandler) and all(
                isinstance(s, ast.Raise) for s in node.body):
            out.add(node.lineno)
    return out


def _counted(path: Path) -> set[int]:
    """The executable lines of a module outside its raise statements."""
    text = path.read_text(encoding="utf-8")
    return _code_lines(compile(text, str(path), "exec")) - _raising(ast.parse(text))


def unreached(ran: dict[str, set[int]]) -> list[tuple[str, str, str, int]]:
    """(file, function, line text, line number) of every counted line that
    did not run, by file and line."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        funcs = _functions(ast.parse(text))
        out += [(path.name, funcs.get(n, "<module>"), source[n - 1].strip(), n)
                for n in sorted(_counted(path) - ran.get(path.name, set()))]
    return out


# -- the ledger ----------------------------------------------------------

def read_ledger() -> list[tuple[str, str, str, str]]:
    """(file, function, line text, reason) of every ledger entry."""
    entries = []
    for line in LEDGER.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, func, reason, text = (f.strip() for f in line.split(" | ", 3))
            entries.append((name, func, text, reason))
    return entries


def write_ledger(entries: list[tuple[str, str, str, str]]) -> None:
    LEDGER.write_text(HEADER + "".join(
        f"{name} | {func} | {reason} | {text}\n" for name, func, text, reason in entries),
        encoding="utf-8")


def compare(lines, entries) -> tuple[list, list]:
    """(unreached lines the ledger lacks, ledger entries whose line ran),
    matching by (file, function, text) with multiplicity."""
    listed = Counter(e[:3] for e in entries)
    unlisted = []
    for line in lines:
        if listed[line[:3]]:
            listed[line[:3]] -= 1
        else:
            unlisted.append(line)
    runs = [key for key, count in listed.items() for _ in range(count)]
    return unlisted, runs


def valid_reason(reason: str) -> bool:
    """Whether the reason is one of ``REASONS`` or names a test function
    that exists: ``covered: tests/test_x.py::test_y[param]``."""
    if reason in REASONS:
        return True
    if not reason.startswith(COVERED):
        return False
    file, sep, test = reason[len(COVERED):].partition("::")
    path = ROOT / file
    if not sep or path.parent != ROOT / "tests" or not path.is_file():
        return False
    name = test.split("[")[0]
    return any(isinstance(node, ast.FunctionDef) and node.name == name
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        sys.stderr.write("usage: python tests/reachability.py [--write]\n")
        return 2
    lines = unreached(ran_lines())
    entries = read_ledger() if LEDGER.exists() else []
    reasons: dict[tuple, list[str]] = {}
    for entry in entries:
        reasons.setdefault(entry[:3], []).append(entry[3])
    # each line takes the next reason the ledger gives for its key
    found = [(*line, (reasons.get(line[:3]) or [UNLISTED]).pop(0)) for line in lines]
    if argv:
        write_ledger([(name, func, text, reason) for name, func, text, _, reason in found])
        print(f"wrote {len(found)} entries to {LEDGER.relative_to(ROOT)}")
        return 0
    for name, func, text, n, reason in found:
        print(f"{name}:{n} {func} [{reason}] {text}")
    for name, func, text in compare(lines, entries)[1]:
        print(f"{name} {func} [RUNS] {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

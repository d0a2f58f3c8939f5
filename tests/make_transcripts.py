"""Golden CLI transcripts: the command matrix, its runner and a writer.

Each command runs in process through ``mpcodes.cli.main`` with the
working directory set to a scratch directory that holds a link to
``fixtures/`` and the malformed inputs of ``MALFORMED``; every path in
an argv is therefore relative, and the recorded output does not depend
on where the repository lives.  ``tests/test_transcripts.py`` replays
the recorded file.  After a deliberate output change, regenerate it
from the repository root and commit the result::

    python tests/make_transcripts.py

It prints one ``changed:``, ``added:`` or ``removed:`` line for each
argv whose recorded entry it alters.  It takes no arguments: given any,
``--help`` included, it prints its usage, exits 2 and writes nothing.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
TRANSCRIPTS = Path(__file__).resolve().parent / "cli_transcripts.json"

# Input files of the malformed and the token-spelling commands, written
# next to the fixture link before the matrix runs.
MALFORMED = {
    "bad/bad_header.code": "field p=x e=1\ncode 3 1\n1 1 1\n",
    "bad/bad_entry.mp": (
        "field p=2 e=1\ndefmatrix\nmatrix 1 1\n1\n"
        "constituent 1\ncode 3 1\n1 7 1\n"
    ),
    "bad/bad_index.mp": (
        "field p=2 e=1\ndefmatrix\nmatrix 1 1\n1\n"
        "constituent one\ncode 3 1\n1 1 1\n"
    ),
    "bad/big_field.code": "field p=257 e=1\ncode 3 1\n1 1 1\n",
    "bad/repeated_attr.code": "field p=3 e=1 p=2\ncode 3 1\n1 1 1\n",
    "bad/zero.code": "field p=2 e=1\ncode 4 0\n",
    "bad/bad_exponent.mp": (
        "field p=2 e=2\ndefmatrix\nmatrix 1 1\n1\n"
        "constituent 1\ncode 3 1\n1 a^3 1\n"
    ),
    "tokens/spelled.mp": (
        "field p=2 e=2\ndefmatrix\nmatrix 1 2\n01 a^01\n"
        "constituent 1\ncode 4 2\n+1 a^0 0 a^01\n0 01 a^01 a^2\n"
    ),
}
# Lenient spellings of valid tokens (printed in canonical tokens, exit
# 0) and an exponent outside GF(4)'s range (exit 10).
SPELLINGS = [["mp", "tokens/spelled.mp"], ["mp", "bad/bad_exponent.mp"]]

SEARCH_ARGS = ["--mode", "so", "--n", "9", "--dims", "1,2", "--target", "24"]
# A target below the Singleton bound (43 for this [45, 3] expansion) that
# no sample meets: the search runs all its attempts and exits 2.
CAPPED_SEARCH = ["search", "--matrix", "fixtures/f2_2x5_so_matrix.mat", "--mode", "so",
                 "--n", "9", "--dims", "1,2", "--target", "25", "--search-cap", "20"]
# Dual-containing searches: one that samples constituents, and one whose
# condition matrix no constituent choice can meet (exit 13).
DC_SEARCHES = (
    ["search", "--matrix", "fixtures/f5_2x2_dc_matrix.mat", "--mode", "dc",
     "--n", "6", "--dims", "4,4", "--search-cap", "50"],
    ["search", "--matrix", "fixtures/f2_2x5_so_matrix.mat", "--mode", "dc",
     "--n", "4", "--dims", "1,1"],
)
# Non-default distance caps: --enum-cap 1 sends every code to the
# information-set enumerator, and a small --lw-cap stops it at a bracket.
# Each runs with --machine; the first bracket variant also runs plain.
CAPS = (
    ["--enum-cap", "1", "--machine"],
    ["--enum-cap", "1", "--lw-cap", "20"],
    ["--enum-cap", "1", "--lw-cap", "20", "--machine"],
    ["--enum-cap", "1", "--lw-cap", "300", "--machine"],
    ["--enum-cap", "1", "--lw-cap", "1000", "--machine"],
)


def _extension_degree(path: Path) -> int:
    """e of the file's field header; 1 when there is none."""
    match = re.search(r"^field\b.*\be=(\d+)", path.read_text(), re.MULTILINE)
    return int(match.group(1)) if match else 1


def _malformed() -> list[list[str]]:
    f2 = "fixtures/f2_2x5_so.mp"
    mat = "fixtures/f2_2x5_so_matrix.mat"
    search = ["search", "--matrix", mat, "--mode", "so", "--n", "4"]
    return [
        ["info", "bad/bad_header.code"],
        ["dual", f2, "--ell", "3"],
        ["verify", f2, "--ell", "1"],
        search + ["--dims", "1,x"],
        ["check", f2, "--mode", "so", "--ell", "1"],
        ["mp", "bad/bad_entry.mp"],
        ["info", "bad/missing.code"],
        ["mp", "bad/bad_index.mp"],
        ["info", "bad/big_field.code"],
        ["info", "bad/repeated_attr.code"],
        search + ["--dims", "1,1", "--count", "0"],
        search + ["--dims", "1,1", "--count", "-1"],
        search + ["--dims", "1,1", "--search-cap", "-1"],
        ["verify", f2, "--oracle-cap", "-5"],
        ["mp", f2, "--enum-cap", "-1"],
        ["mp", f2, "--lw-cap", "-1"],
        ["info", "bad/zero.code", "--enum-cap", "-1"],
        ["check", f2, "--mode", "so", "--lw-cap", "-1"],
        ["verify", f2, "--enum-cap", "-1"],
        ["mp", f2, "--out", "bad/no_such_dir/x.code"],
        search + ["--dims", "1,1", "--out", "bad/no_such_dir/hit"],
        ["check", "fixtures/f4_2x4_so.mp"],  # --mode missing
    ]


def commands() -> list[list[str]]:
    """The argv of every recorded command, in replay order: every
    fixture under info, mp and search; every MP fixture under dual,
    check and verify at each valid ell; the dual-containing searches;
    a search that runs out of attempts; the malformed inputs; the token
    spellings; each of
    these plain and with --machine; then the capped distance runs of
    info, mp and dual."""
    base = []
    fixtures = sorted((ROOT / "fixtures").iterdir())
    for path in fixtures:
        rel = f"fixtures/{path.name}"
        base += [
            ["info", rel],
            ["mp", rel],
            ["search", "--matrix", rel, *SEARCH_ARGS],
        ]
        if path.suffix != ".mp":
            continue
        for ell in range(_extension_degree(path)):
            e = ["--ell", str(ell)]
            base += [
                ["dual", rel, *e],
                ["check", rel, "--mode", "so", *e],
                ["check", rel, "--mode", "dc", *e],
                ["verify", rel, *e],
            ]
    base += [*DC_SEARCHES, CAPPED_SEARCH]
    base += _malformed() + SPELLINGS
    out = [argv + extra for argv in base for extra in ([], ["--machine"])]
    for path in fixtures:
        rel = f"fixtures/{path.name}"
        capped = {
            ".code": [["info", rel]],
            ".mp": [["mp", rel], ["dual", rel, "--ell", "0"]],
        }.get(path.suffix, [])
        out += [argv + caps for argv in capped for caps in CAPS]
    return out


@contextlib.contextmanager
def sandbox():
    """A scratch working directory with ``fixtures`` and ``MALFORMED``,
    and a fixed terminal width for argparse's usage lines."""
    old_cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, COLUMNS="80"):
        os.symlink(ROOT / "fixtures", Path(tmp) / "fixtures")
        for name, text in MALFORMED.items():
            path = Path(tmp) / name
            path.parent.mkdir(exist_ok=True)
            path.write_text(text)
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(old_cwd)


def run(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one in-process CLI call; the
    outputs are kept as lists of lines with their line ends."""
    from mpcodes.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return {
        "argv": list(argv),
        "rc": rc,
        "stdout": out.getvalue().splitlines(keepends=True),
        "stderr": err.getvalue().splitlines(keepends=True),
    }


def record() -> list[dict]:
    with sandbox():
        return [run(argv) for argv in commands()]


def differences(old: list[dict], new: list[dict]) -> list[str]:
    """One ``changed:``, ``added:`` or ``removed:`` line per argv whose
    entry differs between two recordings, in the order of ``new`` and
    then of ``old``."""
    before = {tuple(e["argv"]): e for e in old}
    after = {tuple(e["argv"]): e for e in new}
    lines = []
    for argv, entry in after.items():
        if argv not in before:
            lines.append(f"added: {' '.join(argv)}")
        elif before[argv] != entry:
            lines.append(f"changed: {' '.join(argv)}")
    lines += [f"removed: {' '.join(argv)}" for argv in before if argv not in after]
    return lines


USAGE = """usage: python tests/make_transcripts.py

Rerun the CLI command matrix and rewrite tests/cli_transcripts.json,
printing one changed:, added: or removed: line per altered argv.  It
takes no arguments; with any, it prints this and writes nothing.
"""


def main(argv: list[str]) -> int:
    if argv:
        sys.stderr.write(USAGE)
        return 2
    old = json.loads(TRANSCRIPTS.read_text(encoding="utf-8")) if TRANSCRIPTS.exists() else []
    entries = record()
    for line in differences(old, entries):
        print(line)
    TRANSCRIPTS.write_text(
        json.dumps(entries, indent=1, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(entries)} transcripts to {TRANSCRIPTS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))

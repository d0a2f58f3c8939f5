"""Text file formats for fields, matrices, codes and MP descriptions.

Every file starts with a field header line::

    field p=<p> e=<e> mod=<c_0>,<c_1>,...,<c_e>

where ``mod=`` may be omitted to select the default modulus table entry.
Lines starting with ``#`` and blank lines are ignored everywhere.

A matrix body is ``matrix <rows> <cols>`` followed by one row per line
of whitespace-separated element tokens.  A code body is ``code <n> <k>``
followed by generator rows (any generating set; it is canonicalized on
load and its rank must equal the declared k).  An MP description is a
field header, a ``defmatrix`` section containing a matrix body, and one
``constituent <i>`` section per defining-matrix row, each containing a
code body.

Tokens are read and written through two tables built once per field:
canonical token -> encoding and encoding -> token.  Any other token
(``01``, ``+1``, ``a^01``, invalid ones) goes to ``parse_element``.
Parsed rows are valid, so they need no ``MatGF`` range check.

Check reports serialize as a ``verdict:`` line, a ``product:`` or
``zeta:`` matrix block, one ``witness i j <condition> ok|FAIL`` line per
condition and the ``note: pair:`` and ``note: path:`` lines of its path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gf import DEFAULT_MODULI, FieldSpec, format_element, parse_element
from .lincode import LinearCode
from .matgf import MatGF
from .mpcode import CheckPath, CheckReport, MPCode

__all__ = [
    "MPFileClaims",
    "ParseError",
    "dump_code",
    "dump_matrix",
    "dump_mp",
    "field_header",
    "load_code",
    "load_matrix",
    "load_mp",
    "parse_field_header",
    "report_lines",
]


class ParseError(ValueError):
    """A file format violation; the message names the offending line."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class MPFileClaims:
    """Dimensions declared in an MP file, next to what was parsed.

    ``constituent_claims`` holds one (declared_k, actual_k) pair per
    constituent; ``load_mp`` in strict mode rejects a mismatch, the
    verification command reports it as a disagreement.
    """

    constituent_claims: tuple[tuple[int, int], ...]

    def mismatches(self) -> list[tuple[int, int, int]]:
        """(index, declared_k, actual_k) for every wrong dimension claim."""
        return [
            (i, dk, ak)
            for i, (dk, ak) in enumerate(self.constituent_claims, start=1)
            if dk != ak
        ]


class _Lines:
    """Line cursor that skips comments and blanks, tracking numbers."""

    def __init__(self, text: str):
        self.raw = text.splitlines()
        self.pos = 0

    def peek(self) -> tuple[int, str] | None:
        pos = self.pos
        while pos < len(self.raw):
            stripped = self.raw[pos].strip()
            if stripped and not stripped.startswith("#"):
                return pos + 1, stripped
            pos += 1
        return None

    def next(self) -> tuple[int, str] | None:
        item = self.peek()
        if item is None:
            return None
        self.pos = item[0]
        return item


# ----------------------------------------------------------------------
# field header
# ----------------------------------------------------------------------

def field_header(spec: FieldSpec) -> str:
    base = f"field p={spec.p} e={spec.e}"
    if DEFAULT_MODULI.get(spec.q) == spec.modulus:
        return base
    return base + " mod=" + ",".join(str(c) for c in spec.modulus)


def _int(tok: str, lineno: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(lineno, f"bad {what} {tok!r}") from None


def parse_field_header(line: str, lineno: int = 1) -> FieldSpec:
    parts = line.split()
    if not parts or parts[0] != "field":
        raise ParseError(lineno, f"expected field header, got {line!r}")
    p = e = None
    modulus = None
    seen = set()
    for tok in parts[1:]:
        key = tok.partition("=")[0]
        if key in seen:
            raise ParseError(lineno, f"repeated field attribute {key}=")
        seen.add(key)
        if tok.startswith("p="):
            p = _int(tok[2:], lineno, "field characteristic")
        elif tok.startswith("e="):
            e = _int(tok[2:], lineno, "extension degree")
        elif tok.startswith("mod="):
            modulus = tuple(
                _int(c, lineno, "modulus coefficient") for c in tok[4:].split(",")
            )
        else:
            raise ParseError(lineno, f"unknown field attribute {tok!r}")
    if p is None or e is None:
        raise ParseError(lineno, "field header needs p= and e=")
    try:
        return FieldSpec(p, e, modulus)
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None


# ----------------------------------------------------------------------
# matrices
# ----------------------------------------------------------------------

@functools.cache
def _token_tables(spec: FieldSpec) -> tuple[dict[str, int], list[str]]:
    """(token -> encoding, encoding -> token) of the canonical tokens:
    each encoding integer, ``a`` and ``a^k`` for 0 <= k < max(q-1, 1)."""
    q = spec.q
    names = [str(x) for x in range(q)] + ["a"] + [f"a^{k}" for k in range(max(q - 1, 1))]
    return {t: parse_element(t, spec) for t in names}, [format_element(x, spec) for x in range(q)]


def _parse_row(spec: FieldSpec, lineno: int, line: str, cols: int) -> list[int]:
    toks = line.split()
    if len(toks) != cols:
        raise ParseError(lineno, f"expected {cols} entries, got {len(toks)}")
    enc = _token_tables(spec)[0]
    try:
        return [enc[t] if t in enc else parse_element(t, spec) for t in toks]
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None


def _parse_matrix_body(lines: _Lines, spec: FieldSpec) -> MatGF:
    item = lines.next()
    if item is None:
        raise ParseError(len(lines.raw) + 1, "missing matrix header")
    lineno, line = item
    parts = line.split()
    if len(parts) != 3 or parts[0] != "matrix":
        raise ParseError(lineno, f"expected 'matrix <rows> <cols>', got {line!r}")
    rows, cols = (_int(t, lineno, "matrix dimension") for t in parts[1:])
    if rows < 0 or cols < 0:
        raise ParseError(lineno, "matrix dimensions must be non-negative")
    data = []
    for _ in range(rows):
        item = lines.next()
        if item is None:
            raise ParseError(len(lines.raw) + 1, f"matrix body ended early ({len(data)}/{rows} rows)")
        data.append(_parse_row(spec, *item, cols))
    return MatGF._of(spec, np.array(data, dtype=np.uint8).reshape(rows, cols))


def _row_lines(spec: FieldSpec, data) -> list[str]:
    """One line of element tokens per row of an encoding array."""
    names = _token_tables(spec)[1]
    return [" ".join([names[x] for x in row]) for row in data.tolist()]


def _matrix_body_lines(m: MatGF) -> list[str]:
    return [f"matrix {m.rows} {m.cols}", *_row_lines(m.spec, m.data)]


def dump_matrix(m: MatGF) -> str:
    return "\n".join([field_header(m.spec)] + _matrix_body_lines(m)) + "\n"


def _load(text: str, body):
    """``body(lines, spec)`` after the field header; refuses an empty file
    and any content after the body."""
    lines = _Lines(text)
    item = lines.next()
    if item is None:
        raise ParseError(1, "empty file")
    spec = parse_field_header(item[1], item[0])
    out = body(lines, spec)
    trailing = lines.next()
    if trailing is not None:
        raise ParseError(trailing[0], f"unexpected trailing content {trailing[1]!r}")
    return out


def load_matrix(text: str) -> MatGF:
    return _load(text, _parse_matrix_body)


# ----------------------------------------------------------------------
# codes
# ----------------------------------------------------------------------

_SECTION_KEYWORDS = ("constituent", "defmatrix")


def _parse_code_body(
    lines: _Lines, spec: FieldSpec, strict: bool = True, label: str = ""
) -> tuple[LinearCode, int]:
    """Returns (code, declared_k); ``strict`` refuses a declared k other
    than the rank, naming the code by ``label``."""
    item = lines.next()
    if item is None:
        raise ParseError(len(lines.raw) + 1, "missing code header")
    lineno, line = item
    parts = line.split()
    if len(parts) != 3 or parts[0] != "code":
        raise ParseError(lineno, f"expected 'code <n> <k>', got {line!r}")
    n, k = (_int(t, lineno, "code parameter") for t in parts[1:])
    if n < 1 or k < 0 or k > n:
        raise ParseError(lineno, f"invalid code parameters [{n},{k}]")
    rows = []
    while True:
        nxt = lines.peek()
        if nxt is None or nxt[1].split()[0] in _SECTION_KEYWORDS:
            break
        rows.append(_parse_row(spec, *lines.next(), n))
    gen = MatGF._of(spec, np.array(rows, dtype=np.uint8).reshape(len(rows), n))
    code = LinearCode.from_generator(gen)
    if strict and code.k != k:
        raise ParseError(
            lineno, f"{label}declared dimension {k} but generator has rank {code.k}"
        )
    return code, k


def _code_body_lines(c: LinearCode) -> list[str]:
    return [f"code {c.n} {c.k}", *_row_lines(c.spec, c.gen.data)]


def dump_code(c: LinearCode) -> str:
    return "\n".join([field_header(c.spec), *_code_body_lines(c)]) + "\n"


def load_code(text: str) -> LinearCode:
    return _load(text, lambda lines, spec: _parse_code_body(lines, spec)[0])


# ----------------------------------------------------------------------
# MP descriptions
# ----------------------------------------------------------------------

def dump_mp(mp: MPCode) -> str:
    out = [field_header(mp.spec), "defmatrix", *_matrix_body_lines(mp.defmatrix)]
    for i, c in enumerate(mp.constituents, start=1):
        out += [f"constituent {i}", *_code_body_lines(c)]
    return "\n".join(out) + "\n"


def _parse_mp_body(lines: _Lines, spec: FieldSpec, strict: bool):
    """Returns (constituents, defmatrix, claims)."""
    item = lines.next()
    if item is None or item[1] != "defmatrix":
        lineno = item[0] if item else len(lines.raw) + 1
        raise ParseError(lineno, "expected 'defmatrix' section")
    defmatrix = _parse_matrix_body(lines, spec)
    if defmatrix.rows < 1:
        raise ParseError(item[0], "defining matrix needs at least one row")
    constituents = []
    claims = []
    for want in range(1, defmatrix.rows + 1):
        item = lines.next()
        if item is None:
            raise ParseError(len(lines.raw) + 1, f"missing 'constituent {want}' section")
        lineno, line = item
        parts = line.split()
        if len(parts) != 2 or parts[0] != "constituent":
            raise ParseError(lineno, f"expected 'constituent {want}', got {line!r}")
        if _int(parts[1], lineno, "constituent index") != want:
            raise ParseError(
                lineno, f"constituent sections out of order: expected {want}"
            )
        code, k = _parse_code_body(lines, spec, strict, f"constituent {want}: ")
        constituents.append(code)
        claims.append((k, code.k))
    return constituents, defmatrix, claims


def load_mp(text: str, *, strict: bool = True) -> tuple[MPCode, MPFileClaims]:
    constituents, defmatrix, claims = _load(
        text, lambda lines, spec: _parse_mp_body(lines, spec, strict)
    )
    lengths = {c.n for c in constituents}
    if len(lengths) != 1:
        raise ParseError(1, f"constituent lengths differ: {sorted(lengths)}")
    return MPCode(constituents, defmatrix), MPFileClaims(tuple(claims))


# ----------------------------------------------------------------------
# check reports
# ----------------------------------------------------------------------

def report_lines(report: CheckReport) -> list[str]:
    out = [f"verdict: {report.verdict.value}"]
    out.append("product:" if report.path is CheckPath.GRAM else "zeta:")
    out.extend(_matrix_body_lines(report.condition_matrix))
    for w in report.witnesses:
        out.append(
            f"witness {w.i} {w.j} {w.condition} {'ok' if w.ok else 'FAIL'}"
        )
    if report.block:
        out.append(f"note: pair: left={report.block} right={report.block}")
    if report.path is not CheckPath.GRAM:
        out.append(f"note: path: {report.path.value}")
    return out

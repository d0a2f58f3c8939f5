"""Matrix-product codes: construction, duals, and structural checks.

An MP code mixes M constituent codes of common length n through an
M x N defining matrix A: its generator is diag[G_1 .. G_M] (A kron I_n),
whose row block i is a_i kron G_i = [a_i1 G_i | .. | a_iN G_i].
This module provides

* ``expand``: the mixed code as a plain :class:`~mpcodes.lincode.LinearCode`,
  built by stacking the row blocks a_i kron G_i,
* closed-form l-Galois duals (``dual_full_rank`` for full-row-rank A,
  ``dual_general`` via a row partition otherwise),
* exact self-orthogonality and dual-containment checkers for every
  defining matrix, driven by the nonzero pattern of a small condition
  matrix (for a rank-deficient defining matrix that is not certified by
  its first partition block, dual containment is decided by one product
  against a parity-check matrix of the expansion),
* the dual-containment condition matrix ``zeta_matrix`` and its reading
  ``dc_conditions``, shared by the checkers and the search,
* two classical lower bounds on the minimum distance.

Row, column and constituent indices are 1-based everywhere, as in the
rest of the package.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .gf import FieldMismatchError, FieldSpec
from .lincode import DistanceBudget, LinearCode
from .matgf import DimensionError, MatGF, RankDeficientError

__all__ = [
    "CheckReport",
    "MPCode",
    "RowPartition",
    "Verdict",
    "Witness",
    "blackmore_bound",
    "cao_bound",
    "check_dual_containing_full_rank",
    "check_dual_containing_general",
    "check_self_orthogonal",
    "dc_conditions",
    "dual_full_rank",
    "dual_general",
    "expand",
    "row_partition",
    "zeta_matrix",
]


class MPCode:
    """Constituent codes plus a defining matrix.

    The defining matrix may be rank-deficient and may have more rows
    than columns; the only structural requirements are that every
    constituent has the same field and length and that the constituent
    count equals the number of defining-matrix rows.
    """

    __slots__ = ("constituents", "defmatrix")

    def __init__(self, constituents, defmatrix: MatGF):
        constituents = tuple(constituents)
        if not constituents:
            raise ValueError("at least one constituent required")
        spec = constituents[0].spec
        n = constituents[0].n
        for c in constituents:
            if c.spec != spec:
                raise FieldMismatchError("constituents over different fields")
            if c.n != n:
                raise DimensionError("constituent lengths differ")
        if defmatrix.spec != spec:
            raise FieldMismatchError("defining matrix over a different field")
        if defmatrix.rows != len(constituents):
            raise DimensionError(
                f"{len(constituents)} constituents but defining matrix has "
                f"{defmatrix.rows} rows"
            )
        if defmatrix.cols < 1:
            raise DimensionError("defining matrix needs at least one column")
        object.__setattr__(self, "constituents", constituents)
        object.__setattr__(self, "defmatrix", defmatrix)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("MPCode is immutable")

    @property
    def spec(self) -> FieldSpec:
        return self.constituents[0].spec

    @property
    def n(self) -> int:
        return self.constituents[0].n

    @property
    def num_constituents(self) -> int:
        return len(self.constituents)

    @property
    def width(self) -> int:
        return self.defmatrix.cols

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MPCode)
            and self.constituents == other.constituents
            and self.defmatrix == other.defmatrix
        )

    def __hash__(self) -> int:
        return hash((self.constituents, self.defmatrix))

    def __repr__(self) -> str:
        return (
            f"MPCode({self.num_constituents} constituents of length {self.n} "
            f"over GF({self.spec.q}), defining matrix "
            f"{self.defmatrix.rows}x{self.defmatrix.cols})"
        )


@dataclass(frozen=True)
class RowPartition:
    """Rows of a defining matrix split into independent blocks.

    Each block lists 1-based row indices whose rows are linearly
    independent; ``discarded`` collects zero rows, which contribute
    nothing to the code.
    """

    blocks: tuple[tuple[int, ...], ...]
    discarded: tuple[int, ...] = ()


class Verdict(Enum):
    HOLDS = "holds"
    FAILS = "fails"


@dataclass(frozen=True)
class Witness:
    """One required condition: position (i, j) in the condition matrix,
    a human-readable condition string, and whether it is satisfied."""

    i: int
    j: int
    condition: str
    ok: bool


@dataclass(frozen=True)
class CheckReport:
    """Verdict plus the condition matrix and per-entry witnesses.

    ``matrix_kind`` is ``"product"`` when the condition matrix is the
    Frobenius-twisted Gram product of the defining matrix (used by the
    self-orthogonality check) and ``"zeta"`` when it is the inverse used
    by the dual-containment checks.  The verdict is HOLDS iff every
    witness is satisfied, except on the dual-containment product path for
    rank-deficient defining matrices: there the condition matrix is empty,
    there are no witnesses, and a ``path:`` note says so.
    """

    verdict: Verdict
    condition_matrix: MatGF
    matrix_kind: str  # "product" | "zeta"
    witnesses: tuple[Witness, ...]
    notes: tuple[str, ...] = ()


# ----------------------------------------------------------------------
# construction and duals
# ----------------------------------------------------------------------

def expand(mp: MPCode) -> LinearCode:
    """The MP code as a canonical linear code of length n*N.

    By definition the generator is diag[G_1 .. G_M] (A kron I_n).  Its
    row block i is a_i kron G_i = [a_i1 G_i | .. | a_iN G_i], so the
    blocks are built one at a time and stacked; no intermediate is
    larger than the generator itself.
    """
    a = mp.defmatrix
    blocks = [
        a.row_submatrix([i]).kron(c.gen)
        for i, c in enumerate(mp.constituents, start=1)
    ]
    return LinearCode.from_generator(MatGF.vstack(blocks))


def _completion(a: MatGF, completion: MatGF | None = None) -> MatGF:
    """The given completion of a, checked to be invertible N x N with a
    as its first rows; else ``a.complete_to_invertible()``."""
    if completion is None:
        return a.complete_to_invertible()  # raises if rank-deficient
    m, n_cols = a.rows, a.cols
    if completion.rows != n_cols or completion.cols != n_cols:
        raise DimensionError("completion must be square of size N")
    if m > n_cols or completion.row_submatrix(list(range(1, m + 1))) != a:
        raise ValueError("completion does not extend the defining matrix")
    if completion.rank() != n_cols:
        raise RankDeficientError("completion is singular")
    return completion


def dual_full_rank(
    mp: MPCode, ell: int = 0, *, completion: MatGF | None = None
) -> tuple[MPCode, LinearCode]:
    """The l-Galois dual of an MP code with full-row-rank defining matrix.

    Returns the dual in MP form (constituent duals, padded with the
    whole-space code, mixed by the inverse-transpose of the Frobenius
    image of a completion) together with its expansion.  Any completion
    whose first M rows equal the defining matrix yields the same dual
    code; pass one explicitly to reproduce a specific presentation.
    """
    spec = mp.spec
    spec.check_ell(ell)
    a = mp.defmatrix
    twisted = _completion(a, completion).frobenius_map((spec.e - ell) % spec.e)
    mixer = twisted.inverse().T
    # equal constituents share one dual
    dual_of = {c: c.galois_dual(ell) for c in dict.fromkeys(mp.constituents)}
    duals = [dual_of[c] for c in mp.constituents]
    duals += [LinearCode.full(spec, mp.n)] * (a.cols - a.rows)
    dual_mp = MPCode(duals, mixer)
    return dual_mp, expand(dual_mp)


def row_partition(a: MatGF) -> RowPartition:
    """Greedy split of the rows into independent blocks.

    Scanning ascending row indices, each block takes every remaining row
    that is independent of the rows already in the block.  Zero rows
    contribute nothing and are listed in ``discarded`` instead.
    """
    nonzero = a.data.any(axis=1)
    remaining = [i for i in range(1, a.rows + 1) if nonzero[i - 1]]
    discarded = [i for i in range(1, a.rows + 1) if not nonzero[i - 1]]
    blocks: list[tuple[int, ...]] = []
    while remaining:
        # a row joins the block iff it is independent of the rows before
        # it, i.e. iff its column of the transpose is a pivot column; the
        # first remaining row is nonzero, so every block takes one row
        _, pivots = a.row_submatrix(remaining).T.rref()
        block = tuple(remaining[c - 1] for c in pivots)
        blocks.append(block)
        remaining = [i for i in remaining if i not in block]
    return RowPartition(tuple(blocks), tuple(discarded))


def _sub_mp(mp: MPCode, rows: tuple[int, ...]) -> MPCode:
    return MPCode(
        [mp.constituents[i - 1] for i in rows],
        mp.defmatrix.row_submatrix(list(rows)),
    )


def dual_general(mp: MPCode, ell: int = 0) -> LinearCode:
    """The l-Galois dual for any defining matrix.

    The code is written as a sum of MP codes with full-row-rank defining
    matrices (one per partition block); the dual is the intersection of
    their closed-form duals.  For a full-row-rank matrix this reduces to
    the expansion of :func:`dual_full_rank`.
    """
    spec = mp.spec
    spec.check_ell(ell)
    part = row_partition(mp.defmatrix)
    if not part.blocks:
        # all rows zero: the code is the zero code of length n*N
        return LinearCode.full(spec, mp.n * mp.width)
    result: LinearCode | None = None
    for block in part.blocks:
        _, block_dual = dual_full_rank(_sub_mp(mp, block), ell)
        result = block_dual if result is None else (result & block_dual)
    assert result is not None
    return result


# ----------------------------------------------------------------------
# self-orthogonality
# ----------------------------------------------------------------------

def check_self_orthogonal(mp: MPCode, ell: int = 0) -> CheckReport:
    """Exact l-Galois self-orthogonality test for any defining matrix.

    The condition matrix is the twisted Gram product of the defining
    matrix with itself; for each nonzero (i, j) entry, constituent i
    must lie in the l-Galois dual of constituent j, that is
    sigma^l(G_i) @ G_j^T = 0.  The verdict is an if-and-only-if.
    """
    mp.spec.check_ell(ell)
    a = mp.defmatrix
    cond = a.frobenius_map(ell) @ a.T
    twisted = [c.gen.frobenius_map(ell) for c in mp.constituents]
    witnesses = []
    for i in range(1, a.rows + 1):
        for j in range(1, a.rows + 1):
            if cond.data[i - 1, j - 1] == 0:
                continue
            ok = (twisted[i - 1] @ mp.constituents[j - 1].gen.T).is_zero()
            witnesses.append(
                Witness(i, j, f"C{i}<=dual_{ell}(C{j})", ok)
            )
    verdict = Verdict.HOLDS if all(w.ok for w in witnesses) else Verdict.FAILS
    return CheckReport(verdict, cond, "product", tuple(witnesses))


# ----------------------------------------------------------------------
# dual containment
# ----------------------------------------------------------------------

def zeta_matrix(a: MatGF, ell: int, completion: MatGF | None = None) -> MatGF:
    """The dual-containment condition matrix: the inverse of
    sigma^l(B) @ B^T for an invertible completion B of a."""
    b = _completion(a, completion)
    return (b.frobenius_map(ell) @ b.T).inverse()


def dc_conditions(zeta: MatGF, m: int) -> Iterator[tuple[int, int, int | None]]:
    """(i, j, forced) for each nonzero zeta entry, row-major, with m
    constituents: ``forced`` is 0 when i, j > m (no choice meets it), the
    index <= m when one of them exceeds m (that constituent must be the
    whole space), and None for the pair condition dual_l(C_i) <= C_j."""
    for i, j in (np.argwhere(zeta.data) + 1).tolist():
        lo, hi = min(i, j), max(i, j)
        yield i, j, None if hi <= m else 0 if lo > m else lo


def _dc_witnesses(
    zeta: MatGF, mp: MPCode, rows: tuple[int, ...], ell: int
) -> list[Witness]:
    """The four containment conditions read off the nonzero pattern of
    zeta, for a full-row-rank MP code whose constituents are the original
    constituents ``rows``.

    Condition strings name original constituent indices; the (i, j)
    coordinates address zeta itself.  With H spanning a constituent's
    Euclidean dual, dual_l(C_i) <= C_j iff sigma^(e-l)(H_i) @ H_j^T = 0.
    """
    twist = mp.spec.e - ell
    # each H is built at most once
    parity = functools.cache(LinearCode.parity_check)
    out: list[Witness] = []
    for i, j, forced in dc_conditions(zeta, mp.num_constituents):
        if forced == 0:
            out.append(Witness(i, j, f"zeta[{i},{j}]=0", False))
        elif forced is not None:
            c = mp.constituents[forced - 1]
            out.append(Witness(i, j, f"C{rows[forced - 1]}=F", c.is_full))
        else:
            h_i = parity(mp.constituents[i - 1]).frobenius_map(twist)
            ok = (h_i @ parity(mp.constituents[j - 1]).T).is_zero()
            out.append(
                Witness(i, j, f"dual_{ell}(C{rows[i - 1]})<=C{rows[j - 1]}", ok)
            )
    return out


def check_dual_containing_full_rank(
    mp: MPCode, ell: int = 0, *, completion: MatGF | None = None
) -> CheckReport:
    """Exact l-Galois dual-containment test for full-row-rank defining
    matrices.

    The condition matrix zeta is the inverse of the twisted Gram product
    of a completion of the defining matrix.  The verdict does not depend
    on the completion (zeta itself may); pass one to reproduce a
    specific zeta.
    """
    mp.spec.check_ell(ell)
    zeta = zeta_matrix(mp.defmatrix, ell, completion)
    wit = _dc_witnesses(zeta, mp, tuple(range(1, mp.num_constituents + 1)), ell)
    verdict = Verdict.HOLDS if all(w.ok for w in wit) else Verdict.FAILS
    return CheckReport(verdict, zeta, "zeta", tuple(wit))


def check_dual_containing_general(mp: MPCode, ell: int = 0) -> CheckReport:
    """Exact l-Galois dual-containment test for any defining matrix.

    A full-row-rank defining matrix goes to the exact zeta checker.
    Otherwise the MP code C_B of the first row-partition block B (which
    spans the row space of the defining matrix) lies in C, so if C_B is
    dual-containing, so is C: dual_l(C) <= dual_l(C_B) <= C_B <= C.  The
    four zeta conditions of C_B are tried first, and a certificate is
    reported with its zeta and witnesses (path "partition search").
    Failing that, the verdict is decided on the expansion (path
    "containment product (exact)", empty zeta, no witnesses): dual_l(C)
    has dimension nN - k, so it cannot lie in C when 2k < nN; else, with
    H spanning the Euclidean dual of C, dual_l(C) <= C iff
    sigma^(e-l)(H) @ H^T = 0.
    """
    spec = mp.spec
    spec.check_ell(ell)
    a = mp.defmatrix
    if a.rank() == a.rows:
        report = check_dual_containing_full_rank(mp, ell)
        return replace(report, notes=report.notes + ("path: full-rank (exact)",))

    blocks = row_partition(a).blocks
    if blocks:
        first = blocks[0]
        sub = _sub_mp(mp, first)
        zeta = zeta_matrix(sub.defmatrix, ell)
        wit = _dc_witnesses(zeta, sub, first, ell)
        if all(w.ok for w in wit):
            notes = (f"pair: left={first} right={first}", "path: partition search")
            return CheckReport(Verdict.HOLDS, zeta, "zeta", tuple(wit), notes)

    holds = expand(mp).is_galois_dual_containing(ell)
    return CheckReport(
        Verdict.HOLDS if holds else Verdict.FAILS,
        MatGF.zeros(spec, 0, 0),
        "zeta",
        (),
        ("path: containment product (exact)",),
    )


# ----------------------------------------------------------------------
# distance bounds
# ----------------------------------------------------------------------

def blackmore_bound(mp: MPCode, budget: DistanceBudget | None = None) -> int:
    """Lower bound min_i (N - i + 1) * d_i; requires a defining matrix
    that is non-singular by columns."""
    if not mp.defmatrix.is_nsc():
        raise ValueError("defining matrix is not non-singular by columns")
    n_cols = mp.width
    vals = []
    for i, c in enumerate(mp.constituents, start=1):
        d = c.min_distance(budget).d
        vals.append((n_cols - i + 1) * d)
    return min(vals)


def cao_bound(mp: MPCode, budget: DistanceBudget | None = None) -> int:
    """Lower bound min_i d_i * D_i, where D_i is the minimum distance of
    the length-N code generated by the first i defining-matrix rows;
    requires full row rank."""
    a = mp.defmatrix
    if a.rank() != a.rows:
        raise RankDeficientError("defining matrix must have full row rank")
    vals = []
    for i, c in enumerate(mp.constituents, start=1):
        d = c.min_distance(budget).d
        head = LinearCode.from_generator(a.row_submatrix(list(range(1, i + 1))))
        vals.append(d * head.min_distance(budget).d)
    return min(vals)

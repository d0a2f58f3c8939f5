"""Matrix-product codes: construction, duals, and structural checks.

An MP code mixes M constituent codes of common length n through an
M x N defining matrix A: its generator is diag[G_1 .. G_M] (A kron I_n),
whose row block i is a_i kron G_i = [a_i1 G_i | .. | a_iN G_i].
This module provides

* ``MPCode``, a frozen dataclass value like the other records here, so
  it compares, hashes, copies and pickles by its fields,
* ``expand``: the mixed code as a plain :class:`~mpcodes.lincode.LinearCode`.
  One row-block step builds two stacks, before any elimination: the
  generator stack [a_i kron G_i], sum k_i rows, and, for a full-row-rank
  A with completion B, the check stack [b'_i kron H_i] of the dual's MP
  form (Blackmore and Norton, AAECC 12, 2001), nN - sum k_i rows, with
  b' = (B^-1)^T, H_i the constituents' parity checks (read off with no
  elimination) and H_i = I_n for the rows the completion adds.  The
  check stack is eliminated when it has at most half the generator
  stack's rows, the generator stack otherwise: the min(k, n - k) rule
  of ``LinearCode.euclidean_dual`` lifted to MP codes,
* l-Galois duals: the closed form ``dual_full_rank`` for full-row-rank
  A, whose expansion takes the same rule, and ``dual_general`` for any
  A, which tries the closed form first (the completion's
  ``RankDeficientError`` is the full-row-rank test) and reads the dual
  for a rank-deficient A off the generator stack (the intersection of
  the row partition blocks' duals is the dual of their sum, the code
  itself), with one elimination when 2 sum k_i <= nN,
* one exact self-orthogonality and one exact dual-containment checker
  for every defining matrix, driven by the nonzero pattern of a small
  condition matrix (for a rank-deficient defining matrix that is not
  certified by its first partition block, dual containment is decided
  by one product against a parity-check matrix of the expansion),
* the dual-containment condition matrix ``zeta_matrix`` and its reading
  ``dc_conditions``, shared by the checker and the search.  Both duals,
  zeta and the check stack complete A with ``MatGF.completion``; no
  verdict and no code depends on that choice.  A matrix keeps its
  completion, so a search, which builds every candidate on one A,
  completes it once.

The checkers multiply only where a product can change a verdict.  Four
exact rules decide the rest from dimensions and symmetry, with the same
report as the product would give:

1. C_i <= dual_l(C_j) needs k_i <= n - k_j, the dual's dimension; a
   self-orthogonality witness with k_i + k_j > n fails unmultiplied.
2. dual_l(C_i) <= C_j needs n - k_i <= k_j; a dual-containment pair
   witness with k_i + k_j < n fails unmultiplied.
3. When 2l = 0 (mod e), sigma^l is an involution, so the l-Galois form
   is sigma^l-symmetric: sigma^l(sigma^l(X) Y^T)^T = sigma^l(Y) X^T.  A
   product X Y^T vanishes iff its mirror does, so witness (j, i) reuses
   the ok of (i, j).  For other l the mirrors differ in general.
4. The dual of C has dimension nN - dim C, and dim C is at most both the
   sum of k_i over the nonzero rows of A and rank(A) n.  When twice that
   bound is below nN, a rank-deficient C is not dual-containing, and no
   first partition block can certify it, as its code lies in C; the
   verdict is FAILS on the ``PRODUCT`` path, read before any zeta,
   witness or expansion.

Row, column and constituent indices are 1-based everywhere, as in the
rest of the package.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .gf import FieldMismatchError, FieldSpec
from .lincode import LinearCode
from .matgf import DimensionError, MatGF, RankDeficientError

__all__ = [
    "CheckPath",
    "CheckReport",
    "MPCode",
    "RowPartition",
    "Verdict",
    "Witness",
    "check_dual_containing_general",
    "check_self_orthogonal",
    "dc_conditions",
    "dual_full_rank",
    "dual_general",
    "expand",
    "row_partition",
    "zeta_matrix",
]


@dataclass(frozen=True, slots=True)
class MPCode:
    """Constituent codes plus a defining matrix.

    The defining matrix may be rank-deficient and may have more rows
    than columns; the only structural requirements are that every
    constituent has the same field and length and that the constituent
    count equals the number of defining-matrix rows.  ``constituents``
    is stored as a tuple.
    """

    constituents: tuple[LinearCode, ...]
    defmatrix: MatGF

    def __post_init__(self):
        constituents = tuple(self.constituents)
        if not constituents:
            raise ValueError("at least one constituent required")
        spec = constituents[0].spec
        n = constituents[0].n
        for c in constituents:
            if c.spec != spec:
                raise FieldMismatchError("constituents over different fields")
            if c.n != n:
                raise DimensionError("constituent lengths differ")
        defmatrix = self.defmatrix
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

    @property
    def spec(self) -> FieldSpec:
        return self.constituents[0].spec

    @property
    def n(self) -> int:
        return self.constituents[0].n


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


class CheckPath(Enum):
    """How a checker reached its verdict."""

    GRAM = "gram product"  # self-orthogonality, twisted Gram product of A
    FULL_RANK = "full-rank (exact)"  # first partition block is every row of A
    FIRST_BLOCK = "partition search"  # a proper first block's zeta certifies
    PRODUCT = "containment product (exact)"  # decided on the expansion


@dataclass(frozen=True)
class CheckReport:
    """Verdict plus the condition matrix, per-entry witnesses and path.

    The condition matrix is the Frobenius-twisted Gram product of the
    defining matrix on the ``GRAM`` path (the self-orthogonality check)
    and the inverse zeta on the dual-containment paths; ``block`` lists
    the rows of the first partition block on the ``FIRST_BLOCK`` path.
    The verdict is HOLDS iff every witness is satisfied, except on the
    ``PRODUCT`` path for rank-deficient defining matrices: there the
    condition matrix is empty and there are no witnesses.
    """

    verdict: Verdict
    condition_matrix: MatGF
    witnesses: tuple[Witness, ...]
    path: CheckPath
    block: tuple[int, ...] = ()


# ----------------------------------------------------------------------
# construction and duals
# ----------------------------------------------------------------------

def expand(mp: MPCode) -> LinearCode:
    """The MP code as a canonical linear code of length n*N, from the
    stack with fewer rows (see the module docstring).  A is completed
    only when its check stack would be taken; a rank-deficient A has
    none."""
    dual_matrix = None
    if _checks_win(mp):
        try:
            dual_matrix = mp.defmatrix.completion()[1]
        except RankDeficientError:
            pass
    return _expand(mp, dual_matrix)


def _expand(mp: MPCode, dual_matrix: MatGF | None) -> LinearCode:
    """:func:`expand`, given the dual matrix (B^-1)^T of a completion B
    of A, or None for an A with no check stack.  The check stack
    [b'_i kron H_i] is eliminated by ``LinearCode.from_parity_check``
    when it has at most half the rows of the generator stack
    [a_i kron G_i]; otherwise the generator stack is canonicalised.
    Near a tie the reversed elimination, which lacks the generator
    stack's identity columns, costs more."""
    a = mp.defmatrix
    if dual_matrix is not None and _checks_win(mp):
        checks = [c.parity_check() for c in mp.constituents]
        checks += [MatGF.identity(mp.spec, mp.n)] * (a.cols - a.rows)
        return LinearCode.from_parity_check(_stack(dual_matrix, checks))
    return LinearCode.from_generator(_stack(a, [c.gen for c in mp.constituents]))


def _checks_win(mp: MPCode) -> bool:
    """Whether A may have full row rank, M <= N, and its check stack, then
    nN - k rows, has at most half the k = sum k_i rows of the generator
    stack."""
    a = mp.defmatrix
    k = sum(c.k for c in mp.constituents)
    return a.rows <= a.cols and 2 * (mp.n * a.cols - k) <= k


def _stack(mixer: MatGF, blocks: list[MatGF]) -> MatGF:
    """The row blocks m_i kron X_i of the rows m_i of mixer, stacked, so
    that no intermediate is larger than the stack."""
    return MatGF.vstack([mixer.row_submatrix([i]).kron(x)
                         for i, x in enumerate(blocks, start=1)])


def dual_full_rank(mp: MPCode, ell: int = 0) -> tuple[MPCode, LinearCode]:
    """The l-Galois dual of an MP code with full-row-rank defining matrix.

    Returns the dual in MP form (constituent duals, padded with the
    whole-space code, mixed by the inverse-transpose of the Frobenius
    image ``twisted`` of the completion of A) together with its
    expansion.  Every completion gives the same dual code; only the MP
    form depends on it.  The mixer is square, so ``twisted`` is its dual
    matrix, and the expansion takes :func:`_expand`'s rule with no second
    completion.  A rank-deficient A raises RankDeficientError.
    """
    spec = mp.spec
    spec.check_ell(ell)
    a = mp.defmatrix
    level = (spec.e - ell) % spec.e
    b, dual_matrix = a.completion()
    twisted, mixer = b.frobenius_map(level), dual_matrix.frobenius_map(level)
    # equal constituents share one dual
    dual_of = {c: c.galois_dual(ell) for c in dict.fromkeys(mp.constituents)}
    duals = [dual_of[c] for c in mp.constituents]
    duals += [LinearCode.full(spec, mp.n)] * (a.cols - a.rows)
    dual_mp = MPCode(duals, mixer)
    return dual_mp, _expand(dual_mp, twisted)


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


def dual_general(mp: MPCode, ell: int = 0) -> LinearCode:
    """The l-Galois dual for any defining matrix.

    The closed form of :func:`dual_full_rank` is tried first; it costs
    less than eliminating the expansion, and the completion's
    ``RankDeficientError`` is the full-row-rank test.  For a
    rank-deficient A, C is the sum of the MP codes C_B of the
    row-partition blocks B, and the intersection of their closed-form
    duals is dual_l(sum_B C_B) = dual_l(C); so the dual is read off the
    generator stack directly.  Its Frobenius image sigma^(e-l) is a
    parity-check matrix of dual_l(C), eliminated once when 2 sum k_i <=
    nN; otherwise C and then its dual are eliminated.
    """
    try:
        return dual_full_rank(mp, ell)[1]
    except RankDeficientError:
        gen = _stack(mp.defmatrix, [c.gen for c in mp.constituents])
        if 2 * gen.rows <= gen.cols:
            return LinearCode.from_parity_check(
                gen.frobenius_map((mp.spec.e - ell) % mp.spec.e))
        return LinearCode.from_generator(gen).galois_dual(ell)


# ----------------------------------------------------------------------
# self-orthogonality
# ----------------------------------------------------------------------

def check_self_orthogonal(mp: MPCode, ell: int = 0) -> CheckReport:
    """Exact l-Galois self-orthogonality test for any defining matrix.

    The condition matrix is the twisted Gram product of the defining
    matrix with itself; for each nonzero (i, j) entry, constituent i
    must lie in the l-Galois dual of constituent j, that is
    sigma^l(G_i) @ G_j^T = 0 (one witness per entry, row-major).  The
    verdict is an if-and-only-if.  The Gram product is the only product
    that always runs: a witness with k_i + k_j > n fails by dimension,
    and when 2l = 0 (mod e) the mirror (j, i) of a witness repeats its ok
    (rules 1 and 3 of the module).
    """
    mp.spec.check_ell(ell)
    a = mp.defmatrix
    cond = a.frobenius_map(ell) @ a.T
    cons = mp.constituents
    ok = _orthogonal(mp, lambda i: cons[i - 1].gen, [c.k for c in cons], ell)
    witnesses = tuple(Witness(i, j, f"C{i}<=dual_{ell}(C{j})", ok(i, j))
                      for i, j in (np.argwhere(cond.data) + 1).tolist())
    verdict = Verdict.HOLDS if all(w.ok for w in witnesses) else Verdict.FAILS
    return CheckReport(verdict, cond, witnesses, CheckPath.GRAM)


def _orthogonal(mp: MPCode, gen, dims: list[int], level: int):
    """ok(i, j) of X_i <= dual_level(X_j), where gen(i) holds the dims[i-1]
    independent rows of X_i, of length n.  dual_level(X_j) has dimension
    n - dims[j-1], so dims summing above n fail with no product (rule 1).
    When 2 level = 0 (mod e), sigma^level(G_j) @ G_i^T is the transpose of
    sigma^level applied to sigma^level(G_i) @ G_j^T, so a pair and its
    mirror share one product (rule 3).  Each sigma^level(gen(i)) is built
    at most once, and only for a pair that takes a product."""
    twisted = functools.cache(lambda i: gen(i).frobenius_map(level))
    ok = functools.cache(lambda i, j: dims[i - 1] + dims[j - 1] <= mp.n and (
        twisted(i) @ gen(j).T).is_zero())
    return ok if 2 * level % mp.spec.e else lambda i, j: ok(min(i, j), max(i, j))


# ----------------------------------------------------------------------
# dual containment
# ----------------------------------------------------------------------

def zeta_matrix(a: MatGF, ell: int) -> MatGF:
    """The dual-containment condition matrix of a full-row-rank a: the
    inverse of sigma^l(B) @ B^T for B = ``a.complete_to_invertible()``,
    which is D @ sigma^l(D)^T for B's dual matrix D = (B^-1)^T (zeta
    depends on B, the verdict read off it does not)."""
    dual_matrix = a.completion()[1]
    return dual_matrix @ dual_matrix.frobenius_map(ell).T


def dc_conditions(zeta: MatGF, m: int) -> Iterator[tuple[int, int, int | None]]:
    """(i, j, forced) for each nonzero zeta entry, row-major, with m
    constituents: ``forced`` is 0 when i, j > m (no choice meets it), the
    index <= m when one of them exceeds m (that constituent must be the
    whole space), and None for the pair condition dual_l(C_i) <= C_j."""
    for i, j in (np.argwhere(zeta.data) + 1).tolist():
        lo, hi = min(i, j), max(i, j)
        yield i, j, None if hi <= m else 0 if lo > m else lo


def _dc_witnesses(
    zeta: MatGF, mp: MPCode, ell: int, rows: tuple[int, ...] | None = None
) -> Iterator[Witness]:
    """The four containment conditions read off the nonzero pattern of
    zeta, row-major, for a full-row-rank MP code whose constituents are
    the original constituents ``rows`` (default: all of them, in order).

    Condition strings name original constituent indices; the (i, j)
    coordinates address zeta itself.  As dual_(e-l)(dual_l(C)) = C,
    dual_l(C_i) <= C_j iff D_i <= dual_(e-l)(D_j) for D = dual_l(C): with
    H spanning a constituent's Euclidean dual, sigma^(e-l)(H_i) @ H_j^T =
    0, the pair test of :func:`_orthogonal` on the n - k rows of the Hs
    (whose rule 1 is rule 2 on the constituents).
    """
    cons = mp.constituents
    rows = rows or range(1, len(cons) + 1)
    parity = functools.cache(LinearCode.parity_check)  # equal codes share one H
    ok = _orthogonal(mp, lambda i: parity(cons[i - 1]), [mp.n - c.k for c in cons],
                     (mp.spec.e - ell) % mp.spec.e)
    for i, j, forced in dc_conditions(zeta, len(cons)):
        if forced == 0:
            yield Witness(i, j, f"zeta[{i},{j}]=0", False)
        elif forced is not None:
            yield Witness(i, j, f"C{rows[forced - 1]}=F", cons[forced - 1].is_full)
        else:
            yield Witness(i, j, f"dual_{ell}(C{rows[i - 1]})<=C{rows[j - 1]}", ok(i, j))


def check_dual_containing_general(mp: MPCode, ell: int = 0) -> CheckReport:
    """Exact l-Galois dual-containment test for any defining matrix.

    One row partition of the defining matrix A decides the path.  Its
    first block B spans the row space of A, and the MP code C_B of its
    rows lies in C.  If B holds every row, A has full row rank and the
    four conditions on the nonzero pattern of the zeta of C_B are the
    exact verdict (path ``FULL_RANK``).  Otherwise C has dimension
    k <= min(sum of k_i over the nonzero rows, rank(A) n), and its dual
    has dimension nN - k; when twice that bound is below nN the dual
    cannot lie in C, nor in C_B <= C, so no first block can certify and
    the verdict is FAILS on the ``PRODUCT`` path with no zeta, witness or
    expansion.  Else, if the conditions of B all hold, C_B is
    dual-containing and so is C: dual_l(C) <= dual_l(C_B) <= C_B <= C
    (path ``FIRST_BLOCK``, with ``block`` = B).  Failing that, or for an
    all-zero A, the verdict is decided on the expansion (path
    ``PRODUCT``, empty zeta, no witnesses): with H spanning the Euclidean
    dual of C, dual_l(C) <= C iff 2k >= nN and sigma^(e-l)(H) @ H^T = 0.
    """
    spec = mp.spec
    spec.check_ell(ell)
    a = mp.defmatrix
    blocks = row_partition(a).blocks
    first = blocks[0] if blocks else ()
    k_max = min(sum(mp.constituents[i - 1].k for b in blocks for i in b), len(first) * mp.n)
    fits = 2 * k_max >= mp.n * a.cols
    if first and (fits or len(first) == a.rows):
        sub = MPCode([mp.constituents[i - 1] for i in first], a.row_submatrix(list(first)))
        zeta = zeta_matrix(sub.defmatrix, ell)
        wit = tuple(_dc_witnesses(zeta, sub, ell, first))
        holds = all(w.ok for w in wit)
        if len(first) == a.rows:
            verdict = Verdict.HOLDS if holds else Verdict.FAILS
            return CheckReport(verdict, zeta, wit, CheckPath.FULL_RANK)
        if holds:
            return CheckReport(Verdict.HOLDS, zeta, wit, CheckPath.FIRST_BLOCK, first)

    holds = fits and expand(mp).is_galois_dual_containing(ell)
    verdict = Verdict.HOLDS if holds else Verdict.FAILS
    return CheckReport(verdict, MatGF.zeros(spec, 0, 0), (), CheckPath.PRODUCT)

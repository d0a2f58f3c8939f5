"""Brute-force ground truth for codes, duals and orthogonality checks.

Everything here recomputes results from definitions: codewords by
explicit spanning, duals by testing inner products against every
codeword (or by an elimination routine local to this module), weights by
counting.  What is shared with the structured modules is the field
arithmetic of :mod:`mpcodes.gf`, its scalar tables and its bulk ones
(``add_arr``, ``mul_arr``, ``sum_arr``, ``frobenius_arr``).  No product,
row reduction or kernel of :mod:`mpcodes.matgf` or :mod:`mpcodes.lincode`
takes part in any decision, so a bug there cannot hide from a
cross-check against this module; ``LinearCode.from_generator`` only
packages a dual found here as a code for comparison.

Words are uint8 arrays with one row per vector.  Inner products
sum_j x_j * y_j^(p^l) of many rows x against a few vectors y are one
bulk product followed by a field sum along the rows.  Rows are tested
``_BLOCK`` at a time; a row is dropped as soon as one of its products is
nonzero, and only the survivors meet the next vectors, as many at once
as keep the product within ``_CELLS`` entries.  The ambient scan of the
dual walks the q^n candidates in ``itertools.product`` order, q^b of
them per block (the largest q^b <= ``_BLOCK``, b <= n): a fixed prefix
of n - b digits followed by every suffix of b digits.  It takes each
block's Frobenius image once, so its working memory is a few blocks,
not q^n.

Containment is decided as everywhere else in the package, X <= Y iff
every word of X is orthogonal to a basis of Y's dual, but with the
elimination and the inner products of this module.

All operations are capped; exceeding a cap raises
:class:`OracleCapError` rather than silently degrading, and a negative
cap is refused with ``ValueError``.  What ``cap`` bounds:

* ``enumerate_codewords``, ``min_distance_exhaustive``: the q^k
  codewords listed;
* ``dual_vectors_by_definition``, ``dual_by_definition``: the ambient
  scan runs only when its work, q^n candidates times q^k codewords, fits;
  otherwise the dual's q^(n-k) vectors must fit (the first lists them
  all, the second builds the code from the n - k basis rows alone);
* ``so_by_definition``: pairs of codewords are tested only when
  q^k <= min(64, cap);
* ``is_subset_by_enumeration(a, b)``: the q^k words of ``a``, the only
  code enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .gf import FieldSpec
from .lincode import LinearCode
from .matgf import MatGF

__all__ = [
    "CodewordSet",
    "OracleCapError",
    "dual_by_definition",
    "dual_vectors_by_definition",
    "enumerate_codewords",
    "is_subset_by_enumeration",
    "min_distance_exhaustive",
    "orthogonal_by_definition",
    "so_by_definition",
]

DEFAULT_CAP = 1 << 20

# Above this codeword count, definitional checks that would iterate over
# all pairs fall back to generator-based forms (still computed with
# arithmetic local to this module).
_PAIRWISE_LIMIT = 1 << 6

# Rows tested at once: a block of 4096 words of length 20 takes 80 KiB,
# and its product with one vector about ten times that in temporaries.
_BLOCK = 1 << 12
# Entries of a product of rows with several vectors, once the survivors
# are few enough for more than one vector to fit.
_CELLS = 1 << 14


class OracleCapError(RuntimeError):
    """The requested brute-force computation exceeds its cap."""


@dataclass(frozen=True, eq=False)
class CodewordSet:
    """The full codeword list of a linear code: ``array`` holds one
    uint8 row per codeword, sorted lexicographically."""

    n: int
    array: np.ndarray

    @cached_property
    def words(self) -> tuple[tuple[int, ...], ...]:
        """The codewords as sorted tuples."""
        return tuple(map(tuple, self.array.tolist()))


def _check_cap(cap: int) -> None:
    if cap < 0:
        raise ValueError(f"oracle cap {cap} must be >= 0")


def _span(spec: FieldSpec, rows: np.ndarray, n: int) -> np.ndarray:
    """Every F_q-combination of ``rows``, one per row of the result,
    sorted lexicographically (the order of ``itertools.product``)."""
    words = np.zeros((1, n), dtype=np.uint8)
    scalars = np.arange(spec.q, dtype=np.uint8)[:, None]
    for row in rows:
        multiples = spec.mul_arr(scalars, row)
        words = spec.add_arr(multiples[:, None, :], words).reshape(-1, n)
    # lexsort needs a key; at n = 0 the span is the one empty word
    return words[np.lexsort(words.T[::-1])] if n else words


def _distinct(words: np.ndarray) -> int:
    """The number of distinct rows of a sorted, non-empty word array."""
    return 1 + int(np.count_nonzero(np.any(words[1:] != words[:-1], axis=1)))


def _orthogonal_rows(spec: FieldSpec, rows: np.ndarray, checks: np.ndarray) -> np.ndarray:
    """Indices, in increasing order, of the rows x of ``rows`` with
    sum_j x_j * y_j = 0 for every row y of ``checks``.

    Rows are taken ``_BLOCK`` at a time.  The rows still orthogonal meet
    the next few y at once, as many as keep the product within
    ``_CELLS`` entries, so that the count of y per step grows as the
    survivors thin out.
    """
    n = rows.shape[1]
    checks = checks[np.any(checks, axis=1)]  # every row is orthogonal to 0
    found = [np.zeros(0, dtype=np.intp)]
    for start in range(0, len(rows), _BLOCK):
        keep = np.arange(start, min(start + _BLOCK, len(rows)))
        t = 0
        while t < len(checks) and keep.size:
            step = max(1, _CELLS // (keep.size * n))
            prods = spec.mul_arr(rows[keep][:, None, :], checks[None, t : t + step])
            keep = keep[~np.any(spec.sum_arr(prods, axis=2), axis=1)]
            t += step
        found.append(keep)
    return np.concatenate(found)


def orthogonal_by_definition(spec: FieldSpec, a, b, ell: int = 0) -> bool:
    """Whether <x, y>_ell = sum_j x_j * y_j^(p^ell) vanishes for every
    row x of ``a`` and every row y of ``b`` (2-D encoding arrays)."""
    spec.check_ell(ell)
    a = np.asarray(a, dtype=np.uint8)
    fb = spec.frobenius_arr(np.asarray(b, dtype=np.uint8), ell)
    return len(_orthogonal_rows(spec, a, fb)) == len(a)


def enumerate_codewords(code: LinearCode, cap: int = DEFAULT_CAP) -> CodewordSet:
    """All q^k codewords, built by spanning the generator rows."""
    _check_cap(cap)
    total = code.spec.q**code.k
    if total > cap:
        raise OracleCapError(f"q^k = {total} exceeds cap {cap}")
    words = _span(code.spec, code.gen.data, code.n)
    count = _distinct(words)
    if count != total:
        raise AssertionError(f"span produced {count} words, expected {total}")
    return CodewordSet(code.n, words)


def min_distance_exhaustive(code: LinearCode, cap: int = DEFAULT_CAP) -> int:
    """Minimum weight over all nonzero codewords."""
    if code.k == 0:
        raise ValueError("the zero code has no minimum distance")
    weights = np.count_nonzero(enumerate_codewords(code, cap).array, axis=1)
    return int(weights[weights > 0].min())


def _scan_fits(code: LinearCode, cap: int) -> bool:
    """Whether the ambient scan's work, q^n candidates times q^k
    codewords, fits under ``cap``."""
    return code.spec.q ** (code.n + code.k) <= cap


def _scan_dual(code: LinearCode, ell: int, cap: int) -> np.ndarray:
    """The l-Galois dual's vectors in ``itertools.product`` order, by
    testing every ambient vector against the full codeword list."""
    spec, n = code.spec, code.n
    q = spec.q
    words = enumerate_codewords(code, cap).array
    # a block is one prefix of n - b digits followed by all q^b suffixes
    b = 0
    while b < n and q ** (b + 1) <= _BLOCK:
        b += 1
    block = np.empty((q**b, n), dtype=np.uint8)
    block[:, n - b :] = np.indices((q,) * b, dtype=np.uint8).reshape(b, q**b).T
    found = []
    for prefix in product(range(q), repeat=n - b):
        block[:, : n - b] = prefix
        # <w, x>_ell = sum_j w_j * sigma^ell(x_j): the candidate x is the
        # Frobenius-mapped slot
        keep = _orthogonal_rows(spec, spec.frobenius_arr(block, ell), words)
        found.append(block[keep])
    out = np.concatenate(found)
    expected = q ** (n - code.k)
    if len(out) != expected:
        raise AssertionError(
            f"definition scan found {len(out)} vectors, expected {expected}"
        )
    return out


def _dual_basis(code: LinearCode, ell: int, cap: int) -> np.ndarray:
    """A basis of the l-Galois dual by local elimination, refused when
    the dual has more than ``cap`` vectors."""
    expected = code.spec.q ** (code.n - code.k)
    if expected > cap:
        raise OracleCapError(
            f"dual has q^(n-k) = {expected} vectors, exceeds cap {cap}"
        )
    return _solve_orthogonal_basis(code.spec, code.gen.data, ell)


def dual_vectors_by_definition(
    code: LinearCode, ell: int = 0, cap: int = DEFAULT_CAP
) -> list[tuple[int, ...]]:
    """All vectors whose l-Galois product with every codeword vanishes,
    sorted lexicographically.

    When the scan's work, q^n candidates times q^k codewords, fits under
    ``cap`` this scans the whole ambient space against the full codeword
    list; otherwise it spans the basis solved by an elimination routine
    local to this module.
    """
    _check_cap(cap)
    spec = code.spec
    spec.check_ell(ell)
    if _scan_fits(code, cap):
        vecs = _scan_dual(code, ell, cap)
    else:
        vecs = _span(spec, _dual_basis(code, ell, cap), code.n)
        if _distinct(vecs) != spec.q ** (code.n - code.k):
            raise AssertionError("orthogonal span has wrong size")
    return list(map(tuple, vecs.tolist()))


def _solve_orthogonal_basis(spec: FieldSpec, gen: np.ndarray, ell: int) -> np.ndarray:
    """Basis of {x : <row, x>_ell = 0 for all rows of gen}, by substitution.

    Written independently of the matrix module: forward elimination on a
    scalar list-of-lists system G * y = 0 (with y the Frobenius image of
    x), then free-variable back-substitution, then the inverse Frobenius
    map applied to each solution.  Returns one uint8 row per basis vector.
    """
    n = gen.shape[1]
    sys_rows = gen.tolist()
    pivots: list[tuple[int, int]] = []  # (row, col), 0-based
    used_cols: set[int] = set()
    for row_idx in range(len(sys_rows)):
        # find a pivot column for this row among unused columns
        row = sys_rows[row_idx]
        pc = next((c for c in range(n) if row[c] != 0 and c not in used_cols), None)
        if pc is None:
            continue
        inv = spec.inv(row[pc])
        sys_rows[row_idx] = [spec.mul(inv, x) for x in row]
        for other in range(len(sys_rows)):
            if other != row_idx and sys_rows[other][pc] != 0:
                f = sys_rows[other][pc]
                sys_rows[other] = [
                    spec.sub(x, spec.mul(f, y))
                    for x, y in zip(sys_rows[other], sys_rows[row_idx])
                ]
        pivots.append((row_idx, pc))
        used_cols.add(pc)
    free_cols = [c for c in range(n) if c not in used_cols]
    basis = []
    inv_ell = (spec.e - ell) % spec.e
    for f in free_cols:
        y = [0] * n
        y[f] = 1
        for row_idx, pc in pivots:
            y[pc] = spec.neg(sys_rows[row_idx][f])
        # x = inverse Frobenius image of y
        basis.append([spec.frobenius(v, inv_ell) for v in y])
    return np.array(basis, dtype=np.uint8).reshape(len(basis), n)


def dual_by_definition(
    code: LinearCode, ell: int = 0, cap: int = DEFAULT_CAP
) -> LinearCode:
    """The l-Galois dual, packaged as a canonical LinearCode.

    It is built from the scanned vectors when the ambient scan fits
    under ``cap``, else from the n - k rows of the solved basis.
    """
    _check_cap(cap)
    code.spec.check_ell(ell)
    if _scan_fits(code, cap):
        rows = _scan_dual(code, ell, cap)[1:]  # the zero vector sorts first
    else:
        rows = _dual_basis(code, ell, cap)
    return LinearCode.from_generator(MatGF._of(code.spec, rows))


def so_by_definition(code: LinearCode, ell: int = 0, cap: int = DEFAULT_CAP) -> bool:
    """Is the code l-Galois self-orthogonal?

    Tiny codes are checked over every pair of codewords; larger ones via
    the products of the generator rows.
    """
    _check_cap(cap)
    spec = code.spec
    spec.check_ell(ell)
    if spec.q**code.k <= min(_PAIRWISE_LIMIT, cap):
        vecs = enumerate_codewords(code, cap).array
    else:
        vecs = code.gen.data
    return orthogonal_by_definition(spec, vecs, vecs, ell)


def is_subset_by_enumeration(
    a: LinearCode, b: LinearCode, cap: int = DEFAULT_CAP
) -> bool:
    """Set-level containment check: every codeword of a is orthogonal to
    a basis of b's Euclidean dual, so lies in b.  Only a is enumerated."""
    if a.spec != b.spec or a.n != b.n:
        raise ValueError("codes are not comparable")
    checks = _solve_orthogonal_basis(a.spec, b.gen.data, 0)
    words = enumerate_codewords(a, cap).array
    return len(_orthogonal_rows(a.spec, words, checks)) == len(words)

"""Brute-force ground truth for codes, duals and orthogonality checks.

Everything here recomputes results from definitions: codewords by
explicit spanning, duals by testing inner products against every
codeword (or by an elimination routine local to this module), weights by
counting.  Only scalar field arithmetic is shared with the structured
modules; none of the row-reduction or kernel machinery is reused, so a
bug there cannot hide from a cross-check against this module.

Containment is decided as everywhere else in the package, X <= Y iff
every word of X is orthogonal to a basis of Y's dual, but with the
elimination and the inner products of this module.

All operations are capped; exceeding a cap raises
:class:`OracleCapError` rather than silently degrading.  What ``cap``
bounds:

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
from itertools import product

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
    "scalar_inner",
    "so_by_definition",
]

DEFAULT_CAP = 1 << 20

# Above this codeword count, definitional checks that would iterate over
# all pairs fall back to generator-based forms (still computed with
# scalar arithmetic local to this module).
_PAIRWISE_LIMIT = 1 << 6


class OracleCapError(RuntimeError):
    """The requested brute-force computation exceeds its cap."""


@dataclass(frozen=True)
class CodewordSet:
    """The full codeword list of a linear code, as sorted tuples."""

    n: int
    words: tuple[tuple[int, ...], ...]

    def __contains__(self, word) -> bool:
        return tuple(word) in set(self.words)

    def as_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.words)


def _gen_rows(code: LinearCode) -> list[tuple[int, ...]]:
    return [tuple(int(x) for x in row) for row in code.gen.data]


def enumerate_codewords(code: LinearCode, cap: int = DEFAULT_CAP) -> CodewordSet:
    """All q^k codewords, built by spanning the generator rows."""
    spec = code.spec
    q = spec.q
    total = q**code.k
    if total > cap:
        raise OracleCapError(f"q^k = {total} exceeds cap {cap}")
    words = {tuple([0] * code.n)}
    for row in _gen_rows(code):
        new = set()
        for lam in range(1, q):
            scaled = tuple(spec.mul(lam, x) for x in row)
            for w in words:
                new.add(tuple(spec.add(a, b) for a, b in zip(w, scaled)))
        words |= new
    if len(words) != total:
        raise AssertionError(
            f"span produced {len(words)} words, expected {total}"
        )
    return CodewordSet(code.n, tuple(sorted(words)))


def min_distance_exhaustive(code: LinearCode, cap: int = DEFAULT_CAP) -> int:
    """Minimum weight over all nonzero codewords."""
    if code.k == 0:
        raise ValueError("the zero code has no minimum distance")
    words = enumerate_codewords(code, cap).words
    return min(sum(1 for x in w if x) for w in words if any(w))


def scalar_inner(spec: FieldSpec, a, b, ell: int) -> int:
    """The l-Galois inner product of two encoding sequences, via scalar ops."""
    acc = 0
    for x, y in zip(a, b):
        acc = spec.add(acc, spec.mul(x, spec.frobenius(y, ell)))
    return acc


def _scan_fits(code: LinearCode, cap: int) -> bool:
    """Whether the ambient scan's work, q^n candidates times q^k
    codewords, fits under ``cap``."""
    return code.spec.q ** (code.n + code.k) <= cap


def _scan_dual(code: LinearCode, ell: int, cap: int) -> list[tuple[int, ...]]:
    """The l-Galois dual's vectors, by testing every ambient vector
    against the full codeword list."""
    spec = code.spec
    q = spec.q
    words = enumerate_codewords(code, cap).words
    out = []
    add, mul, frob = spec.add, spec.mul, spec.frobenius
    for cand in product(range(q), repeat=code.n):
        fcand = [frob(x, ell) for x in cand]
        hit = True
        for w in words:
            acc = 0
            for x, y in zip(w, fcand):
                acc = add(acc, mul(x, y))
            if acc != 0:
                hit = False
                break
        if hit:
            out.append(cand)
    expected = q ** (code.n - code.k)
    if len(out) != expected:
        raise AssertionError(
            f"definition scan found {len(out)} vectors, expected {expected}"
        )
    return out


def _dual_basis(code: LinearCode, ell: int, cap: int) -> list[list[int]]:
    """A basis of the l-Galois dual by local elimination, refused when
    the dual has more than ``cap`` vectors."""
    expected = code.spec.q ** (code.n - code.k)
    if expected > cap:
        raise OracleCapError(
            f"dual has q^(n-k) = {expected} vectors, exceeds cap {cap}"
        )
    return _solve_orthogonal_basis(code.spec, _gen_rows(code), code.n, ell)


def dual_vectors_by_definition(
    code: LinearCode, ell: int = 0, cap: int = DEFAULT_CAP
) -> list[tuple[int, ...]]:
    """All vectors whose l-Galois product with every codeword vanishes.

    When the scan's work, q^n candidates times q^k codewords, fits under
    ``cap`` this scans the whole ambient space against the full codeword
    list; otherwise it spans the basis solved by an elimination routine
    local to this module.
    """
    spec = code.spec
    spec.check_ell(ell)
    if _scan_fits(code, cap):
        return _scan_dual(code, ell, cap)
    q = spec.q
    out = [tuple([0] * code.n)]
    for row in _dual_basis(code, ell, cap):
        new = []
        for lam in range(1, q):
            scaled = tuple(spec.mul(lam, x) for x in row)
            for w in out:
                new.append(tuple(spec.add(a, b) for a, b in zip(w, scaled)))
        out.extend(new)
    if len(set(out)) != q ** (code.n - code.k):
        raise AssertionError("orthogonal span has wrong size")
    return sorted(set(out))


def _solve_orthogonal_basis(
    spec: FieldSpec, rows: list[tuple[int, ...]], n: int, ell: int
) -> list[list[int]]:
    """Basis of {x : <row, x>_ell = 0 for all rows}, by substitution.

    Written independently of the matrix module: forward elimination on a
    scalar list-of-lists system G * y = 0 (with y the Frobenius image of
    x), then free-variable back-substitution, then the inverse Frobenius
    map applied to each solution.
    """
    sys_rows = [list(r) for r in rows]
    pivots: list[tuple[int, int]] = []  # (row, col), 0-based
    used_cols: set[int] = set()
    r = 0
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
        r += 1
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
    return basis


def dual_by_definition(
    code: LinearCode, ell: int = 0, cap: int = DEFAULT_CAP
) -> LinearCode:
    """The l-Galois dual, packaged as a canonical LinearCode.

    It is built from the scanned vectors when the ambient scan fits
    under ``cap``, else from the n - k rows of the solved basis.
    """
    code.spec.check_ell(ell)
    if _scan_fits(code, cap):
        rows = [v for v in _scan_dual(code, ell, cap) if any(v)]
    else:
        rows = _dual_basis(code, ell, cap)
    if not rows:
        return LinearCode.zero(code.spec, code.n)
    return LinearCode.from_generator(MatGF.from_rows(code.spec, rows))


def so_by_definition(code: LinearCode, ell: int = 0, cap: int = DEFAULT_CAP) -> bool:
    """Is the code l-Galois self-orthogonal?

    Tiny codes are checked over every pair of codewords; larger ones via
    the generator product, evaluated with scalar arithmetic.
    """
    spec = code.spec
    spec.check_ell(ell)
    if code.k == 0:
        return True
    if spec.q**code.k <= min(_PAIRWISE_LIMIT, cap):
        vecs = [list(w) for w in enumerate_codewords(code, cap).words]
    else:
        vecs = [list(r) for r in _gen_rows(code)]
    add, mul, frob = spec.add, spec.mul, spec.frobenius
    fvecs = [[frob(x, ell) for x in v] for v in vecs]
    for u in vecs:
        for fv in fvecs:
            acc = 0
            for x, y in zip(u, fv):
                acc = add(acc, mul(x, y))
            if acc != 0:
                return False
    return True


def is_subset_by_enumeration(
    a: LinearCode, b: LinearCode, cap: int = DEFAULT_CAP
) -> bool:
    """Set-level containment check: every codeword of a is orthogonal to
    a basis of b's Euclidean dual, so lies in b.  Only a is enumerated."""
    if a.spec != b.spec or a.n != b.n:
        raise ValueError("codes are not comparable")
    spec = a.spec
    checks = _solve_orthogonal_basis(spec, _gen_rows(b), b.n, 0)
    return all(
        scalar_inner(spec, w, h, 0) == 0
        for w in enumerate_codewords(a, cap).words
        for h in checks
    )

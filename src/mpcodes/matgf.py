"""Exact dense linear algebra over GF(p^e).

:class:`MatGF` wraps a read-only uint8 numpy array of element encodings
plus the :class:`~mpcodes.gf.FieldSpec` they live in.  All operations
are exact and deterministic; there is no pivoting heuristic beyond
"first nonzero entry" because the arithmetic is exact.

The product is float64 BLAS on base-p digits with one reduction mod p
at the end (delayed reduction, as in FFLAS/FFPACK).  Elimination works
in place on one uint8 copy, with three table calls per pivot: a row of
the multiplication table scales the pivot row, a column gather of it
takes the row's q multiples, and one field subtraction clears the pivot
column.  Each has one code path for every q <= 256.

Data is checked where it enters, by ``MatGF(spec, data)``: 2-D integer
entries in [0, q), stored as a read-only uint8 copy.  Matrices built
inside the package skip that through ``MatGF._of(spec, arr)``: the
producer hands over a fresh 2-D uint8 array (or a view of read-only
data) and never writes to it again; no scan, no copy.

Rows and columns are numbered from 1 throughout the public API, matching
the usual coding-theory convention; the underlying ``.data`` array is an
ordinary 0-based numpy array.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .gf import FieldMismatchError, FieldSpec

__all__ = [
    "DimensionError",
    "MatGF",
    "RankDeficientError",
    "SingularMatrixError",
]


class DimensionError(ValueError):
    """Shapes do not conform for the requested operation."""


class SingularMatrixError(ValueError):
    """A square matrix required to be invertible is singular."""


class RankDeficientError(ValueError):
    """A matrix required to have full row rank does not."""


# Inner-axis entries per GEMM of a product, which bounds its operands.
_GEMM_INNER = 64


class MatGF:
    """An exact rows x cols matrix over a fixed GF(p^e)."""

    # _completion is filled on first use by completion(), never compared
    __slots__ = ("spec", "data", "_completion")

    def __init__(self, spec: FieldSpec, data):
        arr = np.asarray(data)
        if arr.ndim != 2:
            raise DimensionError(f"matrix data must be 2-D, got shape {arr.shape}")
        if arr.size and arr.dtype.kind not in "biu":
            raise ValueError(f"matrix entries must be integers, got dtype {arr.dtype}")
        # checked before the cast to uint8, which would wrap -1 and 256
        if arr.size and (
            arr.max() >= spec.q or (arr.dtype.kind == "i" and arr.min() < 0)
        ):
            raise ValueError(f"entries out of range for GF({spec.q})")
        arr = arr.astype(np.uint8)
        arr.setflags(write=False)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "data", arr)

    @classmethod
    def _of(cls, spec: FieldSpec, arr: np.ndarray) -> "MatGF":
        """The trusted constructor: takes ``arr`` over, read-only."""
        arr.setflags(write=False)
        self = object.__new__(cls)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "data", arr)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("MatGF is immutable")

    # -- construction ------------------------------------------------------

    @classmethod
    def zeros(cls, spec: FieldSpec, rows: int, cols: int) -> "MatGF":
        return cls._of(spec, np.zeros((rows, cols), dtype=np.uint8))

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "MatGF":
        return cls._of(spec, np.eye(n, dtype=np.uint8))

    @classmethod
    def vstack(cls, mats: Sequence["MatGF"]) -> "MatGF":
        specs = {m.spec for m in mats}
        if len(specs) != 1:
            raise FieldMismatchError("cannot stack matrices over different fields")
        cols = {m.cols for m in mats if m.rows}
        if len(cols) > 1:
            raise DimensionError("column counts differ")
        blocks = [m.data for m in mats if m.rows] or [mats[0].data]
        return cls._of(mats[0].spec, np.vstack(blocks))

    @classmethod
    def block_diag(cls, spec: FieldSpec, mats: Sequence["MatGF"]) -> "MatGF":
        rows = sum(m.rows for m in mats)
        cols = sum(m.cols for m in mats)
        out = np.zeros((rows, cols), dtype=np.uint8)
        r = c = 0
        for m in mats:
            if m.spec != spec:
                raise FieldMismatchError("block over a different field")
            out[r : r + m.rows, c : c + m.cols] = m.data
            r += m.rows
            c += m.cols
        return cls._of(spec, out)

    # -- basic attributes ---------------------------------------------------

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def T(self) -> "MatGF":
        return MatGF._of(self.spec, self.data.T)

    def is_zero(self) -> bool:
        return not self.data.any()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatGF)
            and self.spec == other.spec
            and self.shape == other.shape
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self) -> int:
        return hash((self.spec, self.shape, self.data.tobytes()))

    def __repr__(self) -> str:
        return f"MatGF({self.rows}x{self.cols} over GF({self.spec.q}))"

    def __reduce__(self):
        return MatGF, (self.spec, self.data)  # validated again, read-only

    def _check_same_field(self, other: "MatGF") -> None:
        if self.spec != other.spec:
            raise FieldMismatchError("matrices over different fields")

    # -- arithmetic ----------------------------------------------------------

    def __matmul__(self, other: "MatGF") -> "MatGF":
        """The product, exact in float64.

        R(b), the e x e matrix whose row s holds the base-p digits of
        x^s * b, gives digits(a * b) = digits(a) @ R(b) mod p.  So A @ B
        is one GEMM of the r x k*e digits of A by the k*e x c*e matrix
        R(B) per block of ``_GEMM_INNER`` inner entries, summed, reduced
        mod p once and read back from the digits.  Every partial sum is
        an integer below k*e*(p-1)^2 < 2^53 (k < 2^37 suffices), exact in
        any BLAS summation order.  Memory: two r x c*e float64 arrays
        and one block's operands, 8*e*_GEMM_INNER*(r + c*e) bytes.
        """
        self._check_same_field(other)
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        spec = self.spec
        e = spec.e
        (r, k), c = self.shape, other.cols
        acc = np.zeros((r, c * e))
        for k0 in range(0, k, _GEMM_INNER):
            a = self.data[:, k0 : k0 + _GEMM_INNER]
            b = other.data[k0 : k0 + _GEMM_INNER]
            kb = a.shape[1]
            # column s*kb + i of the left operand is digit s of a[:, i];
            # row s*kb + i of the right one is x^s * b[i], in digits
            left = spec._DIG.take(a.T, axis=1).reshape(e * kb, r).T
            right = spec._REG.take(b, axis=1).reshape(e * kb, c * e)
            acc += left @ right
        np.fmod(acc, spec.p, out=acc)
        out = acc.reshape(r, c, e) @ (spec.p ** np.arange(e, dtype=np.float64))
        return MatGF._of(spec, out.astype(np.uint8))

    def kron(self, other: "MatGF") -> "MatGF":
        """Kronecker product, (rows*rows') x (cols*cols')."""
        self._check_same_field(other)
        spec = self.spec
        ra, ca = self.shape
        rb, cb = other.shape
        out = spec.mul_arr(self.data[:, None, :, None], other.data[None, :, None, :])
        return MatGF._of(spec, out.reshape(ra * rb, ca * cb))

    def frobenius_map(self, ell: int) -> "MatGF":
        """Apply the Frobenius power entrywise."""
        return MatGF._of(self.spec, self.spec.frobenius_arr(self.data, ell))

    # -- elimination ----------------------------------------------------------

    def rref(self) -> tuple["MatGF", tuple[int, ...]]:
        """Reduced row echelon form and the 1-based pivot columns.

        Pivoting is deterministic: for each column (left to right) the
        first nonzero entry at or below the current row is the pivot.
        In place on one uint8 copy, a pivot step makes three table calls
        for every q, from the pivot column on (the pivot row is zero to
        its left): the row of the field's q x q table ``_MUL`` at the
        pivot's inverse (from ``_INV``) scales the pivot row to a leading
        1; one column gather of that table takes the row's q multiples, a
        q x w table; and each other row with a nonzero in the pivot column
        subtracts its entry's multiple in one field subtraction.  A step's
        temporaries, per entry of the updated rows x w block, are that
        block and its multiples (1 byte each) and the difference (1 byte);
        for odd p the subtraction's uint16 table index and take's intp
        copy of it add 10 bytes, so the peak is 13 bytes an entry (3 when
        p = 2, where it is XOR).  The q x w table adds q bytes per column.
        """
        spec = self.spec
        mul = spec._MUL
        m = self.data.copy()
        rows, cols = m.shape
        pivots: list[int] = []
        r = 0
        for c in range(cols):
            if r >= rows:
                break
            col = m[:, c]
            nz = col.nonzero()[0]
            i = nz.searchsorted(r)
            if i == nz.size:
                continue
            pr = nz[i]
            if pr != r:
                # row r is zero in column c, so nz still lists the rows
                # to clear, with the pivot row's old place as a zero row
                m[r, c:], m[pr, c:] = m[pr, c:], m[r, c:].copy()
            row = m[r, c:]
            if row[0] != 1:
                row[:] = mul[spec._INV[row[0]]].take(row)
            if nz.size > 1:
                factors = col[nz]
                factors[i] = 0  # leaves the row at nz[i] as it is
                multiples = mul.take(row, axis=1)
                m[nz, c:] = spec.sub_arr(m[nz, c:], multiples[factors])
            pivots.append(c + 1)
            r += 1
        return MatGF._of(spec, m), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def inverse(self) -> "MatGF":
        if self.rows != self.cols:
            raise DimensionError("only square matrices can be inverted")
        n = self.rows
        aug = MatGF._of(self.spec, np.hstack([self.data, np.eye(n, dtype=np.uint8)]))
        red, pivots = aug.rref()
        if list(pivots) != list(range(1, n + 1)):
            raise SingularMatrixError("matrix is singular")
        return MatGF._of(self.spec, red.data[:, n:])

    def kernel_basis(self) -> "MatGF":
        """Rows form a basis of the right kernel {x : self @ x^T = 0}:
        the one :meth:`rref_kernel` reads off the RREF."""
        red, pivots = self.rref()
        return red.rref_kernel(pivots)

    def rref_kernel(self, pivots: Sequence[int]) -> "MatGF":
        """The right kernel of a matrix in RREF with the given 1-based
        pivot columns, read off without elimination: one row per free
        column f, with 1 at f, 0 at the other free columns and minus the
        RREF entries of column f at the pivots.

        A pivot row is zero left of its pivot, so row f is zero right of
        f.  With its rows and columns reversed the result is therefore
        in RREF: the leading 1s sit at the reversed free columns, in
        order, and each is alone in its column.
        """
        n = self.cols
        piv0 = np.array(pivots, dtype=np.intp) - 1
        is_free = np.ones(n, dtype=bool)
        is_free[piv0] = False
        free0 = np.flatnonzero(is_free)
        out = np.zeros((free0.size, n), dtype=np.uint8)
        out[np.arange(free0.size), free0] = 1
        # x_pivot = -(RREF entry in the free column), one free column per row
        block = self.data[: piv0.size][:, free0]
        out[:, piv0] = self.spec.neg_arr(block).T
        return MatGF._of(self.spec, out)

    # -- row selection and completion ------------------------------------------

    def row_submatrix(self, indices: Sequence[int]) -> "MatGF":
        """The submatrix formed by the given 1-based rows, in listed order."""
        seen = set()
        for i in indices:
            if not 1 <= i <= self.rows:
                raise IndexError(f"row index {i} outside 1..{self.rows}")
            if i in seen:
                raise ValueError(f"duplicate row index {i}")
            seen.add(i)
        sel = [i - 1 for i in indices]
        return MatGF._of(self.spec, self.data[sel, :])

    def complete_to_invertible(self) -> "MatGF":
        """Extend a full-row-rank M x N matrix to an invertible N x N one.

        Deterministic: appends the standard basis row e_j for every
        non-pivot column j of the RREF, in ascending column order.  The
        first M rows of the result equal the input.  Raises
        ``RankDeficientError`` iff the rank is below M (which covers every
        M > N).
        """
        _, pivots = self.rref()
        if len(pivots) != self.rows:
            raise RankDeficientError(
                f"matrix has rank {len(pivots)} < {self.rows} rows"
            )
        n = self.cols
        extra = [j for j in range(1, n + 1) if j not in pivots]
        out = np.zeros((n, n), dtype=np.uint8)
        out[: self.rows] = self.data
        for r, j in enumerate(extra):
            out[self.rows + r, j - 1] = 1
        return MatGF._of(self.spec, out)

    def completion(self) -> tuple["MatGF", "MatGF"]:
        """(B, (B^-1)^T) for B = :meth:`complete_to_invertible`, computed
        once per matrix, as a matrix never changes.  A matrix without full
        row rank raises ``RankDeficientError`` on every call."""
        done = getattr(self, "_completion", None)
        if done is None:
            try:
                b = self.complete_to_invertible()
                done = b, b.inverse().T
            except RankDeficientError as exc:
                done = None, exc.args  # not exc, whose frames hold its callers'
            object.__setattr__(self, "_completion", done)
        b, inv_t = done
        if b is None:
            raise RankDeficientError(*inv_t)
        return b, inv_t

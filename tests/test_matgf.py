import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from mpcodes import (
    DimensionError,
    FieldMismatchError,
    FieldSpec,
    MatGF,
    RankDeficientError,
    SingularMatrixError,
    field,
)
from mpcodes.gf import DEFAULT_MODULI
from mpcodes.matgf import _GEMM_INNER

from conftest import mat, random_matrix

# GF(256) has no default modulus: x^8 + x^4 + x^3 + x^2 + 1
GF256_MODULUS = (1, 0, 1, 1, 1, 0, 0, 0, 1)


def test_matmul_identity_and_zero():
    f5 = field(5)
    rng = random.Random(1)
    a = random_matrix(f5, 3, 4, rng)
    assert a @ MatGF.identity(f5, 4) == a
    assert MatGF.identity(f5, 3) @ a == a
    z = MatGF.zeros(f5, 2, 3)
    assert (z @ a).is_zero()


def test_matmul_mismatches():
    f2, f3 = field(2), field(3)
    a = MatGF.identity(f2, 2)
    with pytest.raises(FieldMismatchError):
        _ = a @ MatGF.identity(f3, 2)
    with pytest.raises(DimensionError):
        _ = a @ MatGF.zeros(f2, 3, 1)


def _fold_product(f, a, b):
    """A @ B entry by entry with scalar field operations."""
    return [
        [
            reduce(f.add, (f.mul(int(a.data[i, k]), int(b.data[k, j]))
                           for k in range(a.cols)), 0)
            for j in range(b.cols)
        ]
        for i in range(a.rows)
    ]


def test_matmul_matches_scalar_fold():
    fields = [field(q) for q in DEFAULT_MODULI]
    fields += [field(251), FieldSpec(2, 8, GF256_MODULUS)]
    block = _GEMM_INNER
    shapes = [
        (3, 0, 4), (2, 1, 5), (4, 3, 1), (5, 7, 6),
        (0, 3, 4), (3, 4, 0), (0, 0, 0),  # zero rows, zero columns
        (2, block - 1, 3), (2, block, 3), (3, block + 1, 2),
    ]
    for f in fields:
        gen = np.random.default_rng(f.q)
        for rows, inner, cols in shapes:
            a = MatGF(f, gen.integers(0, f.q, (rows, inner)))
            b = MatGF(f, gen.integers(0, f.q, (inner, cols)))
            got = a @ b
            assert got.shape == (rows, cols)
            assert got.data.tolist() == _fold_product(f, a, b), (f, rows, inner, cols)
    # p = 251 over 4096 inner entries, some of them all p - 1, the
    # largest partial sums the float accumulation meets
    f = field(251)
    gen = np.random.default_rng(4096)
    a = gen.integers(0, 251, (3, 4096))
    b = gen.integers(0, 251, (4096, 2))
    a[0] = 250
    b[:, 0] = 250
    got = MatGF(f, a) @ MatGF(f, b)
    assert got.data.tolist() == _fold_product(f, MatGF(f, a), MatGF(f, b))


def test_products_do_not_depend_on_blas_threads():
    # the same products with one and two BLAS threads; every partial sum
    # is an exact integer, so the summation order cannot show
    script = (
        "import hashlib, numpy as np\n"
        "from mpcodes import MatGF, field\n"
        "for q in (9, 251):\n"
        "    gen = np.random.default_rng(q)\n"
        "    a = MatGF(field(q), gen.integers(0, q, (200, 300)))\n"
        "    b = MatGF(field(q), gen.integers(0, q, (300, 200)))\n"
        "    print(hashlib.sha256((a @ b).data.tobytes()).hexdigest())\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        outputs.append(proc.stdout.split())
    assert outputs[0] == outputs[1]
    # GF(251) against integer arithmetic, which involves no BLAS
    gen = np.random.default_rng(251)
    a = gen.integers(0, 251, (200, 300))
    b = gen.integers(0, 251, (300, 200))
    want = ((a @ b) % 251).astype(np.uint8)
    assert outputs[0][1] == hashlib.sha256(want.tobytes()).hexdigest()


@pytest.mark.parametrize("q", [2, 9])
def test_matmul_memory_is_bounded(q):
    # the product sums GEMMs over blocks of _GEMM_INNER inner entries, so
    # it holds two rows x cols*e float64 sums and one block's operands
    # (about 0.3 MiB at q = 9) instead of a rows x inner x cols tensor
    # (16 MiB here at one byte per entry)
    f = field(q)
    gen = np.random.default_rng(q)
    a = MatGF(f, gen.integers(0, q, (64, 512)))
    b = MatGF(f, gen.integers(0, q, (512, 64)))
    tracemalloc.start()
    try:
        a @ b
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024, peak


def test_rref_basics():
    f2 = field(2)
    ident = MatGF.identity(f2, 4)
    red, piv = ident.rref()
    assert red == ident and piv == (1, 2, 3, 4)
    zero = MatGF.zeros(f2, 3, 3)
    red, piv = zero.rref()
    assert red == zero and piv == ()
    dup = MatGF(f2, [[1, 1], [1, 1]])
    red, piv = dup.rref()
    assert piv == (1,)
    assert red == MatGF(f2, [[1, 1], [0, 0]])


def test_rref_idempotent_and_rank_transpose(rng):
    for _ in range(40):
        q = rng.choice([2, 3, 4, 5, 8, 9])
        f = field(q)
        a = random_matrix(f, rng.randint(1, 5), rng.randint(1, 5), rng)
        red, piv = a.rref()
        red2, piv2 = red.rref()
        assert red2 == red and piv2 == piv
        assert a.rank() == a.T.rank()


def _rref_reference(f, a):
    """RREF and pivots column by column with scalar field operations: in
    each column the first nonzero entry at or below the current row is
    the pivot, which is scaled to 1 and cleared from every other row."""
    m = a.data.tolist()
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = f.inv(m[r][c])
        m[r] = [f.mul(inv, x) for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                fac = m[i][c]
                m[i] = [f.sub(x, f.mul(fac, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c + 1)
        r += 1
    return m, tuple(pivots)


def test_rref_matches_entrywise_reference():
    fields = [field(q) for q in (2, 3, 4, 5, 8, 9, 16, 27)]
    fields += [field(251), FieldSpec(2, 8, GF256_MODULUS)]
    gen = np.random.default_rng(17)
    for f in fields:
        for rows, cols in [(0, 3), (3, 0), (1, 1), (4, 4), (6, 9), (9, 6), (20, 30)]:
            for _ in range(3):
                # rank deficient: a product through fewer inner entries
                rank = int(gen.integers(0, max(min(rows, cols), 1)))
                left = gen.integers(0, f.q, (rows, rank))
                right = gen.integers(0, f.q, (rank, cols))
                right[:, gen.random(cols) < 0.3] = 0  # some zero columns
                a = MatGF(f, left) @ MatGF(f, right)
                red, pivots = a.rref()
                want, want_pivots = _rref_reference(f, a)
                assert pivots == want_pivots, (f, rows, cols)
                assert red.data.tolist() == want, (f, rows, cols)


def _rref_table_loop(a):
    """The elimination loop that scales and takes multiples through
    ``mul_arr``: for each column the first nonzero at or below the
    current row is the pivot; it is scaled to 1 and every other row with
    a nonzero in the column subtracts its multiple."""
    f = a.spec
    scalars = np.arange(f.q, dtype=np.uint8)[:, None]
    m = a.data.copy()
    rows, cols = m.shape
    pivots = []
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
            m[r, c:], m[pr, c:] = m[pr, c:], m[r, c:].copy()
        row = m[r, c:]
        if row[0] != 1:
            row[:] = f.mul_arr(f.inv(int(row[0])), row)
        if nz.size > 1:
            factors = col[nz]
            factors[i] = 0
            multiples = f.mul_arr(scalars, row)
            m[nz, c:] = f.sub_arr(m[nz, c:], multiples[factors])
        pivots.append(c + 1)
        r += 1
    return m, tuple(pivots)


@pytest.mark.parametrize("q", sorted(DEFAULT_MODULI) + [251])
def test_rref_matches_table_loop(q):
    f = field(q)
    gen = np.random.default_rng(q)
    shapes = [(0, 5), (5, 0), (0, 0), (1, 1), (3, 7), (7, 3), (12, 5), (8, 16)]
    for rows, cols in shapes:
        for _ in range(4):
            data = gen.integers(0, q, (rows, cols))
            if rows > 2:
                data[gen.integers(rows)] = 0  # a zero row
                data[1] = data[0]  # a duplicate row
            if rows and cols:
                data[:, gen.integers(cols)] = 0  # a zero column
            cases = [MatGF(f, data)]
            cases.append(cases[0].rref()[0])  # already reduced
            for a in cases:
                red, pivots = a.rref()
                want, want_pivots = _rref_table_loop(a)
                assert pivots == want_pivots, (q, rows, cols)
                assert np.array_equal(red.data, want), (q, rows, cols)
                assert red.shape == a.shape


def test_rref_memory_is_bounded():
    # beyond its copy, an elimination step holds the block of rows it
    # updates a few times, the largest as take's intp index (8 bytes an
    # entry)
    f = field(9)
    a = MatGF(f, np.random.default_rng(9).integers(0, 9, (256, 512)))
    tracemalloc.start()
    try:
        a.rref()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * a.data.nbytes, peak


@pytest.mark.parametrize("q", [2, 251])
def test_entries_out_of_range_are_refused(q):
    # uint8 storage: -1 and 256 would wrap to valid entries after a cast
    f = field(q)
    for bad in (-1, q, 256):
        for data in ([[0, bad]], np.array([[bad, 0]])):
            with pytest.raises(ValueError, match="out of range"):
                MatGF(f, data)
    with pytest.raises(ValueError, match="out of range"):
        MatGF(f, np.array([[q]], dtype=np.uint8))
    assert MatGF(f, [[q - 1]]).data.dtype == np.uint8


def test_rank_paper_partition_matrix():
    f2 = field(2)
    a = MatGF(f2, [[1, 1], [1, 1], [1, 0], [0, 1], [1, 0]])
    assert a.rank() == 2


def test_inverse(rng):
    for q in (2, 3, 4, 5, 7, 8, 9):
        f = field(q)
        assert MatGF.identity(f, 3).inverse() == MatGF.identity(f, 3)
        for _ in range(10):
            n = rng.randint(1, 5)
            a = random_matrix(f, n, n, rng)
            if a.rank() < n:
                with pytest.raises(SingularMatrixError):
                    a.inverse()
            else:
                assert a.inverse() @ a == MatGF.identity(f, n)
                assert a @ a.inverse() == MatGF.identity(f, n)
    with pytest.raises(DimensionError):
        MatGF.zeros(field(2), 2, 3).inverse()


def test_kron():
    f2 = field(2)
    b = MatGF(f2, [[1, 0], [1, 1]])
    one = MatGF(f2, [[1]])
    assert one.kron(b) == b
    assert MatGF.identity(f2, 2).kron(MatGF.identity(f2, 3)) == MatGF.identity(f2, 6)
    swap = MatGF(f2, [[0, 1], [1, 0]])
    blk = MatGF.identity(f2, 2).kron(swap)
    expected = np.array(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    )
    assert np.array_equal(blk.data, expected)


def test_kron_mixed_product(rng):
    # (A kron B)(C kron D) = (AC) kron (BD)
    for _ in range(25):
        q = rng.choice([2, 3, 4, 5])
        f = field(q)
        r1, c1, r2, c2 = (rng.randint(1, 3) for _ in range(4))
        k1, k2 = rng.randint(1, 3), rng.randint(1, 3)
        a = random_matrix(f, r1, c1, rng)
        c = random_matrix(f, c1, k1, rng)
        b = random_matrix(f, r2, c2, rng)
        d = random_matrix(f, c2, k2, rng)
        assert a.kron(b) @ c.kron(d) == (a @ c).kron(b @ d)


def test_frobenius_map():
    f4 = field(4)
    thetas = MatGF(f4, [[2, 2], [2, 2]])
    assert thetas.frobenius_map(0) == thetas
    assert thetas.frobenius_map(f4.e) == thetas
    assert thetas.frobenius_map(1) == MatGF(f4, [[3, 3], [3, 3]])


def test_frobenius_map_distributes_over_matmul(rng):
    for _ in range(25):
        q = rng.choice([4, 8, 9])
        f = field(q)
        a = random_matrix(f, rng.randint(1, 4), rng.randint(1, 4), rng)
        b = random_matrix(f, a.cols, rng.randint(1, 4), rng)
        for ell in range(f.e):
            assert (a @ b).frobenius_map(ell) == a.frobenius_map(
                ell
            ) @ b.frobenius_map(ell)


def test_row_submatrix():
    f3 = field(3)
    a = MatGF(f3, [[2, 1, 1], [2, 0, 2], [2, 0, 0], [0, 0, 1]])
    assert a.row_submatrix([1, 2, 3]) == MatGF(
        f3, [[2, 1, 1], [2, 0, 2], [2, 0, 0]]
    )
    assert a.row_submatrix([4]) == MatGF(f3, [[0, 0, 1]])
    assert a.row_submatrix(list(range(1, 5))) == a
    with pytest.raises(IndexError):
        a.row_submatrix([0])
    with pytest.raises(IndexError):
        a.row_submatrix([5])
    with pytest.raises(ValueError):
        a.row_submatrix([1, 1])


def test_complete_to_invertible():
    f2 = field(2)
    assert MatGF(f2, [[1, 0]]).complete_to_invertible() == MatGF.identity(
        f2, 2
    )
    sq = MatGF(f2, [[0, 1], [1, 0]])
    assert sq.complete_to_invertible() == sq
    f5 = field(5)
    a = MatGF(f5, [[4, 1, 1, 3], [3, 3, 1, 2], [1, 4, 3, 4]])
    b = a.complete_to_invertible()
    assert b.row_submatrix([1, 2, 3]) == a
    assert b.rank() == 4
    with pytest.raises(RankDeficientError):
        MatGF(f2, [[1, 1], [1, 1]]).complete_to_invertible()


def test_complete_to_invertible_randomized(rng):
    for _ in range(40):
        q = rng.choice([2, 3, 4, 5, 8, 9])
        f = field(q)
        n = rng.randint(1, 5)
        m = rng.randint(1, n)
        a = random_matrix(f, m, n, rng)
        if a.rank() < m:
            continue
        b = a.complete_to_invertible()
        assert b.rows == b.cols == n
        assert b.row_submatrix(list(range(1, m + 1))) == a
        assert b.rank() == n


def test_is_nsc():
    f5 = field(5)
    a = MatGF(f5, [[4, 1, 1, 3], [3, 3, 1, 2], [1, 4, 3, 4]])
    assert a.is_nsc() is True
    f2 = field(2)
    assert MatGF.identity(f2, 2).is_nsc() is False
    assert MatGF(f2, [[0, 1], [1, 1]]).is_nsc() is False
    assert MatGF(f2, [[1, 1], [1, 0]]).is_nsc() is True
    # more rows than columns can never be NSC
    assert MatGF(f2, [[1], [1]]).is_nsc() is False
    with pytest.raises(ValueError):
        random_matrix(f2, 13, 13, random.Random(0)).is_nsc()


def test_kernel_basis():
    f2 = field(2)
    assert MatGF.identity(f2, 3).kernel_basis().rows == 0
    assert MatGF.zeros(f2, 1, 4).kernel_basis() == MatGF.identity(f2, 4)
    assert MatGF(f2, [[1, 1]]).kernel_basis() == MatGF(
        f2, [[1, 1]]
    )


def test_kernel_basis_randomized(rng):
    for _ in range(40):
        q = rng.choice([2, 3, 4, 5, 8, 9])
        f = field(q)
        a = random_matrix(f, rng.randint(1, 5), rng.randint(1, 6), rng)
        k = a.kernel_basis()
        assert k.rows == a.cols - a.rank()
        if k.rows:
            assert (a @ k.T).is_zero()
            assert k.rank() == k.rows


def test_kernel_basis_matches_entrywise_reference(rng):
    for _ in range(40):
        f = field(rng.choice([2, 3, 4, 5, 8, 9]))
        a = random_matrix(f, rng.randint(1, 5), rng.randint(1, 6), rng)
        red, pivots = a.rref()
        free = [j for j in range(1, a.cols + 1) if j not in pivots]
        ref = [[0] * a.cols for _ in free]
        for row, fc in enumerate(free):
            ref[row][fc - 1] = 1
            for r, pc in enumerate(pivots):
                ref[row][pc - 1] = f.neg(int(red.data[r, fc - 1]))
        ref = np.array(ref, dtype=np.int64).reshape(len(free), a.cols)
        assert a.kernel_basis() == MatGF(f, ref)


def test_entry_and_immutability():
    f4 = field(4)
    a = MatGF(f4, [[0, 1], [2, 3]])
    assert a.data[1, 0] == 2
    with pytest.raises(IndexError):
        a.data[2, 0]
    with pytest.raises(ValueError):
        a.data[0, 0] = 1  # read-only view

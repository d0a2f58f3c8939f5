import random
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from mpcodes import (
    DimensionError,
    FieldMismatchError,
    MatGF,
    RankDeficientError,
    SingularMatrixError,
    field,
)

from conftest import mat, random_matrix


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


def test_matmul_matches_scalar_fold():
    for q in (2, 3, 4, 9):
        f = field(q)
        gen = np.random.default_rng(q)
        for rows, inner, cols in [(3, 0, 4), (2, 1, 5), (4, 3, 1), (5, 7, 6)]:
            a = MatGF(f, gen.integers(0, q, (rows, inner)))
            b = MatGF(f, gen.integers(0, q, (inner, cols)))
            want = [
                [
                    reduce(f.add, (f.mul(int(a.data[i, k]), int(b.data[k, j]))
                                   for k in range(inner)), 0)
                    for j in range(cols)
                ]
                for i in range(rows)
            ]
            got = a @ b
            assert got.shape == (rows, cols)
            assert got.data.tolist() == want


@pytest.mark.parametrize("q", [2, 9])
def test_matmul_memory_is_bounded(q):
    # the product folds over the inner axis instead of materialising a
    # rows x inner x cols tensor (16 MiB here at one byte per entry)
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
    dup = MatGF.from_rows(f2, [[1, 1], [1, 1]])
    red, piv = dup.rref()
    assert piv == (1,)
    assert red == MatGF.from_rows(f2, [[1, 1], [0, 0]])


def test_rref_idempotent_and_rank_transpose(rng):
    for _ in range(40):
        q = rng.choice([2, 3, 4, 5, 8, 9])
        f = field(q)
        a = random_matrix(f, rng.randint(1, 5), rng.randint(1, 5), rng)
        red, piv = a.rref()
        red2, piv2 = red.rref()
        assert red2 == red and piv2 == piv
        assert a.rank() == a.T.rank()


def test_rank_paper_partition_matrix():
    f2 = field(2)
    a = MatGF.from_rows(f2, [[1, 1], [1, 1], [1, 0], [0, 1], [1, 0]])
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
    b = MatGF.from_rows(f2, [[1, 0], [1, 1]])
    one = MatGF.from_rows(f2, [[1]])
    assert one.kron(b) == b
    assert MatGF.identity(f2, 2).kron(MatGF.identity(f2, 3)) == MatGF.identity(f2, 6)
    swap = MatGF.from_rows(f2, [[0, 1], [1, 0]])
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
    thetas = MatGF.from_rows(f4, [[2, 2], [2, 2]])
    assert thetas.frobenius_map(0) == thetas
    assert thetas.frobenius_map(f4.e) == thetas
    assert thetas.frobenius_map(1) == MatGF.from_rows(f4, [[3, 3], [3, 3]])


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
    a = MatGF.from_rows(f3, [[2, 1, 1], [2, 0, 2], [2, 0, 0], [0, 0, 1]])
    assert a.row_submatrix([1, 2, 3]) == MatGF.from_rows(
        f3, [[2, 1, 1], [2, 0, 2], [2, 0, 0]]
    )
    assert a.row_submatrix([4]) == MatGF.from_rows(f3, [[0, 0, 1]])
    assert a.row_submatrix(list(range(1, 5))) == a
    with pytest.raises(IndexError):
        a.row_submatrix([0])
    with pytest.raises(IndexError):
        a.row_submatrix([5])
    with pytest.raises(ValueError):
        a.row_submatrix([1, 1])


def test_complete_to_invertible():
    f2 = field(2)
    assert MatGF.from_rows(f2, [[1, 0]]).complete_to_invertible() == MatGF.identity(
        f2, 2
    )
    sq = MatGF.from_rows(f2, [[0, 1], [1, 0]])
    assert sq.complete_to_invertible() == sq
    f5 = field(5)
    a = MatGF.from_rows(f5, [[4, 1, 1, 3], [3, 3, 1, 2], [1, 4, 3, 4]])
    b = a.complete_to_invertible()
    assert b.row_submatrix([1, 2, 3]) == a
    assert b.rank() == 4
    with pytest.raises(RankDeficientError):
        MatGF.from_rows(f2, [[1, 1], [1, 1]]).complete_to_invertible()


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
    a = MatGF.from_rows(f5, [[4, 1, 1, 3], [3, 3, 1, 2], [1, 4, 3, 4]])
    assert a.is_nsc() is True
    f2 = field(2)
    assert MatGF.identity(f2, 2).is_nsc() is False
    assert MatGF.from_rows(f2, [[0, 1], [1, 1]]).is_nsc() is False
    assert MatGF.from_rows(f2, [[1, 1], [1, 0]]).is_nsc() is True
    # more rows than columns can never be NSC
    assert MatGF.from_rows(f2, [[1], [1]]).is_nsc() is False
    with pytest.raises(ValueError):
        random_matrix(f2, 13, 13, random.Random(0)).is_nsc()


def test_kernel_basis():
    f2 = field(2)
    assert MatGF.identity(f2, 3).kernel_basis().rows == 0
    assert MatGF.zeros(f2, 1, 4).kernel_basis() == MatGF.identity(f2, 4)
    assert MatGF.from_rows(f2, [[1, 1]]).kernel_basis() == MatGF.from_rows(
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
    a = MatGF.from_rows(f4, [[0, 1], [2, 3]])
    assert a.entry(2, 1).enc == 2
    with pytest.raises(IndexError):
        a.entry(3, 1)
    with pytest.raises(ValueError):
        a.data[0, 0] = 1  # read-only view

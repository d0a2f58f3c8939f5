"""Validate at the boundary, trust inside.

Matrix data is checked where it enters (``io`` and the public
``MatGF(spec, data)`` constructor); every matrix the package builds
itself goes through the trusted ``MatGF._of`` and must still hold what
the checked constructor would have stored.
"""

import random

import numpy as np
import pytest

from mpcodes import (
    LinearCode,
    MatGF,
    SearchRequest,
    check_dual_containing_general,
    check_self_orthogonal,
    dual_general,
    expand,
    field,
    search_mp_codes,
)
from mpcodes import io as fmt
from mpcodes import search as srch

from conftest import FIXTURES, random_code, random_matrix

# full rank over GF(4) (e = 2), rank-deficient over GF(2), full rank over GF(3)
MP_FIXTURES = ("f4_2x4_so.mp", "f2_4x2_rankdef.mp", "f3_4x3_dc.mp")


def _refuse(self, spec, data):
    raise AssertionError("internal matrix went through the checked constructor")


def test_nothing_inside_goes_through_the_checked_constructor(monkeypatch):
    mps = [fmt.load_mp((FIXTURES / name).read_text())[0] for name in MP_FIXTURES]
    so_matrix = fmt.load_matrix((FIXTURES / "f2_2x5_so_matrix.mat").read_text())
    dc_matrix = fmt.load_matrix((FIXTURES / "f5_2x2_dc_matrix.mat").read_text())
    monkeypatch.setattr(MatGF, "__init__", _refuse)
    for mp in mps:
        big = expand(mp)
        for ell in range(mp.spec.e):
            dual = dual_general(mp, ell)
            check_self_orthogonal(mp, ell)
            check_dual_containing_general(mp, ell)
            assert big.galois_dual(ell) == dual
            assert (big & dual).is_subcode(big)
    so = SearchRequest(mode="so", ell=0, n=9, dims=(1, 2), seed=3, max_candidates=20)
    dc = SearchRequest(mode="dc", ell=0, n=6, dims=(4, 4), seed=3, max_candidates=20)
    assert search_mp_codes(so_matrix, so)
    assert search_mp_codes(dc_matrix, dc)


def _empty_shape_outputs(f):
    """(name, MatGF, the matrix it must equal) for every operation on an
    empty shape, each computed by the general path."""
    a = MatGF.identity(f, 3)
    x = LinearCode.from_generator(a.row_submatrix([1]))
    y = LinearCode.from_generator(a.row_submatrix([2, 3]))
    return [
        ("kron, zero rows", a.kron(MatGF.zeros(f, 0, 2)), MatGF.zeros(f, 0, 6)),
        ("kron, zero columns", MatGF.zeros(f, 2, 0).kron(a), MatGF.zeros(f, 6, 0)),
        ("frobenius_map, 0 x n", MatGF.zeros(f, 0, 3).frobenius_map(f.e - 1), MatGF.zeros(f, 0, 3)),
        ("frobenius_map, n x 0", MatGF.zeros(f, 3, 0).frobenius_map(f.e - 1), MatGF.zeros(f, 3, 0)),
        ("inverse, 0 x 0", MatGF.zeros(f, 0, 0).inverse(), MatGF.zeros(f, 0, 0)),
        ("intersection, zero code", (x & y).gen, LinearCode.zero(f, 3).gen),
    ]


@pytest.mark.parametrize("q", [2, 9, 16, 251])
def test_empty_shapes_give_empty_matrices(q):
    f = field(q)
    for name, out, want in _empty_shape_outputs(f):
        assert out.shape == want.shape and out == want, name


def _trusted_outputs(rng):
    """(name, MatGF) for every internal producer of matrices."""
    f4, f3 = field(4), field(3)
    a = random_matrix(f4, 3, 5, rng)
    b = random_matrix(f4, 5, 2, rng)
    sq = MatGF(f4, [[1, 2, 3], [0, 1, 2], [0, 0, 1]])
    red, pivots = a.rref()
    small = random_code(f3, 8, 3, rng)
    large = random_code(f3, 8, 6, rng)
    one_row = srch._sample_inside(LinearCode.full(f3, 8), 1, random.Random(1))
    so_rows = srch._sample_inside(LinearCode.full(f4, 6), 2, random.Random(2), so_ell=1)
    return [
        ("rref", red),
        ("matmul", a @ b),
        ("kron", a.kron(b)),
        ("T", a.T),
        ("frobenius_map", a.frobenius_map(1)),
        ("inverse", sq.inverse()),
        ("rref_kernel", red.rref_kernel(pivots)),
        ("kernel_basis", a.kernel_basis()),
        ("row_submatrix", a.row_submatrix([3, 1])),
        ("complete_to_invertible", MatGF(f4, [[0, 2, 1, 0, 3]]).complete_to_invertible()),
        ("vstack", MatGF.vstack([a, a])),
        ("block_diag", MatGF.block_diag(f4, [a, b])),
        ("zeros", MatGF.zeros(f4, 2, 3)),
        ("identity", MatGF.identity(f4, 3)),
        ("canonical generator", LinearCode.from_generator(a).gen),
        ("dual, 2k <= n", small.euclidean_dual().gen),
        ("dual, 2k > n", large.euclidean_dual().gen),
        ("galois dual", LinearCode.from_generator(a).galois_dual(1).gen),
        ("parity check", large.parity_check()),
        ("search, one row", one_row.gen),
        ("search, self-orthogonal rows", so_rows.gen),
        *[(name, out) for name, out, _ in _empty_shape_outputs(f4)],
    ]


def test_trusted_producers_store_what_the_checked_constructor_would(rng):
    for name, out in _trusted_outputs(rng):
        data = out.data
        assert data.dtype == np.uint8 and data.ndim == 2, name
        assert not data.flags.writeable, name
        assert np.array_equal(MatGF(out.spec, data).data, data), name

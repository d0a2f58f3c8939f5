import copy
import io
import pickle
import random
import re
import tracemalloc
from contextlib import redirect_stdout

import pytest

from mpcodes import (
    CheckPath,
    DimensionError,
    LinearCode,
    MatGF,
    MPCode,
    RankDeficientError,
    Verdict,
    check_dual_containing_general,
    check_self_orthogonal,
    dual_full_rank,
    dual_general,
    expand,
    field,
    row_partition,
)
from mpcodes import cli, mpcode, oracle
from mpcodes.io import load_mp
from mpcodes.mpcode import dc_conditions

from conftest import (
    FIXTURES, code, code_sum, completion_holds, mat, random_code, random_completion,
    random_matrix,
)


def _random_mp(rng, *, full_rank=None, q_choices=(2, 3, 4, 5, 8, 9)):
    q = rng.choice(list(q_choices))
    f = field(q)
    n = rng.randint(1, 4)
    m = rng.randint(1, 4)
    ncols = rng.randint(1, 4)
    while True:
        a = random_matrix(f, m, ncols, rng)
        r = a.rank()
        if full_rank is None:
            break
        if full_rank and r == m:
            break
        if not full_rank and r < m:
            break
        m = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
    cons = [random_code(f, n, rng.randint(0, n), rng) for _ in range(m)]
    return MPCode(cons, a)


def test_mpcode_validation():
    f2, f3 = field(2), field(3)
    c = LinearCode.full(f2, 3)
    with pytest.raises(DimensionError):
        MPCode([c], MatGF.identity(f2, 2))
    with pytest.raises(Exception):
        MPCode([c, LinearCode.full(f2, 4)], MatGF.identity(f2, 2))
    with pytest.raises(Exception):
        MPCode([c, LinearCode.full(f3, 3)], MatGF.identity(f2, 2))
    with pytest.raises(ValueError):
        MPCode([], MatGF.zeros(f2, 0, 1))


def test_expand_identity_is_direct_sum(rng):
    f4 = field(4)
    c1 = random_code(f4, 3, 2, rng)
    c2 = random_code(f4, 3, 1, rng)
    mp = MPCode([c1, c2], MatGF.identity(f4, 2))
    big = expand(mp)
    assert big.n == 6 and big.k == c1.k + c2.k
    # the direct sum contains each constituent embedded in its block
    for row in c1.gen.data:
        assert LinearCode.from_generator(MatGF(f4, [list(row) + [0, 0, 0]])).is_subcode(big)
    for row in c2.gen.data:
        assert LinearCode.from_generator(MatGF(f4, [[0, 0, 0] + list(row)])).is_subcode(big)


def test_expand_zero_constituent():
    f2 = field(2)
    mp = MPCode([LinearCode.zero(f2, 3)], MatGF(f2, [[1]]))
    assert expand(mp).k == 0


def _expand_by_definition(mp):
    """The generator diag[G_1 .. G_M] (A kron I_n), canonicalised."""
    spec = mp.spec
    diag = MatGF.block_diag(spec, [c.gen for c in mp.constituents])
    return LinearCode.from_generator(
        diag @ mp.defmatrix.kron(MatGF.identity(spec, mp.n))
    )


def test_expand_matches_definition(rng):
    cases = []
    for q in (2, 3, 4, 9):
        f = field(q)
        for _ in range(8):
            cases.append(_random_mp(rng, q_choices=(q,)))
        n = rng.randint(1, 4)
        # more rows than columns: A is rank-deficient
        a = random_matrix(f, 4, 2, rng)
        cases.append(MPCode([random_code(f, n, n, rng) for _ in range(4)], a))
        # a zero row in A, and a zero constituent (k_i = 0)
        rows = [list(r) for r in random_matrix(f, 3, 3, rng).data]
        rows[1] = [0, 0, 0]
        cons = [random_code(f, n, n, rng), random_code(f, n, 1, rng),
                LinearCode.zero(f, n)]
        cases.append(MPCode(cons, MatGF(f, rows)))
    kinds = {"wide": 0, "rankdef": 0, "zero_row": 0, "zero_code": 0}
    for mp in cases:
        a = mp.defmatrix
        kinds["wide"] += a.rows > a.cols
        kinds["rankdef"] += a.rank() < a.rows
        kinds["zero_row"] += any(not row.any() for row in a.data)
        kinds["zero_code"] += any(c.k == 0 for c in mp.constituents)
        assert expand(mp) == _expand_by_definition(mp)
    assert all(kinds.values()), kinds


@pytest.mark.parametrize("q", [2, 9])
def test_expand_memory_stays_near_output_size(q):
    f = field(q)
    rng = random.Random(q)
    m = n_cols = 4
    n, k = 64, 32
    cons = [random_code(f, n, k, rng) for _ in range(m)]
    a = random_completion(random_matrix(f, 1, n_cols, rng), rng)
    mp = MPCode(cons, a)
    out_bytes = sum(c.k for c in cons) * n_cols * n * 8
    tracemalloc.start()
    try:
        big = expand(mp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert big.n == n_cols * n
    assert peak < 16 * out_bytes, (peak, out_bytes)


def test_dual_full_rank_identity_matrix_gives_dual_sum(rng):
    f3 = field(3)
    c1 = random_code(f3, 3, 1, rng)
    c2 = random_code(f3, 3, 2, rng)
    mp = MPCode([c1, c2], MatGF.identity(f3, 2))
    dual_mp, dual_code = dual_full_rank(mp, 0)
    assert dual_mp.constituents[0] == c1.euclidean_dual()
    assert dual_mp.constituents[1] == c2.euclidean_dual()
    assert dual_code == expand(mp).euclidean_dual()


def test_dual_full_rank_requires_full_rank():
    f2 = field(2)
    c = LinearCode.full(f2, 2)
    a = MatGF(f2, [[1, 1], [1, 1]])
    with pytest.raises(RankDeficientError):
        dual_full_rank(MPCode([c, c], a), 0)


def test_check_dc_one_by_two_matrix_fails():
    # zeta must come from a 2 x 2 completion of the 1 x 2 defining
    # matrix; a 1 x 1 zeta of A itself would read HOLDS, but C lacks the
    # whole second block that its dual contains
    f2 = field(2)
    a = MatGF(f2, [[1, 0]])
    mp = MPCode([LinearCode.full(f2, 3)], a)
    assert check_dual_containing_general(mp, 0).verdict is Verdict.FAILS


def test_dc_conditions_regions():
    f3 = field(3)
    zeta = MatGF(f3, [[1, 2, 1], [0, 1, 1], [2, 0, 1]])
    assert list(dc_conditions(zeta, 1)) == [
        (1, 1, None), (1, 2, 1), (1, 3, 1), (2, 2, 0), (2, 3, 0), (3, 1, 1), (3, 3, 0),
    ]
    assert [f for _, _, f in dc_conditions(zeta, 3)] == [None] * 7


def test_row_partition_paper_matrix_and_zero_rows():
    f2 = field(2)
    a = MatGF(f2, [[1, 1], [1, 1], [1, 0], [0, 1], [1, 0]])
    part = row_partition(a)
    assert part.blocks == ((1, 3), (2, 4), (5,))
    assert part.discarded == ()
    full = MatGF(f2, [[1, 0], [0, 1]])
    assert row_partition(full).blocks == ((1, 2),)
    withzero = MatGF(f2, [[1, 1], [0, 0], [0, 1]])
    part = row_partition(withzero)
    assert part.blocks == ((1, 3),)
    assert part.discarded == (2,)


def _greedy_row_partition(a):
    """Reference: rank the current block plus each row in turn."""
    remaining = [i for i in range(1, a.rows + 1) if a.data[i - 1].any()]
    blocks = []
    while remaining:
        block = []
        for i in remaining:
            if a.row_submatrix(block + [i]).rank() == len(block) + 1:
                block.append(i)
        blocks.append(tuple(block))
        remaining = [i for i in remaining if i not in block]
    return tuple(blocks)


def test_row_partition_matches_greedy_rank_reference():
    rng = random.Random(5)
    for _ in range(300):
        f = field(rng.choice((2, 3, 4, 5, 9, 16)))
        cols = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(1, 7)):
            kind = rng.random()
            if kind < 0.2:
                rows.append([0] * cols)
            elif kind < 0.4 and rows:
                # c*u + v for earlier rows u and v: a dependent row
                u, v = rng.choice(rows), rng.choice(rows)
                c = rng.randrange(f.q)
                rows.append([f.add(f.mul(c, x), y) for x, y in zip(u, v)])
            else:
                rows.append([rng.randrange(f.q) for _ in range(cols)])
        a = MatGF(f, rows)
        part = row_partition(a)
        assert part.blocks == _greedy_row_partition(a)
        assert part.discarded == tuple(
            i for i in range(1, a.rows + 1) if not any(rows[i - 1]))


def test_dual_general_matches_kernel_dual(rng):
    for _ in range(60):
        mp = _random_mp(rng)
        f = mp.spec
        for ell in range(f.e):
            assert dual_general(mp, ell) == expand(mp).galois_dual(ell)


def _block_mp(mp, block):
    """The MP code of the constituents and defining-matrix rows in block."""
    return MPCode(
        [mp.constituents[i - 1] for i in block],
        mp.defmatrix.row_submatrix(list(block)),
    )


def test_dual_general_matches_block_intersection(rng):
    # the paper's formula for a rank-deficient A: the intersection over
    # the row-partition blocks B of the closed-form duals of C_B
    multi_block = oracle_checked = 0
    for _ in range(40):
        mp = _random_mp(rng, full_rank=False)
        f = mp.spec
        blocks = row_partition(mp.defmatrix).blocks
        multi_block += len(blocks) >= 2
        big = expand(mp)
        for ell in range(f.e):
            expected = LinearCode.full(f, big.n)
            for block in blocks:
                expected = expected & dual_full_rank(_block_mp(mp, block), ell)[1]
            dual = dual_general(mp, ell)
            assert dual == expected
            if f.q ** (big.n - big.k) <= 4096:
                assert dual == oracle.dual_by_definition(big, ell, cap=4096)
                oracle_checked += 1
    assert multi_block >= 10 and oracle_checked >= 20, (multi_block, oracle_checked)


def test_dual_general_rank_deficient_eliminates_at_most_three_times(monkeypatch):
    # one failed completion, the expansion and its dual; no per-block
    # expansions
    calls = []
    rref = MatGF.rref

    def counted(self):
        calls.append(self.shape)
        return rref(self)

    f = field(4)
    rng = random.Random(11)
    # rows 1 + 2 = row 3: partition blocks (1, 2) and (3,)
    a = mat(f, ["1 0 a", "0 1 1", "1 1 a^2"])
    mp = MPCode([random_code(f, 12, k, rng) for k in (4, 7, 9)], a)
    assert len(row_partition(a).blocks) >= 2
    for ell in range(f.e):
        calls.clear()
        monkeypatch.setattr(MatGF, "rref", counted)
        dual = dual_general(mp, ell)
        monkeypatch.setattr(MatGF, "rref", rref)
        assert len(calls) <= 3, calls
        assert dual == expand(mp).galois_dual(ell)


def _code_of_dim(f, n, k, rng):
    while (c := random_code(f, n, k, rng)).k != k:
        pass
    return c


def _refuse(name):
    def method(*args):
        pytest.fail(f"{name} called")
    return method


def test_dual_containment_bound_decides_before_any_product_or_expansion(monkeypatch):
    # rank-deficient A with 2 min(sum of k_i over nonzero rows, rank(A) n)
    # < nN: FAILS on the product path, with no zeta, witness, product or
    # expansion
    f4 = field(4)
    rng = random.Random(12)
    cases = [
        # rows 1 + 2 = row 3, rank 2: sum of k_i = 9, 18 < 36
        (mat(f4, ["1 0 a", "0 1 1", "1 1 a^2"]), (2, 3, 4), 12),
        # rank 1: rank(A) n = 4 < sum of k_i = 12, 8 < 12
        (mat(f4, ["1 a 1", "1 a 1", "a a^2 a"]), (4, 4, 4), 4),
        # a zero row's constituent adds nothing: 2 min(2, 4) = 4 < 8, where
        # counting it would give 2 min(6, 4) = 8
        (mat(f4, ["1 a", "0 0"]), (2, 4), 4),
        (MatGF.zeros(f4, 2, 3), (4, 4), 4),
    ]
    for a, dims, n in cases:
        cons = [_code_of_dim(f4, n, k, rng) for k in dims]
        mp = MPCode(cons, a)
        for ell in range(f4.e):
            monkeypatch.setattr(mpcode, "expand", _refuse("expand"))
            monkeypatch.setattr(MatGF, "__matmul__", _refuse("@"))
            rep = check_dual_containing_general(mp, ell)
            monkeypatch.undo()
            assert rep.verdict is Verdict.FAILS and rep.path is CheckPath.PRODUCT
            assert rep.witnesses == () and rep.condition_matrix.rows == 0 and rep.block == ()
            assert not expand(mp).is_galois_dual_containing(ell)


def _count_products(monkeypatch):
    calls = []
    matmul = MatGF.__matmul__

    def counted(self, other):
        calls.append((self.shape, other.shape))
        return matmul(self, other)

    monkeypatch.setattr(MatGF, "__matmul__", counted)
    return calls


def test_self_orthogonality_of_large_constituents_takes_only_the_gram_product(monkeypatch):
    # k_i + k_j > n for every pair: each witness fails by dimension
    f4 = field(4)
    rng = random.Random(13)
    a = mat(f4, ["1 a 0", "0 1 a^2", "a 1 1"])
    mp = MPCode([_code_of_dim(f4, 6, k, rng) for k in (4, 5, 6)], a)
    assert all(2 * c.k > mp.n for c in mp.constituents)
    for ell in range(f4.e):
        calls = _count_products(monkeypatch)
        rep = check_self_orthogonal(mp, ell)
        monkeypatch.undo()
        assert calls == [((3, 3), (3, 3))], calls
        assert rep.witnesses and not any(w.ok for w in rep.witnesses)
        assert rep.verdict is Verdict.FAILS
        assert not oracle.so_by_definition(expand(mp), ell)


@pytest.mark.parametrize("ell, products", [(0, 1 + 3), (1, 1 + 4), (2, 1 + 4)])
def test_self_orthogonality_mirrors_share_a_product_when_2l_is_0_mod_e(
        monkeypatch, ell, products):
    # every entry of the 2 x 2 condition matrix is nonzero and k_i + k_j
    # <= n: the Gram product plus one per witness, except that at l = 0
    # over GF(8) the mirror (2, 1) repeats the ok of (1, 2)
    f8 = field(8)
    a = MatGF(f8, [[1, 2], [1, 4]])
    rng = random.Random(14)
    for _ in range(10):
        mp = MPCode([_code_of_dim(f8, 4, 2, rng) for _ in range(2)], a)
        calls = _count_products(monkeypatch)
        rep = check_self_orthogonal(mp, ell)
        monkeypatch.undo()
        assert rep.condition_matrix.data.all()
        assert len(calls) == products, calls
        assert [(w.i, w.j) for w in rep.witnesses] == [(1, 1), (1, 2), (2, 1), (2, 2)]
        for w in rep.witnesses:
            assert w.ok == _contained(
                mp.constituents[w.i - 1], mp.constituents[w.j - 1].galois_dual(ell))


@pytest.mark.parametrize("ell, pairs", [(0, 3), (1, 4), (2, 4)])
def test_dual_containment_pairs_take_a_product_only_when_dimensions_allow(
        monkeypatch, ell, pairs):
    # a full-rank 2 x 2 A over GF(8) with an all-nonzero zeta; k_i + k_j
    # < n decides every pair witness with no parity check and no product,
    # and with k_i + k_j >= n each pair takes one product, except that at
    # l = 0 the mirror (2, 1) repeats the ok of (1, 2)
    f8 = field(8)
    a = MatGF(f8, [[1, 2], [1, 4]])
    rng = random.Random(15)
    small = MPCode([_code_of_dim(f8, 6, 2, rng) for _ in range(2)], a)
    monkeypatch.setattr(LinearCode, "parity_check", _refuse("parity_check"))
    calls = _count_products(monkeypatch)
    rep = check_dual_containing_general(small, ell)
    monkeypatch.undo()
    assert rep.path is CheckPath.FULL_RANK and rep.condition_matrix.data.all()
    assert len(rep.witnesses) == 4 and not any(w.ok for w in rep.witnesses)
    zeta_products = len(calls)
    for _ in range(10):
        mp = MPCode([_code_of_dim(f8, 6, k, rng) for k in (3, 4)], a)
        calls = _count_products(monkeypatch)
        rep = check_dual_containing_general(mp, ell)
        monkeypatch.undo()
        assert len(calls) == zeta_products + pairs, calls
        for w in rep.witnesses:
            assert w.ok == _contained(
                mp.constituents[w.i - 1].galois_dual(ell), mp.constituents[w.j - 1])


def test_dual_decides_full_row_rank_without_a_rank_test(monkeypatch):
    # the completion's RankDeficientError is the full-row-rank test
    calls = []
    rank = MatGF.rank

    def counted(self):
        calls.append(self.shape)
        return rank(self)

    monkeypatch.setattr(MatGF, "rank", counted)
    for name in ("f5_3x4_dc.mp", "f2_4x2_rankdef.mp", "f4_5x3_rankdef.mp"):
        mp, _ = load_mp((FIXTURES / name).read_text())
        dual = dual_general(mp, 0)
        assert dual == expand(mp).galois_dual(0)
        with redirect_stdout(io.StringIO()):
            assert cli.main(["dual", str(FIXTURES / name)]) == 0
    assert calls == []


@pytest.mark.parametrize(
    "name, q, verdict",
    [("f4_2x4_so.mp", 4, Verdict.HOLDS), ("f9_2x3_dc.mp", 9, Verdict.FAILS)],
)
def test_values_survive_copy_deepcopy_and_pickle(name, q, verdict):
    mp, _ = load_mp((FIXTURES / name).read_text())
    report = check_self_orthogonal(mp, 1)
    assert report.verdict is verdict
    for clone in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        for value in (field(q), mp.defmatrix, mp.constituents[0], mp):
            got = clone(value)
            assert got == value and hash(got) == hash(value)
        assert clone(field(q)) is field(q)  # interned
        with pytest.raises(ValueError, match="read-only"):
            clone(mp.defmatrix).data[0, 0] = 0
        assert check_self_orthogonal(clone(mp), 1) == report


def test_dual_general_all_zero_matrix():
    f2 = field(2)
    c = LinearCode.full(f2, 2)
    a = MatGF.zeros(f2, 2, 3)
    d = dual_general(MPCode([c, c], a), 0)
    assert d.is_full and d.n == 6


def test_expand_is_sum_of_partition_blocks(rng):
    for _ in range(25):
        mp = _random_mp(rng)
        part = row_partition(mp.defmatrix)
        if not part.blocks:
            continue
        pieces = [expand(_block_mp(mp, block)).gen for block in part.blocks]
        assert LinearCode.from_generator(MatGF.vstack(pieces)) == expand(mp)


def test_check_self_orthogonal_iff_definition(rng):
    hits = 0
    for _ in range(60):
        mp = _random_mp(rng, q_choices=(2, 3, 4))
        f = mp.spec
        for ell in range(f.e):
            rep = check_self_orthogonal(mp, ell)
            truth = oracle.so_by_definition(expand(mp), ell)
            assert (rep.verdict is Verdict.HOLDS) == truth
            hits += truth
    # zero Gram product: any constituents give a self-orthogonal code
    f2 = field(2)
    a = MatGF(f2, [[1, 1], [1, 1]])
    c = random_code(f2, 3, 2, rng)
    rep = check_self_orthogonal(MPCode([c, c], a), 0)
    assert rep.verdict is Verdict.HOLDS and rep.witnesses == ()
    assert oracle.so_by_definition(expand(MPCode([c, c], a)), 0)


def test_check_self_orthogonal_witness_order(rng):
    f4 = field(4)
    a = random_matrix(f4, 3, 3, rng)
    cons = [random_code(f4, 2, 1, rng) for _ in range(3)]
    rep = check_self_orthogonal(MPCode(cons, a), 1)
    coords = [(w.i, w.j) for w in rep.witnesses]
    assert coords == sorted(coords)


def _contained(x, y):
    """x <= y decided by sums, independently of is_subcode."""
    return code_sum(x, y) == y


def _witness_truth(mp, w, ell):
    """The containment a witness's condition string names, decided by sums
    with duals from galois_dual."""
    cons = mp.constituents
    if m := re.fullmatch(r"C(\d+)<=dual_(\d+)\(C(\d+)\)", w.condition):
        assert int(m[2]) == ell
        return "so", _contained(cons[int(m[1]) - 1], cons[int(m[3]) - 1].galois_dual(ell))
    if m := re.fullmatch(r"dual_(\d+)\(C(\d+)\)<=C(\d+)", w.condition):
        assert int(m[1]) == ell
        return "dc", _contained(cons[int(m[2]) - 1].galois_dual(ell), cons[int(m[3]) - 1])
    if m := re.fullmatch(r"C(\d+)=F", w.condition):
        c = cons[int(m[1]) - 1]
        return "full", c == LinearCode.full(c.spec, c.n)
    assert re.fullmatch(r"zeta\[\d+,\d+\]=0", w.condition), w.condition
    return "zeta", False


def _related_constituents(f, n, m, ell, rng):
    """m constituents drawn mostly from one code's l-Galois lattice, so
    that containments hold often enough to test both outcomes."""
    e = random_code(f, n, rng.randint(0, n), rng)
    d = e.galois_dual(ell)
    pool = [e, d, code_sum(e, d), e & d, LinearCode.zero(f, n), LinearCode.full(f, n)]
    return [
        rng.choice(pool) if rng.random() < 0.75 else random_code(f, n, rng.randint(0, n), rng)
        for _ in range(m)
    ]


def test_every_witness_matches_containment_by_sums():
    # each witness's ok, not only the verdict, must equal the containment
    # its condition names; SO and DC (full-rank and partition paths).  A
    # pair witness (i, j) and its mirror (j, i) never differ where
    # 2l = 0 (mod e), where the checkers share their product, and do
    # differ at some levels where 2l != 0
    rng = random.Random(5150)
    seen = {}
    mirrors = {}  # (q, ell) -> [mirrored pairs compared, pairs whose oks differ]
    # more draws where 2l != 0 (mod e) for some l, after the common ones
    for q, draws in [(q, 30) for q in (2, 3, 4, 8, 9, 16)] + [(8, 60), (16, 30)]:
        f = field(q)
        for _ in range(draws):
            m, ncols = rng.randint(1, 4), rng.randint(1, 4)
            a = random_matrix(f, m, ncols, rng)
            n = rng.randint(1, 4)
            for ell in range(f.e):
                mp = MPCode(_related_constituents(f, n, m, ell, rng), a)
                for rep in (check_self_orthogonal(mp, ell), check_dual_containing_general(mp, ell)):
                    oks = {}
                    for w in rep.witnesses:
                        kind, truth = _witness_truth(mp, w, ell)
                        assert w.ok == truth, (q, ell, w)
                        seen[kind, truth] = seen.get((kind, truth), 0) + 1
                        if kind in ("so", "dc"):
                            oks[w.i, w.j] = w.ok
                    tally = mirrors.setdefault((q, ell), [0, 0])
                    for i, j in oks:
                        if i < j and (j, i) in oks:
                            tally[0] += 1
                            tally[1] += oks[i, j] != oks[j, i]
    for kind in ("so", "dc", "full"):
        assert seen.get((kind, True), 0) >= 20 and seen.get((kind, False), 0) >= 20, seen
    symmetric = {(q, ell) for q, ell in mirrors if 2 * ell % field(q).e == 0}
    assert all(mirrors[key][1] == 0 for key in symmetric), mirrors
    assert all(mirrors[key][0] > 0 for key in ((4, 1), (9, 1), (16, 2))), mirrors
    assert all(mirrors[key][1] > 0 for key in ((8, 1), (8, 2), (16, 1), (16, 3))), mirrors


def test_check_dc_full_rank_iff_containment(rng):
    for _ in range(50):
        mp = _random_mp(rng, full_rank=True, q_choices=(2, 3, 4))
        f = mp.spec
        for ell in range(f.e):
            rep = check_dual_containing_general(mp, ell)
            big = expand(mp)
            truth = big.galois_dual(ell).is_subcode(big)
            assert (rep.verdict is Verdict.HOLDS) == truth


def test_check_dc_full_rank_completion_invariance(rng):
    for _ in range(15):
        mp = _random_mp(rng, full_rank=True, q_choices=(2, 3, 4, 5))
        a = mp.defmatrix
        if a.rows == a.cols:
            continue
        base = check_dual_containing_general(mp, 0)
        for _ in range(5):
            b = random_completion(a, random.Random(rng.randrange(10**9)))
            assert completion_holds(mp, 0, b) == (base.verdict is Verdict.HOLDS)


def test_check_dc_general_delegates_and_sufficiency(rng, monkeypatch):
    # one row partition per check decides the path, and no separate rank
    # test runs: FULL_RANK iff the first block holds every row, where the
    # zeta witnesses are exact; a first-block certificate is sound, and
    # the containment product decides everything else
    calls = []

    def counted(name, real):
        def method(*args):
            calls.append(name)
            return real(*args)
        return method

    monkeypatch.setattr(mpcode, "row_partition", counted("row_partition", mpcode.row_partition))
    monkeypatch.setattr(MatGF, "rank", counted("rank", MatGF.rank))

    def check(mp, ell):
        calls.clear()
        rep = check_dual_containing_general(mp, ell)
        assert calls == ["row_partition"], calls
        return rep

    seen = set()
    for full_rank in (True, False):
        for _ in range(80):
            mp = _random_mp(rng, full_rank=full_rank, q_choices=(2, 3))
            rep = check(mp, 0)
            big = expand(mp)
            truth = big.galois_dual(0).is_subcode(big)
            assert rep.verdict is (Verdict.HOLDS if truth else Verdict.FAILS)
            blocks = row_partition(mp.defmatrix).blocks
            every_row = bool(blocks) and len(blocks[0]) == len(mp.constituents)
            assert (rep.path is CheckPath.FULL_RANK) == every_row == full_rank
            if rep.path is CheckPath.PRODUCT:
                assert rep.witnesses == () and rep.condition_matrix.rows == 0
            elif rep.path is CheckPath.FIRST_BLOCK:
                assert rep.block == blocks[0]
                assert all(w.ok for w in rep.witnesses)
            else:
                assert rep.block == ()
            seen.add((rep.verdict, rep.path))
    assert seen == {
        (Verdict.HOLDS, CheckPath.FULL_RANK), (Verdict.FAILS, CheckPath.FULL_RANK),
        (Verdict.HOLDS, CheckPath.FIRST_BLOCK),
        (Verdict.HOLDS, CheckPath.PRODUCT), (Verdict.FAILS, CheckPath.PRODUCT),
    }, seen
    # an all-zero defining matrix has no partition block; its code is
    # zero, whose dual is the whole space
    f2 = field(2)
    c = LinearCode.full(f2, 2)
    rep = check(MPCode([c, c], MatGF.zeros(f2, 2, 3)), 0)
    assert rep.path is CheckPath.PRODUCT and rep.verdict is Verdict.FAILS


def test_check_dc_general_decides_the_former_gap():
    # Some dual-containing codes here are certified by no block pair of
    # the partition; the capped search used to answer INCONCLUSIVE on
    # them, and the containment product now proves them.
    f2 = field(2)
    a = MatGF(f2, [[1, 1], [1, 1]])
    rng = random.Random(11)
    by_product = 0
    for _ in range(400):
        c1 = random_code(f2, 2, rng.randint(0, 2), rng)
        c2 = random_code(f2, 2, rng.randint(0, 2), rng)
        mp = MPCode([c1, c2], a)
        rep = check_dual_containing_general(mp, 0)
        big = expand(mp)
        truth = big.galois_dual(0).is_subcode(big)
        assert rep.verdict is (Verdict.HOLDS if truth else Verdict.FAILS)
        by_product += truth and rep.path is CheckPath.PRODUCT
    assert by_product, "expected a true instance decided by the product"


def test_check_dc_general_rank_deficient_matches_oracle():
    # The rank-deficient verdict against the brute-force oracle, whose
    # dual and containment use no elimination from matgf or lincode.
    rng = random.Random(271828)
    seen = set()
    sides = set()
    count = 0
    for q in (2, 3, 4, 8, 9):
        f = field(q)
        draws = 0
        while draws < 20:
            m, ncols = rng.randint(2, 3), rng.randint(1, 3)
            n = rng.randint(1, 3)
            a = random_matrix(f, m, ncols, rng)
            if a.rank() == m or q ** (n * ncols) > 4096:
                continue
            draws += 1
            for ell in range(f.e):
                mp = MPCode(_related_constituents(f, n, m, ell, rng), a)
                big = expand(mp)
                rep = check_dual_containing_general(mp, ell)
                dual = oracle.dual_by_definition(big, ell)
                truth = oracle.is_subset_by_enumeration(dual, big)
                assert rep.verdict is (Verdict.HOLDS if truth else Verdict.FAILS), (q, ell, mp)
                path = "product" if rep.path is CheckPath.PRODUCT else "partition"
                seen.add((rep.verdict, path))
                sides.add((q, ell, 2 * big.k >= big.n))
                count += 1
    assert count >= 100
    assert {(8, 1, True), (8, 1, False), (8, 2, True), (8, 2, False)} <= sides, sides
    assert seen == {
        (Verdict.HOLDS, "partition"), (Verdict.HOLDS, "product"), (Verdict.FAILS, "product"),
    }, seen
    # the product's Frobenius twist matters: a zero first constituent
    # certifies nothing, and the second is l-Galois but not Euclidean
    # dual-containing
    for q in (4, 8, 9):
        f = field(q)
        a = MatGF(f, [[1], [1]])
        for ell in range(1, f.e):
            while True:
                big = random_code(f, 3, 2, rng)
                truth = [oracle.is_subset_by_enumeration(oracle.dual_by_definition(big, lv), big)
                         for lv in (0, ell)]
                if truth == [False, True]:
                    break
            mp = MPCode([LinearCode.zero(f, 3), big], a)
            for lv, want in ((0, Verdict.FAILS), (ell, Verdict.HOLDS)):
                rep = check_dual_containing_general(mp, lv)
                assert rep.verdict is want and rep.path is CheckPath.PRODUCT, (q, lv)

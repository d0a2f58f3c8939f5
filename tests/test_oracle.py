import tracemalloc
from itertools import product

import numpy as np
import pytest

from mpcodes import LinearCode, MatGF, expand, field
from mpcodes import io as fmt
from mpcodes import oracle

from conftest import FIXTURES, code, random_code


# -- scalar references: the oracle's definitions, one field operation at
# -- a time, as it computed them before it worked on arrays

def ref_inner(spec, a, b, ell):
    acc = 0
    for x, y in zip(a, b):
        acc = spec._add_direct(acc, spec.mul(x, spec.frobenius(y, ell)))
    return acc


def ref_codewords(c):
    spec = c.spec
    words = {tuple([0] * c.n)}
    for row in c.gen.data.tolist():
        new = set()
        for lam in range(1, spec.q):
            scaled = tuple(spec.mul(lam, x) for x in row)
            for w in words:
                new.add(tuple(spec._add_direct(a, b) for a, b in zip(w, scaled)))
        words |= new
    return sorted(words)


def ref_dual_vectors(c, ell):
    words = ref_codewords(c)
    return [
        cand
        for cand in product(range(c.spec.q), repeat=c.n)
        if all(ref_inner(c.spec, w, cand, ell) == 0 for w in words)
    ]


def ref_so(c, ell):
    words = ref_codewords(c)
    return all(ref_inner(c.spec, u, v, ell) == 0 for u in words for v in words)


def ref_min_distance(c):
    return min(sum(1 for x in w if x) for w in ref_codewords(c) if any(w))


# (q, n): small enough that the scalar scan of every [n, k] code stays
# cheap; n = 0 is the degenerate code with one empty word
REF_CASES = [(2, 0), (2, 6), (3, 4), (4, 3), (5, 3), (8, 2), (9, 2)]


def ref_codes(rng):
    """Seeded codes over every REF_CASES field, of every dimension 0..n."""
    for q, n in REF_CASES:
        f = field(q)
        for k in range(n + 1):
            for _ in range(2):
                c = random_code(f, n, k, rng)
                while c.k != k:
                    c = random_code(f, n, k, rng)
                yield c


@pytest.mark.parametrize("block", [5, oracle._BLOCK])
def test_array_oracle_matches_scalar_reference(rng, monkeypatch, block):
    # a block of 5 rows splits every scan into many prefixes and every
    # row set into many blocks
    monkeypatch.setattr(oracle, "_BLOCK", block)
    codes = list(ref_codes(rng))
    assert {(c.spec.q, c.k) for c in codes} >= {(q, k) for q, n in REF_CASES for k in (0, n)}
    for c in codes:
        f, n, k = c.spec, c.n, c.k
        words = ref_codewords(c)
        assert oracle.enumerate_codewords(c).words == tuple(words)
        if k:
            assert oracle.min_distance_exhaustive(c) == ref_min_distance(c)
        for ell in range(f.e):
            vecs = ref_dual_vectors(c, ell)
            # the ambient scan, then the solved basis (cap below q^(n+k))
            for cap in (oracle.DEFAULT_CAP, max(f.q ** (n + k) - 1, f.q ** (n - k))):
                assert oracle.dual_vectors_by_definition(c, ell, cap) == vecs
                want = LinearCode.from_generator(MatGF(f, np.array(vecs, dtype=np.uint8)))
                assert oracle.dual_by_definition(c, ell, cap) == want
            assert oracle.so_by_definition(c, ell) is ref_so(c, ell)
            rows = [list(w) for w in words[:7]]
            assert oracle.orthogonal_by_definition(f, rows, vecs, ell)
            expected = all(ref_inner(f, u, v, ell) == 0 for u in rows for v in rows)
            assert oracle.orthogonal_by_definition(f, rows, rows, ell) is expected


def test_subset_matches_scalar_reference(rng):
    codes = list(ref_codes(rng))
    for a in codes:
        for b in codes:
            if (a.spec, a.n) != (b.spec, b.n) or rng.random() > 0.3:
                continue
            want = set(ref_codewords(a)) <= set(ref_codewords(b))
            assert oracle.is_subset_by_enumeration(a, b) is want
        # a subcode spanned by some of the generator rows is always inside
        sub = LinearCode.from_generator(MatGF(a.spec, a.gen.data[: a.k // 2]))
        assert oracle.is_subset_by_enumeration(sub, a)


def test_scan_memory_does_not_grow_with_the_ambient_space(rng):
    # a [16,4] GF(2) code: listing the 2^16 candidates' digits as int64
    # would take 8 MiB; the dual's 2^12 words take 64 KiB
    f2 = field(2)
    c = random_code(f2, 16, 4, rng)
    while c.k != 4:
        c = random_code(f2, 16, 4, rng)
    tracemalloc.start()
    try:
        vecs = oracle._scan_dual(c, 0, oracle.DEFAULT_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vecs.shape == (1 << 12, 16)
    assert peak < vecs.nbytes + (2 << 20), peak


def test_negative_cap_is_refused():
    c = LinearCode.full(field(2), 3)
    for fn in (oracle.enumerate_codewords, oracle.dual_by_definition,
               oracle.dual_vectors_by_definition, oracle.so_by_definition):
        with pytest.raises(ValueError):
            fn(c, cap=-1)
    with pytest.raises(ValueError):
        oracle.is_subset_by_enumeration(c, c, cap=-5)


def test_enumerate_basics():
    f2 = field(2)
    O = LinearCode.zero(f2, 3)
    assert oracle.enumerate_codewords(O).words == ((0, 0, 0),)
    rep = code(f2, ["1 1"])
    assert set(oracle.enumerate_codewords(rep).words) == {(0, 0), (1, 1)}
    c = code(field(3), ["1 0 1", "0 1 2"])
    ws = oracle.enumerate_codewords(c)
    assert len(ws.words) == 9
    assert (0, 0, 0) in set(ws.words)


def test_enumerate_closure_spot_check(rng):
    for _ in range(15):
        q = rng.choice([2, 3, 4])
        f = field(q)
        c = random_code(f, rng.randint(1, 5), rng.randint(0, 3), rng)
        ws = oracle.enumerate_codewords(c)
        words = list(ws.words)
        pool = set(ws.words)
        for _ in range(20):
            u = rng.choice(words)
            v = rng.choice(words)
            lam = rng.randrange(q)
            assert tuple(f._add_direct(a, b) for a, b in zip(u, v)) in pool
            assert tuple(f.mul(lam, a) for a in u) in pool


def test_enumerate_cap():
    c = LinearCode.full(field(2), 12)
    with pytest.raises(oracle.OracleCapError):
        oracle.enumerate_codewords(c, cap=1000)


def test_dual_by_definition_small_identities():
    f2 = field(2)
    F = LinearCode.full(f2, 3)
    assert oracle.dual_by_definition(F, 0) == LinearCode.zero(f2, 3)
    even = code(f2, ["1 1"])
    assert oracle.dual_by_definition(even, 0) == even


def test_dual_of_whole_space_skips_the_ambient_scan():
    # q^n = 2^18 fits the default cap, but scanning it against all q^k
    # codewords would not; the dual is found by elimination instead
    f8 = field(8)
    assert oracle.dual_by_definition(LinearCode.full(f8, 6)) == LinearCode.zero(f8, 6)


def test_dual_by_definition_matches_structured(rng):
    for _ in range(40):
        q = rng.choice([2, 3, 4])
        f = field(q)
        n = rng.randint(1, 5)
        c = random_code(f, n, rng.randint(0, n), rng)
        for ell in range(f.e):
            assert oracle.dual_by_definition(c, ell) == c.galois_dual(ell)


def test_dual_by_definition_kernel_path(rng):
    # force the non-tiny path with a cap below q^n
    f4 = field(4)
    c = random_code(f4, 9, 3, rng)
    for ell in range(2):
        got = oracle.dual_by_definition(c, ell, cap=1 << 14)
        assert got == c.galois_dual(ell)
    big = random_code(f4, 12, 2, rng)  # dual dim 10: 4^10 over the cap
    with pytest.raises(oracle.OracleCapError):
        oracle.dual_by_definition(big, 0, cap=1 << 10)


def test_dual_by_definition_keeps_to_the_basis_rows(rng):
    # a random [15,5] GF(4) code has 4^10 dual words; the dual is built
    # from its 10 solved basis rows without listing them
    f4 = field(4)
    c = random_code(f4, 15, 5, rng)
    while c.k != 5:
        c = random_code(f4, 15, 5, rng)
    for ell in range(2):
        tracemalloc.start()
        try:
            got = oracle.dual_by_definition(c, ell)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == c.galois_dual(ell)
        assert peak < 4 << 20, peak


def test_so_by_definition():
    f4 = field(4)
    assert oracle.so_by_definition(LinearCode.zero(f4, 4), 1) is True
    assert oracle.so_by_definition(LinearCode.full(f4, 4), 1) is False
    c2 = code(f4, ["1 0 1 a a^2", "0 1 1 a^2 a"])
    assert oracle.so_by_definition(c2, 1) is True
    assert oracle.so_by_definition(c2, 0) is False


def test_min_distance_exhaustive():
    f2 = field(2)
    rep = code(f2, ["1 1 1 1 1"])
    assert oracle.min_distance_exhaustive(rep) == 5
    with pytest.raises(ValueError):
        oracle.min_distance_exhaustive(LinearCode.zero(f2, 2))


def test_min_distance_exhaustive_agrees_with_low_weight(rng):
    from mpcodes import DistanceBudget

    for _ in range(15):
        f3 = field(3)
        n = 12
        c = random_code(f3, n, rng.randint(1, 6), rng)
        if c.k == 0:
            continue
        d = oracle.min_distance_exhaustive(c)
        low = c.min_distance(DistanceBudget(enum_cap=1))
        assert low.exact and low.d == d


def test_is_subset_by_enumeration():
    f2 = field(2)
    a = code(f2, ["1 1 1 1"])
    b = code(f2, ["1 1 0 0", "0 0 1 1"])
    assert oracle.is_subset_by_enumeration(a, b)
    assert not oracle.is_subset_by_enumeration(b, a)


def test_is_subset_enumerates_only_the_first_code():
    # f9_4x4_dc.mp expands to a 1-Galois dual-containing [20,17] code over
    # GF(9): 9^17 codewords, far over the cap, but its dual has 9^3
    mp, _ = fmt.load_mp((FIXTURES / "f9_4x4_dc.mp").read_text())
    big = expand(mp)
    dual1, dual0 = big.galois_dual(1), big.galois_dual(0)
    assert oracle.is_subset_by_enumeration(dual1, big)
    assert dual0 != dual1 and dual0.k == dual1.k
    assert not oracle.is_subset_by_enumeration(dual1, dual0)
    with pytest.raises(oracle.OracleCapError):
        oracle.is_subset_by_enumeration(big, dual1)


def test_orthogonal_by_definition():
    f4 = field(4)
    # theta * theta^2 = 1
    assert not oracle.orthogonal_by_definition(f4, [[2]], [[2]], 1)
    assert oracle.orthogonal_by_definition(f4, [[2, 3]], [[0, 0]], 1)
    # theta * theta = theta^2, theta * theta^2 = 1: 1 + 1 = 0 at ell = 1 only
    assert oracle.orthogonal_by_definition(f4, [[2, 2]], [[2, 2]], 1)
    assert not oracle.orthogonal_by_definition(f4, [[2, 2]], [[2, 1]], 1)

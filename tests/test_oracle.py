import tracemalloc

import pytest

from mpcodes import LinearCode, MatGF, expand, field
from mpcodes import io as fmt
from mpcodes import oracle

from conftest import FIXTURES, code, random_code


def test_enumerate_basics():
    f2 = field(2)
    O = LinearCode.zero(f2, 3)
    assert oracle.enumerate_codewords(O).words == ((0, 0, 0),)
    rep = code(f2, ["1 1"])
    assert set(oracle.enumerate_codewords(rep).words) == {(0, 0), (1, 1)}
    c = code(field(3), ["1 0 1", "0 1 2"])
    ws = oracle.enumerate_codewords(c)
    assert len(ws.words) == 9
    assert (0, 0, 0) in ws


def test_enumerate_closure_spot_check(rng):
    for _ in range(15):
        q = rng.choice([2, 3, 4])
        f = field(q)
        c = random_code(f, rng.randint(1, 5), rng.randint(0, 3), rng)
        ws = oracle.enumerate_codewords(c)
        words = list(ws.words)
        pool = ws.as_set()
        for _ in range(20):
            u = rng.choice(words)
            v = rng.choice(words)
            lam = rng.randrange(q)
            assert tuple(f.add(a, b) for a, b in zip(u, v)) in pool
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


def test_scalar_inner():
    f4 = field(4)
    # theta * theta^2 = 1
    assert oracle.scalar_inner(f4, [2], [2], 1) == 1
    assert oracle.scalar_inner(f4, [2, 3], [0, 0], 1) == 0

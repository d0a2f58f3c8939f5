import random

import pytest

from mpcodes import (
    DistanceBudget,
    LinearCode,
    MatGF,
    UndefinedDistanceError,
    field,
)
from mpcodes import oracle

from conftest import code, code_sum, random_code, random_matrix


def test_from_generator_canonicalizes():
    f2 = field(2)
    assert LinearCode.from_generator(MatGF.identity(f2, 3)).is_full
    assert LinearCode.from_generator(MatGF.zeros(f2, 1, 3)).k == 0
    dup = LinearCode.from_generator(MatGF(f2, [[1, 1, 0], [1, 1, 0]]))
    assert dup.k == 1
    # equality is canonical-form equality
    a = code(f2, ["1 1 0", "0 0 1"])
    b = code(f2, ["1 1 1", "0 0 1"])
    assert a == b


def test_zero_and_full_duals():
    f3 = field(3)
    O = LinearCode.zero(f3, 4)
    F = LinearCode.full(f3, 4)
    assert O.euclidean_dual() == F
    assert F.euclidean_dual() == O
    rep = code(field(2), ["1 1 1"])
    d = rep.euclidean_dual()
    assert d.k == 2
    assert all(int(row.sum()) % 2 == 0 for row in d.gen.data)


def test_galois_dual_properties(rng):
    for _ in range(30):
        q = rng.choice([2, 3, 4, 5, 8, 9])
        f = field(q)
        n = rng.randint(1, 7)
        c = random_code(f, n, rng.randint(0, n), rng)
        for ell in range(f.e):
            d = c.galois_dual(ell)
            assert c.k + d.k == n
            assert d.galois_dual((f.e - ell) % f.e) == c  # double dual
        assert c.galois_dual(0) == c.euclidean_dual()
    with pytest.raises(ValueError):
        random_code(field(4), 3, 1, rng).galois_dual(2)


def _dual_by_two_eliminations(c, ell):
    """The l-Galois dual as the canonical span of the kernel basis of the
    canonical generator, mapped by the Frobenius power e - l."""
    dual = LinearCode.from_generator(c.gen.kernel_basis())
    twist = (c.spec.e - ell) % c.spec.e
    return LinearCode.from_generator(dual.gen.frobenius_map(twist))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 27])
def test_duals_match_two_elimination_reference(q):
    # every k from 0 to n, so both routes and the 2k = n boundary
    f = field(q)
    rng = random.Random(q)
    for n in (1, 2, 5, 6, 9):
        codes = [LinearCode.zero(f, n), LinearCode.full(f, n)]
        for k in range(n + 1):
            for _ in range(3):
                rows = [[rng.randrange(q) if rng.random() < 0.6 else 0 for _ in range(n)]
                        for _ in range(k)]
                codes.append(LinearCode.from_generator(MatGF(f, rows) if k else MatGF.zeros(f, 0, n)))
        for c in codes:
            assert c.euclidean_dual() == _dual_by_two_eliminations(c, 0), (n, c.k)
            for ell in range(f.e):
                assert c.galois_dual(ell) == _dual_by_two_eliminations(c, ell), (n, c.k, ell)
            # the parity-check rows span the dual without being canonical
            assert LinearCode.from_generator(c.parity_check()) == c.euclidean_dual()


def test_euclidean_dual_eliminates_once_on_the_smaller_side(monkeypatch):
    calls = []
    rref = MatGF.rref

    def counted(self):
        calls.append(self.rows)
        return rref(self)

    f = field(9)
    rng = random.Random(5)
    n = 10
    codes = [random_code(f, n, k, rng) for k in range(n + 1)]
    monkeypatch.setattr(MatGF, "rref", counted)
    for c in codes:
        calls.clear()
        c.euclidean_dual()
        assert len(calls) <= 1 and all(r <= min(c.k, n - c.k) for r in calls), (c.k, calls)
        calls.clear()
        c.parity_check()
        c.is_subcode(c)
        c.is_galois_dual_containing(1)
        assert calls == [], c.k  # read off the canonical generator


def test_galois_dual_vanishing_products(rng):
    # x in the l-Galois dual iff it pairs to zero with every generator row
    for _ in range(20):
        q = rng.choice([2, 3, 4, 9])
        f = field(q)
        n = rng.randint(1, 5)
        c = random_code(f, n, rng.randint(0, n), rng)
        for ell in range(f.e):
            d = c.galois_dual(ell)
            words = oracle.enumerate_codewords(d).array
            assert oracle.orthogonal_by_definition(f, c.gen.data, words, ell)


def test_is_subcode():
    f2 = field(2)
    O = LinearCode.zero(f2, 4)
    F = LinearCode.full(f2, 4)
    c = code(f2, ["1 1 0 0", "0 0 1 1"])
    assert O.is_subcode(c) and O.is_subcode(F)
    assert c.is_subcode(F) and c.is_subcode(c)
    assert not F.is_subcode(c)
    sub = code(f2, ["1 1 1 1"])
    assert sub.is_subcode(c)


def test_is_subcode_agrees_with_enumeration(rng):
    for _ in range(40):
        q = rng.choice([2, 3, 4])
        f = field(q)
        n = rng.randint(1, 5)
        a = random_code(f, n, rng.randint(0, 3), rng)
        b = random_code(f, n, rng.randint(0, n), rng)
        expected = set(oracle.enumerate_codewords(a).words) <= set(oracle.enumerate_codewords(b).words)
        assert a.is_subcode(b) == expected


def test_sum_and_intersection(rng):
    f2 = field(2)
    c = code(f2, ["1 1 0 0"])
    O = LinearCode.zero(f2, 4)
    F = LinearCode.full(f2, 4)
    assert code_sum(c, O) == c
    assert code_sum(c, c) == c
    assert (c & F) == c
    assert (c & O) == O
    for _ in range(40):
        q = rng.choice([2, 3, 4, 5])
        f = field(q)
        n = rng.randint(1, 6)
        a = random_code(f, n, rng.randint(0, n), rng)
        b = random_code(f, n, rng.randint(0, n), rng)
        s = code_sum(a, b)
        i = a & b
        # modular law for dimensions
        assert s.k + i.k == a.k + b.k
        assert i.is_subcode(a) and i.is_subcode(b)
        assert a.is_subcode(s) and b.is_subcode(s)


def test_intersection_matches_set_intersection(rng):
    for _ in range(30):
        q = rng.choice([2, 3, 4])
        f = field(q)
        n = rng.randint(1, 5)
        a = random_code(f, n, rng.randint(0, 3), rng)
        b = random_code(f, n, rng.randint(0, 3), rng)
        inter = a & b
        expected = set(oracle.enumerate_codewords(a).words) & set(oracle.enumerate_codewords(b).words)
        assert set(oracle.enumerate_codewords(inter).words) == expected


def _intersection_cases(f, n, rng):
    """(X, Y) pairs: random, a zero or a full operand on either side,
    X inside Y, and X meeting Y only in 0."""
    x = random_code(f, n, rng.randint(1, n), rng)
    y = LinearCode.zero(f, n)
    while y.k == 0:
        y = random_code(f, n, rng.randint(1, n), rng)
    zero, full = LinearCode.zero(f, n), LinearCode.full(f, n)
    inside = LinearCode.from_generator(random_matrix(f, rng.randint(1, y.k), y.k, rng) @ y.gen)
    # complementary rows of an invertible matrix meet only in 0
    while True:
        square = random_matrix(f, n, n, rng)
        if square.rank() == n:
            break
    split = rng.randint(1, n - 1)
    top = LinearCode.from_generator(square.row_submatrix(list(range(1, split + 1))))
    bottom = LinearCode.from_generator(square.row_submatrix(list(range(split + 1, n + 1))))
    return [
        ("random", x, y), ("zero left", zero, y), ("zero right", x, zero),
        ("full left", full, y), ("full right", x, full), ("inside", inside, y),
        ("contains", y, inside), ("meet in 0", top, bottom),
    ]


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_intersection_edge_cases_match_enumeration(q):
    f = field(q)
    rng = random.Random(q)
    for _ in range(6):
        n = rng.randint(2, 4)
        for label, x, y in _intersection_cases(f, n, rng):
            inter = x & y
            expected = set(oracle.enumerate_codewords(x).words) & set(oracle.enumerate_codewords(y).words)
            assert set(oracle.enumerate_codewords(inter).words) == expected, label
            assert inter == LinearCode.from_generator(inter.gen), label  # canonical
            if label == "meet in 0":
                assert inter.k == 0
            if label == "inside":
                assert inter == x


def test_min_distance_repetition_and_errors():
    f2 = field(2)
    for n in (1, 3, 7):
        rep = LinearCode.from_generator(MatGF(f2, [[1] * n]))
        r = rep.min_distance()
        assert r.exact and r.d == n
    with pytest.raises(UndefinedDistanceError):
        LinearCode.zero(f2, 3).min_distance()
    full = LinearCode.full(field(3), 4)
    assert full.min_distance().d == 1


def test_min_distance_strategies_agree(rng):
    for _ in range(25):
        q = rng.choice([2, 3, 4, 5, 8, 9])
        f = field(q)
        n = rng.randint(2, 10)
        c = random_code(f, n, rng.randint(1, min(n, 5)), rng)
        if c.k == 0:
            continue
        enum = c.min_distance(DistanceBudget())
        low = c.min_distance(DistanceBudget(enum_cap=1))
        assert enum.strategy == "enum" and enum.exact
        assert low.exact
        assert enum.d == low.d


def test_min_distance_bounds_mode():
    rng = random.Random(5)
    f3 = field(3)
    c = LinearCode.from_generator(random_matrix(f3, 8, 14, rng))
    exact = c.min_distance().d
    bounded = c.min_distance(DistanceBudget(enum_cap=1, lw_cap=10))
    assert bounded.strategy in ("bounds", "low-weight")
    assert bounded.lower <= exact <= bounded.upper
    if bounded.strategy == "bounds":
        assert not bounded.exact
        with pytest.raises(ValueError):
            _ = bounded.d


def test_min_distance_str_formats():
    from mpcodes import DistanceResult

    assert str(DistanceResult(4, 4, "enum")) == "4"
    assert str(DistanceResult(3, 5, "bounds")) == "≥3≤5"


def test_is_galois_self_orthogonal():
    f4 = field(4)
    O = LinearCode.zero(f4, 5)
    F = LinearCode.full(f4, 5)
    assert O.is_galois_self_orthogonal(1)
    assert not F.is_galois_self_orthogonal(1)
    c2 = code(f4, ["1 0 1 a a^2", "0 1 1 a^2 a"])
    assert c2.is_galois_self_orthogonal(1)
    assert not c2.is_galois_self_orthogonal(0)


def test_is_galois_dual_containing_matches_oracle(rng):
    hamming = code(field(2), ["1 0 0 0 0 1 1", "0 1 0 0 1 0 1",
                              "0 0 1 0 1 1 0", "0 0 0 1 1 1 1"])
    codes = [hamming, LinearCode.zero(field(4), 3), LinearCode.full(field(9), 2)]
    for _ in range(60):
        f = field(rng.choice([2, 3, 4, 5, 8, 9]))
        n = rng.randint(1, 5)
        codes.append(random_code(f, n, rng.randint(0, n), rng))
    seen = set()
    for c in codes:
        for ell in range(c.spec.e):
            truth = oracle.is_subset_by_enumeration(oracle.dual_by_definition(c, ell), c)
            assert c.is_galois_dual_containing(ell) == truth
            seen.add((2 * c.k >= c.n, truth))
    assert seen == {(False, False), (True, False), (True, True)}


def test_contains_vector():
    """A vector lies in a code iff its one-row code is a subcode."""
    f2 = field(2)
    c = code(f2, ["1 1 0", "0 1 1"])
    assert code(f2, ["1 0 1"]).is_subcode(c)
    assert not code(f2, ["1 0 0"]).is_subcode(c)
    assert code(f2, ["0 0 0"]).is_subcode(c)

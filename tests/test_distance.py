"""Minimum distance: every strategy against independent references."""

import json
import random
import tracemalloc
from collections import Counter
from itertools import combinations, product
from math import comb
from pathlib import Path

import numpy as np
import pytest

from mpcodes import DistanceBudget, LinearCode, MatGF, dual_general, expand, field, oracle
from mpcodes import io as fmt
from mpcodes import lincode

from conftest import FIXTURES, random_code, random_matrix

REFERENCES = Path(__file__).resolve().parent.parent / "bench" / "data" / "fixture_codes.json"


def _fixture_code(row, mps):
    text = (FIXTURES / row["fixture"]).read_text()
    if row["code"] == "code":
        return fmt.load_code(text)
    if row["fixture"] not in mps:
        mps[row["fixture"]] = fmt.load_mp(text)[0]
    mp = mps[row["fixture"]]
    return expand(mp) if row["code"] == "expand" else dual_general(mp, row["ell"])


def test_default_budget_is_exact_on_every_fixture_code():
    """The reference d of every fixture expansion and dual, each found by
    a route other than the default strategy, is met exactly."""
    rows = json.loads(REFERENCES.read_text())
    assert rows
    mps = {}
    for row in rows:
        code = _fixture_code(row, mps)
        assert (code.n, code.k) == (row["n"], row["k"]), row
        r = code.min_distance()
        assert r.exact and r.d == row["d"], (row, r, r.strategy)


def _two_set_code(f, k, extra, rng):
    """[I | A | R] with A invertible: at least two full-rank information
    sets, so the information-set path is taken above ``enum_cap``."""
    while True:
        a = random_matrix(f, k, k, rng)
        if a.rank() == k:
            break
    rows = [
        [int(i == j) for j in range(k)] + list(a.data[i])
        + [rng.randrange(f.q) for _ in range(extra)]
        for i in range(k)
    ]
    return LinearCode.from_generator(MatGF(f, rows))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_enumerator_matches_oracle(q, monkeypatch):
    """``enum`` (default budget) on random codes, and ``info-sets``
    (enum_cap=1) on [I | A | R] codes, agree with the brute-force oracle;
    chunks of 2 or 3 words split every level."""
    rng = random.Random(1000 + q)
    f = field(q)
    kmax = 5 if q <= 5 else 3
    default = lincode._CHUNK
    for _ in range(12):
        n = rng.randint(1, 12)
        c = random_code(f, n, rng.randint(1, min(n, kmax)), rng)
        if c.k == 0:
            continue
        d = oracle.min_distance_exhaustive(c)
        for chunk in (default, 2):
            monkeypatch.setattr(lincode, "_CHUNK", chunk)
            r = c.min_distance()
            assert r.strategy == "enum" and r.exact and r.d == d, (c, r)
    for _ in range(8):
        k = rng.randint(1, kmax)
        c = _two_set_code(f, k, rng.randint(0, 4), rng)
        d = oracle.min_distance_exhaustive(c)
        for chunk in (default, 3):
            monkeypatch.setattr(lincode, "_CHUNK", chunk)
            r = c.min_distance(DistanceBudget(enum_cap=1))
            assert r.strategy == "info-sets" and r.exact and r.d == d, (c, r)


def test_several_information_sets_match_oracle():
    """2^12, 3^8 and 4^6 words are too many to list on the first set
    alone, so the enumerator builds every set: at the seed 24 of the 40
    codes have two of rank k (``info-sets`` under enum_cap=1, the other
    16 ``low-weight``), and 34 end with one of rank r < k, whose share of
    the lower bound is only w + 1 - (k - r); in 5 more such a set would
    have rank below 2k - n, which can never count, and is not built."""
    rng = random.Random(4)
    labels = Counter()
    for _ in range(40):
        q, k = rng.choice([(2, 12), (3, 8), (4, 6)])
        f = field(q)
        c = random_code(f, rng.randint(k + 2, 3 * k + 2), k, rng)
        d = oracle.min_distance_exhaustive(c)
        full = [r for r, _ in lincode._information_sets(c)].count(c.k)
        for budget in (DistanceBudget(), DistanceBudget(enum_cap=1)):
            r = c.min_distance(budget)
            assert r.lower <= d <= r.upper, (c, r, d)
            assert r.exact == (r.strategy != "bounds"), r
            assert not r.exact or r.d == d, (c, r, d)
        # above enum_cap the label of an exact d counts the full-rank sets
        assert r.strategy in ("bounds", "info-sets" if full >= 2 else "low-weight"), r
        labels[r.strategy] += 1
    assert labels == {"info-sets": 24, "low-weight": 16}, labels


def _high_rate_code(f, n_max, rng):
    """A code with n < 2k and d >= 3: only its first information set has
    rank k, and its generator rows alone do not certify d."""
    while True:
        n = rng.randint(n_max - 3, n_max)
        c = random_code(f, n, n - rng.randint(2, 4), rng)
        if 2 * c.k > n and oracle.min_distance_exhaustive(c) >= 3:
            return c


def test_tiny_budget_gives_a_certified_bracket():
    """Every lw_cap leaves a certified bracket, exact only under the
    label of the code's information sets: ``info-sets`` for [I | A | R]
    codes, ``low-weight`` for codes with n < 2k."""
    rng = random.Random(7)
    seen_bounds = {"info-sets": 0, "low-weight": 0}
    for q, n_max in ((2, 12), (3, 9), (4, 8), (8, 7)):
        f = field(q)
        k_max = 5 if q <= 4 else 4
        codes = [
            (_two_set_code(f, rng.randint(3, k_max), rng.randint(2, 6), rng), "info-sets")
            for _ in range(6)
        ]
        codes += [(_high_rate_code(f, n_max, rng), "low-weight") for _ in range(4)]
        for c, label in codes:
            d = oracle.min_distance_exhaustive(c)
            for cap in (1, 10, 40, 200):
                r = c.min_distance(DistanceBudget(enum_cap=1, lw_cap=cap))
                assert r.strategy in (label, "bounds")
                assert 1 <= r.lower <= d <= r.upper <= c.n, (c, cap, r, d)
                assert r.exact == (r.strategy == label)
                seen_bounds[label] += r.strategy == "bounds"
    assert seen_bounds["info-sets"] >= 10 and seen_bounds["low-weight"] >= 10, seen_bounds


def test_low_weight_matches_oracle_above_rate_one_half(rng):
    """Codes of rate above 1/2 have one full-rank information set, so
    above ``enum_cap`` the enumerator certifies d from that set and the
    sets of lower rank, under the label ``low-weight``."""
    checked = 0
    for q, n in ((2, 12), (3, 9), (4, 7), (5, 6)):
        f = field(q)
        for _ in range(6):
            k = rng.randint(n // 2 + 1, n - 1)
            c = random_code(f, n, k, rng)
            if 2 * c.k <= n:
                continue
            r = c.min_distance(DistanceBudget(enum_cap=1))
            assert r.strategy == "low-weight" and r.exact
            assert r.d == oracle.min_distance_exhaustive(c)
            checked += 1
    assert checked >= 15


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_low_weight_blocks_match_oracle(chunk, rng, monkeypatch):
    """Enumeration blocks of at most ``chunk`` words, which split the
    message levels of codes of rate above 1/2, find the same distance."""
    monkeypatch.setattr(lincode, "_CHUNK", chunk)
    for q, n in ((2, 10), (4, 7), (9, 5)):
        f = field(q)
        for _ in range(3):
            c = random_code(f, n, n - 2, rng)
            if 2 * c.k <= n:
                continue
            r = c.min_distance(DistanceBudget(enum_cap=1))
            assert r.strategy == "low-weight"
            assert r.d == oracle.min_distance_exhaustive(c)


@pytest.mark.parametrize("q, n", [(2, 300), (3, 257), (4, 300), (8, 257)])
def test_weights_count_past_255(q, n):
    """A repetition code longer than 255 has d = n under either route: its
    one word's weight must not wrap in a byte-sized count."""
    code = LinearCode.from_generator(MatGF(field(q), [[1] * n]))
    for budget in (DistanceBudget(), DistanceBudget(enum_cap=1)):
        r = code.min_distance(budget)
        assert (r.lower, r.upper) == (n, n), (budget, r)


def _reed_muller_2_6():
    """RM(2, 6): evaluations of the monomials of degree <= 2 in 6
    variables, a binary [64, 22, 16] code; the points are shuffled so
    that the information sets have ranks 22, 22 and 20."""
    f2 = field(2)
    points = [[(x >> i) & 1 for i in range(6)] for x in range(64)]
    random.Random(0).shuffle(points)
    monomials = [()] + [(i,) for i in range(6)]
    monomials += [(i, j) for i in range(6) for j in range(i + 1, 6)]
    rows = [[int(all(p[i] for i in mono)) for p in points] for mono in monomials]
    return LinearCode.from_generator(MatGF(f2, rows))


def _grs_16_8():
    """A generalized Reed-Solomon [16, 8, 9] code over GF(16): MDS."""
    f16 = field(16)
    points = list(range(16))
    rows = [[f16.pow(x, i) if (x or i) else 1 for x in points] for i in range(8)]
    return LinearCode.from_generator(MatGF(f16, rows))


def _hamming_8():
    """The Hamming [73, 70, 3] code over GF(8): the dual of the code
    whose generator's columns are the points of PG(2, 8)."""
    f8 = field(8)
    points = [v for v in product(range(8), repeat=3) if any(v) and next(filter(None, v)) == 1]
    return LinearCode.from_generator(MatGF(f8, [list(c) for c in zip(*points)])).euclidean_dual()


def _hamming_3():
    """The ternary Hamming [13, 10, 3] code: the dual of the code whose
    generator's columns are the points of PG(2, 3)."""
    f3 = field(3)
    points = [v for v in product(range(3), repeat=3) if any(v) and next(filter(None, v)) == 1]
    return LinearCode.from_generator(MatGF(f3, [list(c) for c in zip(*points)])).euclidean_dual()


def _grs_9_8():
    """A generalized Reed-Solomon [8, 4, 5] code over GF(9): MDS."""
    f9 = field(9)
    rows = [[f9.pow(x, i) if (x or i) else 1 for x in range(8)] for i in range(4)]
    return LinearCode.from_generator(MatGF(f9, rows))


def _random_5():
    """A seeded random [30, 10, 10] code over GF(5)."""
    return random_code(field(5), 30, 10, random.Random(5))


# min_distance(DistanceBudget(enum_cap=1, lw_cap=L)) as (L, lower, upper,
# strategy), with L one below and at the codewords listed by the end of
# each step (the level boundaries); over GF(2^e) the values the
# enumerator gave when it held every word as uint8 coordinates, over odd
# q those it gave before its levels were written in place
CAPPED_BRACKETS = {
    _reed_muller_2_6: [
        (43, 3, 16, "bounds"), (44, 4, 16, "bounds"), (274, 4, 16, "bounds"),
        (275, 5, 16, "bounds"), (505, 5, 16, "bounds"), (506, 6, 16, "bounds"),
        (758, 6, 16, "bounds"), (759, 7, 16, "bounds"), (2298, 7, 16, "bounds"),
        (2299, 8, 16, "bounds"), (3838, 8, 16, "bounds"), (3839, 9, 16, "bounds"),
        (5378, 9, 16, "bounds"), (5379, 10, 16, "bounds"), (12693, 10, 16, "bounds"),
        (12694, 11, 16, "bounds"), (20008, 11, 16, "bounds"), (20009, 12, 16, "bounds"),
        (27323, 12, 16, "bounds"), (27324, 13, 16, "bounds"), (53657, 13, 16, "bounds"),
        (53658, 14, 16, "bounds"), (79991, 14, 16, "bounds"), (79992, 15, 16, "bounds"),
        (106325, 15, 16, "bounds"), (106326, 16, 16, "info-sets"),
    ],
    _grs_16_8: [
        (15, 3, 9, "bounds"), (16, 4, 9, "bounds"), (435, 4, 9, "bounds"),
        (436, 5, 9, "bounds"), (855, 5, 9, "bounds"), (856, 6, 9, "bounds"),
        (13455, 6, 9, "bounds"), (13456, 7, 9, "bounds"), (26055, 7, 9, "bounds"),
        (26056, 8, 9, "bounds"), (262305, 8, 9, "bounds"), (262306, 9, 9, "info-sets"),
    ],
    _hamming_8: [(16974, 2, 3, "bounds"), (16975, 3, 3, "low-weight")],
    _hamming_3: [(99, 2, 3, "bounds"), (100, 3, 3, "low-weight")],
    _grs_9_8: [
        (51, 2, 5, "bounds"), (52, 3, 5, "bounds"), (307, 3, 5, "bounds"),
        (308, 4, 5, "bounds"), (819, 4, 5, "bounds"), (820, 5, 5, "info-sets"),
    ],
    _random_5: [
        (19, 4, 17, "bounds"), (20, 5, 15, "bounds"), (29, 5, 15, "bounds"),
        (30, 6, 15, "bounds"), (209, 6, 15, "bounds"), (210, 7, 13, "bounds"),
        (389, 7, 13, "bounds"), (390, 8, 12, "bounds"), (569, 8, 12, "bounds"),
        (570, 9, 12, "bounds"), (2489, 9, 12, "bounds"), (2490, 10, 12, "bounds"),
        (4409, 10, 12, "bounds"), (4410, 10, 10, "info-sets"),
    ],
}


@pytest.mark.parametrize("make", CAPPED_BRACKETS, ids=lambda m: m.__name__)
def test_capped_brackets_at_level_boundaries(make):
    """The capped enumerator keeps its recorded brackets at every level
    boundary, over GF(2^e) (packed bit-plane words) and odd q (uint8
    words): the same levels list the same words, and ``lw_cap`` counts
    them alike."""
    code = make()
    for cap, lower, upper, strategy in CAPPED_BRACKETS[make]:
        r = code.min_distance(DistanceBudget(enum_cap=1, lw_cap=cap))
        assert (r.lower, r.upper, r.strategy) == (lower, upper, strategy), cap


def test_low_rank_information_set_is_not_built(monkeypatch):
    """For the Hamming [73, 70, 3] code over GF(8) the unused columns after
    the first set are 3 < 2k - n = 67: a set of such rank could add to the
    bound only from level 67 on, so no further set is eliminated."""
    code = _hamming_8()
    calls = []
    rref = MatGF.rref
    monkeypatch.setattr(MatGF, "rref", lambda self: calls.append(self.shape) or rref(self))
    r = code.min_distance()
    assert (r.lower, r.upper, r.strategy) == (3, 3, "low-weight")
    assert calls == []


@pytest.mark.parametrize("make, d", [(_reed_muller_2_6, 16), (_grs_16_8, 9)])
def test_enumeration_memory_stays_near_chunk(make, d, monkeypatch):
    code = make()
    chunk = 1 << 12
    monkeypatch.setattr(lincode, "_CHUNK", chunk)
    tracemalloc.start()
    try:
        r = code.min_distance()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r.exact and r.d == d
    assert peak < 8 * chunk * code.n, peak


def _scaled(f, gen):
    """scaled[:, i, c - 1] = c times row i, by scalar field operations."""
    return np.array(
        [[[f.mul(c, row[x]) for c in range(1, f.q)] for row in gen] for x in range(len(gen[0]))],
        dtype=np.uint8,
    )


def _unpack(f, words, n):
    """The n x N uint8 coordinates of a block of enumerator words over
    GF(2^e): its rows are e bit-planes, each packed along the coordinate
    axis with the first coordinate in the top bit of the first byte; the
    bits past n must be 0."""
    planes = words.reshape(f.e, -1, words.shape[-1])
    size = words.dtype.itemsize
    octets = np.ascontiguousarray(planes[..., None]).view(np.uint8)
    octets = octets.transpose(0, 1, 3, 2).reshape(f.e, -1, words.shape[-1])
    bits = np.unpackbits(octets, axis=1)
    assert not bits[:, n:].any() and bits.shape[1] == 8 * size * -(-n // (8 * size))
    return sum(bits[s, :n] << s for s in range(f.e)).astype(np.uint8)


def _tables(f, gen, packed):
    """A multiples table of ``gen`` over GF(2^e): by scalar field
    operations, or packed by the enumerator's helper and checked against
    the former after unpacking."""
    scaled = _scaled(f, gen)
    if not packed:
        return scaled
    table = lincode._multiples_table(f, np.array(gen, dtype=np.uint8))
    n, k, qm1 = scaled.shape
    assert table.shape[1:] == (k, qm1)
    assert (_unpack(f, table.reshape(table.shape[0], -1), n) == scaled.reshape(n, -1)).all()
    return table


def _check_block_layout(blocks, table):
    """Every block is a C-contiguous 2-d array of the table's dtype, with
    one word a column of as many rows as the table."""
    for b in blocks:
        assert b.dtype == table.dtype and b.ndim == 2 and b.shape[0] == table.shape[0]
        assert b.flags.c_contiguous


@pytest.mark.parametrize(
    "q, packed",
    [(2, False), (3, False), (4, False), (9, False), (2, True), (4, True), (8, True), (16, True)],
    ids=["2", "3", "4", "9", "2-packed", "4-packed", "8-packed", "16-packed"],
)
def test_message_blocks_list_each_message_once(q, packed):
    """The blocks of weight w list, for every w-subset of the rows and
    every choice of nonzero coefficients whose first is 1, the combined
    word exactly once; each block holds at most ``chunk`` words or one.
    Tables from the enumerator's helper hold bit-planes for q = 2^e, of
    lengths that fill one to two rows of each width."""
    f = field(q)
    rng = random.Random(q)
    for k in range(1, 7 if q < 16 else 5):
        n = rng.choice((5, 12, 20, 40, 70)) if packed else 5
        gen = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        table = _tables(f, gen, packed)
        for w in range(1, k + 1):
            msgs = []
            for supp in combinations(range(k), w):
                for coefs in product(range(1, q), repeat=w - 1):
                    msg = [0] * k
                    for i, c in zip(supp, (1,) + coefs):
                        msg[i] = c
                    msgs.append(msg)
            want = Counter(map(tuple, (MatGF(f, msgs) @ MatGF(f, gen)).data.tolist()))
            for chunk in (1, 2, 7, 1 << 18):
                blocks = list(lincode._message_blocks(f, table, w, chunk))
                _check_block_layout(blocks, table)
                assert all(b.shape[1] <= chunk or b.shape[1] == 1 for b in blocks)
                words = np.concatenate(blocks, axis=1)
                if packed:
                    words = _unpack(f, words, n)
                got = Counter(map(tuple, words.T.tolist()))
                assert got == want, (k, w, chunk)


def _check_middle_levels(code, w, table):
    """List the weight-w messages of ``code`` from ``table`` in blocks of
    at most 2^12 words, within the memory bound of
    ``test_enumeration_memory_stays_near_chunk``; return the blocks'
    sizes."""
    chunk = 1 << 12
    tracemalloc.start()
    try:
        sizes = []
        for b in lincode._message_blocks(code.spec, table, w, chunk):
            _check_block_layout([b], table)
            sizes.append(b.shape[1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(sizes) == comb(code.k, w) * (code.spec.q - 1) ** (w - 1)
    assert peak < 8 * chunk * code.n, peak
    return sizes


def test_middle_levels_stay_near_chunk():
    """Above half the rows, a middle level built without the pruning of
    first positions would hold up to C(k, k/2) words, far more than the
    C(k, w) of the last; listing the weight-16 messages of RM(2, 6)
    directly stays within the bound of
    ``test_enumeration_memory_stays_near_chunk``."""
    code = _reed_muller_2_6()
    _check_middle_levels(code, 16, code.gen.data.T[:, :, None])


def _random_code_over(q, n, k):
    return random_code(field(q), n, k, random.Random(q))


@pytest.mark.parametrize(
    "make, w",
    [
        (_reed_muller_2_6, 16),
        (lambda: _random_code_over(4, 24, 10), 8),
        (lambda: _random_code_over(8, 20, 7), 6),
        (lambda: _random_code_over(16, 70, 5), 4),
    ],
    ids=["2", "4", "8", "16"],
)
def test_middle_levels_stay_near_chunk_packed(make, w):
    """Bit-plane tables from the enumerator's helper stay within the same
    bound, and list the same words in the same blocks as uint8 tables."""
    code = make()
    f, gen = code.spec, code.gen.data.tolist()
    table = _tables(f, gen, packed=True)
    sizes = _check_middle_levels(code, w, table)
    blocks = lincode._message_blocks(f, table, w, 1 << 12)
    plain = lincode._message_blocks(f, _scaled(f, gen), w, 1 << 12)
    for b, want, size in zip(blocks, plain, sizes, strict=True):
        assert b.shape[1] == size and (_unpack(f, b, code.n) == want).all()

import random
from collections import Counter

import numpy as np
import pytest

from mpcodes import (
    DistanceBudget,
    InfeasibleSearchError,
    LinearCode,
    MatGF,
    SearchRequest,
    Verdict,
    expand,
    field,
    search_mp_codes,
)
from mpcodes import oracle
from mpcodes import search as srch
from mpcodes.io import load_mp
from mpcodes.mpcode import (
    MPCode,
    check_dual_containing_general,
    check_self_orthogonal,
    zeta_matrix,
)

from conftest import FIXTURES, mat, random_code, random_matrix


def sample_inside_by_code_check(ambient, dim, rng, *, so_ell=None, tries=200):
    """_sample_inside with its former rules: a sampled vector is kept only
    if the code spanned by the rows so far and it is self-orthogonal, and
    after each kept row the space is ambient intersected with both duals
    of all the rows so far."""
    spec = ambient.spec
    if dim > ambient.k:
        return None
    if dim == 0:
        return LinearCode.zero(spec, ambient.n)
    rows = []
    space = ambient
    for _ in range(tries):
        if len(rows) == dim:
            break
        vec = srch._random_vector_in(space, rng)
        if not vec.any():
            continue
        if so_ell is not None:
            cand = LinearCode.from_generator(MatGF(spec, np.vstack(rows + [vec])))
            if not cand.is_galois_self_orthogonal(so_ell):
                continue
        if MatGF(spec, np.vstack(rows + [vec])).rank() == len(rows) + 1:
            rows.append(vec)
            if so_ell is not None and len(rows) < dim:
                row_code = LinearCode.from_generator(MatGF(spec, np.vstack(rows)))
                space = ambient & row_code.galois_dual(so_ell)
                other_ell = (spec.e - so_ell) % spec.e
                if other_ell != so_ell:
                    space = space & row_code.galois_dual(other_ell)
    if len(rows) != dim:
        return None
    return LinearCode.from_generator(MatGF(spec, np.vstack(rows)))


def test_sample_inside_self_product_rule_matches_code_check(rng, monkeypatch):
    # same draws, same result: only <vec, vec>_l can fail once vec lies in
    # the duals of the rows chosen so far, and narrowing by one row's
    # duals at a time gives the same space as re-dualising all the rows
    monkeypatch.setattr(srch, "_SAMPLE_TRIES", 30)  # some samples run out of draws
    found = 0
    for trial in range(120):
        f = field(rng.choice([2, 3, 4, 5, 8, 9]))
        n = rng.randint(2, 6)
        ambient = random_code(f, n, rng.randint(1, n), rng)
        dim = rng.randint(1, max(1, ambient.k))
        so_ell = rng.choice([None, *range(f.e)])
        seed = rng.randrange(1 << 30)
        r_new, r_ref = random.Random(seed), random.Random(seed)
        got = srch._sample_inside(ambient, dim, r_new, so_ell=so_ell)
        want = sample_inside_by_code_check(ambient, dim, r_ref, so_ell=so_ell, tries=30)
        assert got == want, (trial, f, ambient, dim, so_ell)
        assert r_new.getstate() == r_ref.getstate()
        found += got is not None and so_ell is not None
    assert found > 10


@pytest.mark.parametrize("q", [2, 3, 4, 9, 16])
def test_random_vector_is_the_scalar_combination_of_the_rows(rng, q):
    # one draw per generator row, in order, combined with scalar add/mul;
    # the zero code draws nothing and gives the zero word, and the whole
    # space (k = n) gives its draws themselves
    f = field(q)
    for k in range(6):
        code = LinearCode.full(f, 5) if k == 5 else random_code(f, 5, k, rng)
        seed = rng.randrange(1 << 30)
        r_arr, r_ref = random.Random(seed), random.Random(seed)
        want = [0] * code.n
        for row in code.gen.data.tolist():
            lam = r_ref.randrange(q)
            want = [f.add(x, f.mul(lam, y)) for x, y in zip(want, row)]
        got = srch._random_vector_in(code, r_arr)
        assert got.dtype == np.uint8 and got.tolist() == want
        assert r_arr.getstate() == r_ref.getstate()


def narrowed_by_kernel(space, vec, ell):
    """The narrowing's former formula: with G the space's generator, the
    messages m with m @ G @ T^T = 0, T = [sigma^l(vec); sigma^(e-l)(vec)],
    give the space's vectors orthogonal to vec in both slot orders."""
    spec = space.spec
    twists = MatGF._of(spec, np.vstack(
        [spec.frobenius_arr(vec, lv) for lv in (ell, (spec.e - ell) % spec.e)]))
    msgs = (space.gen @ twists.T).T.kernel_basis()
    return LinearCode.from_generator(msgs @ space.gen)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_narrowed_space_is_the_kernel_formula_space(rng, q):
    # full and partial spaces; vectors drawn inside them (self-orthogonal
    # or not), random vectors and the zero vector; every level
    f = field(q)
    kinds = Counter()
    for trial in range(40):
        n = rng.randint(2, 9)
        space = LinearCode.full(f, n) if trial % 4 == 0 else random_code(f, n, rng.randint(1, n - 1), rng)
        vec = [srch._random_vector_in(space, rng),
               np.array([rng.randrange(q) for _ in range(n)], dtype=np.uint8),
               np.zeros(n, dtype=np.uint8)][trial % 3]
        for ell in range(f.e):
            got = srch._narrowed(space, vec, ell)
            assert got == narrowed_by_kernel(space, vec, ell), (trial, space, vec, ell)
            kinds[space.is_full, got.k < space.k] += 1
    # every kind: full or partial space, narrowed or kept
    assert len(kinds) == 4, kinds


def test_so_attempt_at_length_1024_eliminates_only_a_few_rows(monkeypatch):
    # narrowing the whole space by one row's twists eliminates the two
    # twists, not the n - 2 rows of the narrowed space's generator
    shapes = []
    rref = MatGF.rref
    monkeypatch.setattr(MatGF, "rref", lambda self: shapes.append(self.shape) or rref(self))
    for q in (2, 3):
        req = SearchRequest(mode="so", ell=0, n=1024, dims=(2,), seed=q, max_candidates=1)
        hits = search_mp_codes(MatGF(field(q), [[1]]), req)
        assert [h.mp.constituents[0].k for h in hits] == [2]
    assert shapes and max(rows for rows, _ in shapes) <= 4, shapes


def test_so_search_backward_identity_gram():
    f2 = field(2)
    a = MatGF(f2, [[1, 1, 1, 0, 1], [1, 1, 0, 1, 1]])
    req = SearchRequest(mode="so", ell=0, n=9, dims=(1, 2), target=24, seed=0,
                        count=1, max_candidates=500)
    hits = search_mp_codes(a, req)
    assert hits, "seeded search should find a [45,3,24] instance"
    mp = hits[0].mp
    assert check_self_orthogonal(mp, 0).verdict is Verdict.HOLDS
    big = expand(mp)
    assert (big.n, big.k) == (45, 3)
    assert hits[0].distance.exact and hits[0].distance.d == 24


def test_so_search_unconstrained_when_gram_vanishes(rng):
    # zero Gram product: every sample is acceptable, including full spaces
    f2 = field(2)
    a = MatGF(f2, [[1, 1], [1, 1]])
    req = SearchRequest(mode="so", ell=0, n=3, dims=(3, 3), seed=1, count=2,
                        max_candidates=50)
    hits = search_mp_codes(a, req)
    assert len(hits) == 2
    for h in hits:
        assert all(c.is_full for c in h.mp.constituents)
        assert check_self_orthogonal(h.mp, 0).verdict is Verdict.HOLDS


def test_so_search_diagonal_gram_needs_self_orthogonal_constituents():
    f4 = field(4)
    a = MatGF(f4, [[1, 0], [0, 1]])  # Gram product = identity
    req = SearchRequest(mode="so", ell=1, n=4, dims=(2, 2), seed=3, count=1,
                        max_candidates=300)
    hits = search_mp_codes(a, req)
    assert hits
    for c in hits[0].mp.constituents:
        assert c.is_galois_self_orthogonal(1)


def test_dc_search_produces_verified_instances():
    f5 = field(5)
    a = mat(f5, ["1 1 2 2", "0 4 1 4", "1 4 2 3"])
    req = SearchRequest(mode="dc", ell=0, n=5, dims=(3, 3, 5), seed=2, count=1,
                        max_candidates=400)
    hits = search_mp_codes(a, req)
    assert hits
    rep = check_dual_containing_general(hits[0].mp, 0)
    assert rep.verdict is Verdict.HOLDS


def test_dc_search_infeasible_forced_full_dim():
    f5 = field(5)
    a = mat(f5, ["1 1 2 2", "0 4 1 4", "1 4 2 3"])
    # constituent 3 is forced to the whole space; asking for dim 2 is hopeless
    req = SearchRequest(mode="dc", ell=0, n=5, dims=(3, 3, 2), seed=0)
    with pytest.raises(InfeasibleSearchError):
        search_mp_codes(a, req)


@pytest.mark.parametrize("q, rows", [
    (5, [[3, 1], [0, 3]]),
    (4, [[3, 3], [1, 0]]),
    (9, [[4, 1], [6, 4]]),
])
def test_dc_search_constituent_with_pair_conditions_only(q, rows):
    # zeta[2,2] = 0 while zeta[1,2], zeta[2,1] != 0: C2 must contain the
    # dual of C1 but need not contain its own dual; its dual D2 is drawn
    # inside a dual of D1 = dual(C1) with no self-orthogonality condition
    a = MatGF(field(q), rows)
    req = SearchRequest(mode="dc", ell=0, n=6, dims=(4, 4), count=3, max_candidates=5)
    hits = search_mp_codes(a, req)
    assert len(hits) == 3
    for hit in hits:
        assert check_dual_containing_general(hit.mp, 0).verdict is Verdict.HOLDS


@pytest.mark.parametrize("ell", [1, 2])
def test_dc_search_draws_the_duals_at_the_inverse_level(ell):
    # over GF(8), 2l != 0 (mod 3) and zeta has exactly one of (1,2) and
    # (2,1) nonzero, so the dual frame's level e - l differs from l in a
    # condition that is not symmetric in them; drawing D2 at level l
    # instead gives hits that fail the exact checker
    a = MatGF(field(8), [[1, 2], [1, 3]])
    zeta = zeta_matrix(a, ell)
    assert bool(zeta.data[0, 1]) != bool(zeta.data[1, 0])
    req = SearchRequest(mode="dc", ell=ell, n=6, dims=(4, 4), count=1000, max_candidates=40)
    hits = search_mp_codes(a, req)
    assert len(hits) == 40
    for hit in hits:
        assert check_dual_containing_general(hit.mp, ell).verdict is Verdict.HOLDS
        big = expand(hit.mp)
        dual = oracle.dual_by_definition(big, ell, cap=4096)
        assert oracle.is_subset_by_enumeration(dual, big)


def _defining_matrix(spec, m, rank, rng):
    """A seeded m x m defining matrix of the given rank."""
    while True:
        a = random_matrix(spec, m, rank, rng) @ random_matrix(spec, rank, m, rng)
        if a.rank() == rank:
            return a



def test_every_completed_draw_is_a_hit_that_passes_the_exact_checker(rng, monkeypatch):
    # the search checks no attempt: each draw meets the pair and diagonal
    # conditions by construction and the refusals rule out the rest, so
    # with no target every draw with a nonzero expansion is a hit, and
    # every hit holds under the exact checker
    draws = []

    def recorded(cond, level, *args, real=srch._attempt):
        draws.append((level, real(cond, level, *args)))
        return draws[-1][1]

    monkeypatch.setattr(srch, "_attempt", recorded)
    cases = [(q, mode, ell, m, m) for q in (2, 3, 4, 5, 8, 9) for ell in range(field(q).e)
             for mode in ("so", "dc") for m in (2, 3)]
    cases += [(q, "so", ell, 3, 2) for q in (2, 3, 4, 5, 8, 9) for ell in range(field(q).e)]
    # only over GF(8) does 2l != 0 (mod e), so only its dc draws tell the
    # levels l and e - l apart, where a zeta pattern is not symmetric
    cases = cases * 3 + [c for c in cases if c[:2] == (8, "dc")] * 16
    hits_by_case = Counter()
    for q, mode, ell, m, rank in cases:
        spec = field(q)
        a = _defining_matrix(spec, m, rank, rng)
        n = rng.randint(2, 6)
        # dimensions no condition refuses: k_i + k_j <= n (so), >= n (dc)
        lo, hi = (0, n // 2) if mode == "so" else ((n + 1) // 2, n)
        dims = tuple(rng.randint(lo, hi) for _ in range(m))
        req = SearchRequest(mode=mode, ell=ell, n=n, dims=dims, seed=rng.randrange(1 << 30),
                            count=4, max_candidates=4)
        draws.clear()
        hits = search_mp_codes(a, req)
        want = []
        for attempt, (level, codes) in enumerate(draws, start=1):
            if codes is None:
                continue
            if mode == "dc":
                codes = [d.galois_dual(level) for d in codes]
            mp = MPCode(codes, a)
            if expand(mp).k:
                want.append((attempt, mp))
        assert [(hit.attempt, hit.mp) for hit in hits] == want, (q, mode, ell, a, req)
        check = check_self_orthogonal if mode == "so" else check_dual_containing_general
        for hit in hits:
            assert check(hit.mp, ell).verdict is Verdict.HOLDS, (q, mode, ell, hit.mp)
        hits_by_case[q, mode, ell, m, rank] += len(hits)
    assert all(hits_by_case.values()), hits_by_case


def _lightest_row_bound(mp):
    """(w, word) for the lightest word a_i (x) g of the expansion, over
    the nonzero rows a_i of A with C_i nonzero and the rows g of C_i's
    canonical generator, so d <= w; None when no such pair exists, that
    is when the expansion is the zero code."""
    spec = mp.spec
    words = [spec.mul_arr(row[:, None], g[None, :]).reshape(-1)
             for row, c in zip(mp.defmatrix.data, mp.constituents) if row.any()
             for g in c.gen.data]
    if not words:
        return None
    word = min(words, key=np.count_nonzero)
    return int(np.count_nonzero(word)), word


def test_bound_rejects_before_expand_only_candidates_below_the_target(rng, monkeypatch):
    # with a target, a draw whose lightest a_i (x) g word is below it is
    # dropped before ``expand``; the hits stay exactly the draws whose
    # nonzero expansion meets the target, as when every draw was expanded
    draws, expanded = [], []

    def recorded(cond, level, *args, real=srch._attempt):
        draws.append((level, real(cond, level, *args)))
        return draws[-1][1]

    def counted(mp, real=srch.expand):
        expanded.append(mp)
        return real(mp)

    monkeypatch.setattr(srch, "_attempt", recorded)
    monkeypatch.setattr(srch, "expand", counted)
    # so and dc with full-rank A at every level, and so with a 3 x 3 A of
    # rank 2 (dc refuses a rank-deficient A)
    cases = [(q, mode, ell, m, m) for q in (2, 3, 4, 5, 8, 9) for ell in range(field(q).e)
             for mode in ("so", "dc") for m in (2, 3)]
    cases += [(q, "so", ell, 3, 2) for q in (2, 3, 4, 5, 8, 9) for ell in range(field(q).e)]
    outcomes = Counter()
    for q, mode, ell, m, rank in cases * 2:
        spec = field(q)
        a = _defining_matrix(spec, m, rank, rng)
        n = rng.randint(2, 6)
        lo, hi = (0, n // 2) if mode == "so" else ((n + 1) // 2, n)
        dims = tuple(rng.randint(lo, hi) for _ in range(m))
        # count above max_candidates: every attempt runs
        req = SearchRequest(mode=mode, ell=ell, n=n, dims=dims, target=rng.randint(1, n + 1),
                            seed=rng.randrange(1 << 30), count=5, max_candidates=4)
        draws.clear()
        expanded.clear()
        hits = search_mp_codes(a, req)
        want, passed = [], []
        for attempt, (level, codes) in enumerate(draws, start=1):
            if codes is None:
                continue
            if mode == "dc":
                codes = [d.galois_dual(level) for d in codes]
            mp = MPCode(codes, a)
            big = expand(mp)
            bound = _lightest_row_bound(mp)
            dist = big.min_distance(req.budget) if big.k else None
            meets = dist is not None and dist.exact and dist.d >= req.target
            if bound is not None and bound[0] < req.target:
                assert not meets, (q, mode, ell, mp)
                outcomes[mode, "rejected by the bound"] += 1
                continue
            passed.append(mp)
            outcomes[mode, "hit" if meets else "expanded, no hit"] += 1
            if meets:
                want.append((attempt, mp))
        assert [(hit.attempt, hit.mp) for hit in hits] == want, (q, mode, ell, a, req)
        assert expanded == passed, (q, mode, ell, a, req)
    assert len(outcomes) == 6 and all(outcomes.values()), outcomes


def test_lightest_row_bound_holds_for_fixtures_and_random_codes(rng):
    # a_i (x) g is a codeword of weight wt(a_i) wt(g) for any A, so
    # d <= that weight, also with A rank-deficient or with a zero row and
    # with zero constituents; the oracle checks d where q^k is within its
    # cap, and the word's membership is checked everywhere
    mps = []
    for path in sorted(FIXTURES.glob("*.mp")):
        if "corrupt" not in path.name:
            mps.append(load_mp(path.read_text())[0])
    fixtures = len(mps)
    for _ in range(300):
        spec = field(rng.choice([2, 3, 4, 5, 8, 9]))
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        data = random_matrix(spec, m, rng.randint(1, 3), rng).data.copy()
        if rng.random() < 0.3:
            data[rng.randrange(m)] = 0
        codes = [random_code(spec, n, rng.randint(0, n), rng) for _ in range(m)]
        mps.append(MPCode(codes, MatGF(spec, data)))
    seen = Counter()
    for idx, mp in enumerate(mps):
        big = expand(mp)
        bound = _lightest_row_bound(mp)
        if big.k == 0:
            assert bound is None, mp
            continue
        weight, word = bound
        assert LinearCode.from_generator(MatGF(mp.spec, word[None, :])).is_subcode(big)
        if mp.spec.q ** big.k <= oracle.DEFAULT_CAP:
            assert oracle.min_distance_exhaustive(big) <= weight, mp
            a = mp.defmatrix
            seen["fixture" if idx < fixtures else "random"] += 1
            seen["rank-deficient"] += a.rank() < a.rows
            seen["zero row"] += not all(row.any() for row in a.data)
            seen["zero constituent"] += any(c.k == 0 for c in mp.constituents)
    assert seen["fixture"] == 6 and all(seen[k] >= 10 for k in seen if k != "fixture"), seen


@pytest.mark.parametrize("max_candidates", [0, 5])
def test_dc_search_infeasible_raises_before_any_attempt(monkeypatch, max_candidates):
    # the plan is made once, before the first attempt, so even a search
    # allowed no attempt reports an infeasible request, and it outranks
    # the refusal of a target no [20, 8] hit can meet
    monkeypatch.setattr(srch, "_attempt", lambda *args: pytest.fail("attempted"))
    f5 = field(5)
    a = mat(f5, ["1 1 2 2", "0 4 1 4", "1 4 2 3"])
    req = SearchRequest(mode="dc", ell=0, n=5, dims=(3, 3, 2), target=100,
                        max_candidates=max_candidates)
    with pytest.raises(InfeasibleSearchError, match="constituent 3 is forced"):
        search_mp_codes(a, req)
    # zeta[3,4] != 0 outranks the forced constituents 1 and 2 of dims (1, 1)
    a = MatGF(field(2), [[1, 1, 1, 0, 1], [1, 1, 0, 1, 1]])
    req = SearchRequest(mode="dc", ell=0, n=4, dims=(1, 1),
                        max_candidates=max_candidates)
    with pytest.raises(InfeasibleSearchError, match=r"entry \(3,4\) is nonzero"):
        search_mp_codes(a, req)


def test_unreachable_target_is_refused_before_any_attempt(monkeypatch):
    # [45, 3] expansion: d <= 45 - 3 + 1 = 43 for every hit
    monkeypatch.setattr(srch, "_attempt", lambda *args: pytest.fail("attempted"))
    a = MatGF(field(2), [[1, 1, 1, 0, 1], [1, 1, 0, 1, 1]])
    req = SearchRequest(mode="so", ell=0, n=9, dims=(1, 2), target=44)
    assert search_mp_codes(a, req) == []


@pytest.mark.parametrize("mode, q, rows, ell, n, dims", [
    # Gram product = identity: C1 is self-orthogonal, so k1 <= n/2 = 2
    ("so", 4, [[1, 0], [0, 1]], 1, 4, (3, 2)),
    # zeta[1,1] != 0: C1 contains its dual, so k1 >= n/2 = 3
    ("dc", 5, [[1, 2], [0, 1]], 0, 6, (2, 4)),
    # Gram product [[0, 1], [1, 0]]: C1 <= dual(C2) needs k1 + k2 <= n
    ("so", 2, [[1, 1, 1, 0, 1], [1, 1, 0, 1, 1]], 0, 9, (5, 5)),
    # zeta[1,2] != 0 = zeta[2,2]: dual(C1) <= C2 needs k1 + k2 >= n
    ("dc", 5, [[3, 1], [0, 3]], 0, 6, (4, 1)),
])
def test_impossible_condition_is_refused_before_any_attempt(
        monkeypatch, mode, q, rows, ell, n, dims):
    monkeypatch.setattr(srch, "_attempt", lambda *args: pytest.fail("attempted"))
    req = SearchRequest(mode=mode, ell=ell, n=n, dims=dims)
    assert search_mp_codes(MatGF(field(q), rows), req) == []


def test_zero_dimension_search_is_refused_before_any_attempt(monkeypatch):
    # every candidate would be the zero code, which is never a hit
    monkeypatch.setattr(srch, "_attempt", lambda *args: pytest.fail("attempted"))
    a = MatGF(field(2), [[1, 1, 1, 0, 1], [1, 1, 0, 1, 1]])
    assert search_mp_codes(a, SearchRequest(mode="so", ell=0, n=4, dims=(0, 0))) == []


@pytest.mark.parametrize("rows, n, dims, target, attempts", [
    # full row rank: the [45, 3] expansion's bound 43 itself is attempted
    ([[1, 1, 1, 0, 1], [1, 1, 0, 1, 1]], 9, (1, 2), 43, 3),
    # rank-deficient: only K >= 1 is known, so d <= nN = 6, though
    # sum(dims) = 6 would allow only d <= 1 at full rank
    ([[1, 1], [1, 1]], 3, (3, 3), 6, 3),
    ([[1, 1], [1, 1]], 3, (3, 3), 7, 0),
])
def test_target_bound_decides_whether_to_attempt(monkeypatch, rows, n, dims, target, attempts):
    calls = []
    monkeypatch.setattr(srch, "_attempt", lambda *args: calls.append(1))
    req = SearchRequest(mode="so", ell=0, n=n, dims=dims, target=target, max_candidates=3)
    assert search_mp_codes(MatGF(field(2), rows), req) == []
    assert len(calls) == attempts


def test_dc_search_requires_full_row_rank():
    f2 = field(2)
    a = MatGF(f2, [[1, 1], [1, 1]])
    with pytest.raises(InfeasibleSearchError):
        search_mp_codes(a, SearchRequest(mode="dc", ell=0, n=3, dims=(1, 1)))


def test_search_determinism():
    f2 = field(2)
    a = MatGF(f2, [[1, 1, 1, 0, 1], [1, 1, 0, 1, 1]])
    req = SearchRequest(mode="so", ell=0, n=9, dims=(1, 2), target=24, seed=7,
                        count=1, max_candidates=2000)
    h1 = search_mp_codes(a, req)
    h2 = search_mp_codes(a, req)
    assert h1 == h2


@pytest.mark.parametrize("mode, a, n, dims", [
    ("so", [[1, 1, 1, 0, 1], [1, 1, 0, 1, 1]], 9, (1, 2)),
    ("dc", [[1, 2], [0, 1]], 6, (4, 4)),
])
def test_search_computes_its_condition_matrix_once(monkeypatch, mode, a, n, dims):
    # sigma^l(A) starts the so matrix, a completion of A the dc one; the
    # attempts draw under that one matrix instead of starting again from A
    a = MatGF(field(2 if mode == "so" else 5), a)
    calls = []

    def counted(real):
        def method(self, *args):
            calls.append(self is a)
            return real(self, *args)
        return method

    for name in ("frobenius_map", "complete_to_invertible"):
        monkeypatch.setattr(MatGF, name, counted(getattr(MatGF, name)))
    req = SearchRequest(mode=mode, ell=0, n=n, dims=dims, seed=3, count=2, max_candidates=20)
    assert len(search_mp_codes(a, req)) == 2
    assert sum(calls) == 1


def test_search_request_validation():
    f2 = field(2)
    a = MatGF(f2, [[1, 1]])
    with pytest.raises(ValueError):
        search_mp_codes(a, SearchRequest(mode="xx", ell=0, n=3, dims=(1,)))
    with pytest.raises(ValueError):
        search_mp_codes(a, SearchRequest(mode="so", ell=0, n=3, dims=(1, 1)))
    with pytest.raises(ValueError):
        search_mp_codes(a, SearchRequest(mode="so", ell=0, n=3, dims=(4,)))
    with pytest.raises(ValueError, match="n=0 must be >= 1"):
        search_mp_codes(a, SearchRequest(mode="so", ell=0, n=0, dims=(0,)))
    # the first draw holds an n x n generator, so a huge n is refused
    # before any memory is spent on it
    with pytest.raises(ValueError, match="n=100000 is too large"):
        search_mp_codes(a, SearchRequest(mode="so", ell=0, n=100000, dims=(1,),
                                         max_candidates=1))
    assert search_mp_codes(a, SearchRequest(mode="so", ell=0, n=4096, dims=(1,),
                                            max_candidates=0)) == []
    with pytest.raises(ValueError):
        search_mp_codes(a, SearchRequest(mode="so", ell=0, n=3, dims=(1,), count=0))
    with pytest.raises(ValueError):
        search_mp_codes(a, SearchRequest(mode="so", ell=0, n=3, dims=(1,),
                                         max_candidates=-1))
    # no nonzero code has d < 1, so such a target is an error, not a search
    for target in (0, -5):
        with pytest.raises(ValueError, match=f"target={target} must be >= 1"):
            search_mp_codes(a, SearchRequest(mode="so", ell=0, n=3, dims=(1,), target=target))
    assert search_mp_codes(a, SearchRequest(mode="so", ell=0, n=3, dims=(1,),
                                            max_candidates=0)) == []
    # a Galois level outside [0, e) is refused before any attempt
    with pytest.raises(ValueError, match="ell=1 out of range"):
        search_mp_codes(a, SearchRequest(mode="so", ell=1, n=3, dims=(1,),
                                         max_candidates=0))


@pytest.mark.parametrize("kwargs", [{"enum_cap": -1}, {"lw_cap": -1}])
def test_distance_budget_refuses_out_of_range_caps(kwargs):
    with pytest.raises(ValueError):
        DistanceBudget(**kwargs)

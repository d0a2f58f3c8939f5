"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines
(they are captured otherwise).
"""

import random
import time
import warnings
from contextlib import contextmanager

from mpcodes import (
    CheckPath,
    DistanceBudget,
    LinearCode,
    MatGF,
    MPCode,
    SearchRequest,
    Verdict,
    check_dual_containing_general,
    check_self_orthogonal,
    dual_full_rank,
    dual_general,
    expand,
    field,
    row_partition,
    search_mp_codes,
)
from mpcodes import io as fmt
from mpcodes import oracle
from mpcodes.cli import main as cli_main
from mpcodes.mpcode import _dc_witnesses

from conftest import (
    FIXTURES, code, code_sum, completion_holds, mat, random_code, random_completion,
    random_matrix,
)


@contextmanager
def criterion(num, label, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, (
        f"criterion {num} took {elapsed:.1f}s, limit {limit_seconds}s"
    )
    print(f"ACCEPTANCE {num} ({label}): PASS ({elapsed:.1f}s)")


def load_fixture(name):
    mp, _ = fmt.load_mp((FIXTURES / name).read_text())
    return mp


def params(c, budget=None):
    r = c.min_distance(budget)
    assert r.exact, f"expected exact distance, got {r}"
    return (c.n, c.k, r.d, r.strategy)


def test_criterion_1_f5_construction_and_dual():
    with criterion(1, "GF(5) construction + Euclidean dual", 10):
        mp = load_fixture("f5_3x4_nsc.mp")
        big = expand(mp)
        assert params(big) == (20, 5, 12, "enum")
        assert oracle.min_distance_exhaustive(big) == 12
        _, dual = dual_full_rank(mp, 0)
        n, k, d, strategy = params(dual)
        assert (n, k, d) == (20, 15, 4)
        assert strategy in ("enum", "low-weight")
        # theorem route agrees with the kernel route
        assert dual == big.euclidean_dual() == dual_general(mp, 0)


def test_criterion_2_f8_galois_dual():
    with criterion(2, "GF(8) 2-Galois dual incl. full 8^9 enumeration", 600):
        mp = load_fixture("f8_2x5.mp")
        big = expand(mp)
        r = big.min_distance(DistanceBudget(enum_cap=1 << 28))
        assert r.exact and r.d == 20 and r.strategy == "enum"
        assert (big.n, big.k) == (50, 9)
        t0 = time.perf_counter()
        _, dual = dual_full_rank(mp, 2)
        n, k, d, strategy = params(dual)
        assert (n, k, d) == (50, 41, 3) and strategy == "low-weight"
        assert time.perf_counter() - t0 < 10
        # the displayed mixing matrix for the explicitly chosen completion
        f8 = field(8)
        completion = mat(f8, [
            "0 1 a^4 1 a",
            "a^6 a^2 a^3 a^5 0",
            "1 0 0 0 0",
            "0 1 0 0 0",
            "0 0 1 0 0",
        ])
        displayed = mat(f8, [
            "0 0 0 0 a^5",
            "0 0 0 a^4 a^2",
            "1 0 0 a^2 1",
            "0 1 0 a a",
            "0 0 1 a^3 a^5",
        ])
        mixer = completion.frobenius_map(1).inverse().T
        assert mixer == displayed
        # the displayed dual MP form: constituent 2-Galois duals, padded
        # with the whole space, mixed by the displayed matrix
        duals = [c.galois_dual(2) for c in mp.constituents]
        duals += [LinearCode.full(f8, mp.n)] * (displayed.rows - len(duals))
        assert expand(MPCode(duals, displayed)) == dual


def test_criterion_3_rank_deficient_duals():
    with criterion(3, "rank-deficient duals", 20):
        mp = load_fixture("f2_4x2_rankdef.mp")
        big = expand(mp)
        assert params(big)[:3] == (10, 7, 2)
        dual = dual_general(mp, 0)
        assert params(dual)[:3] == (10, 3, 5)
        assert dual == big.euclidean_dual()
        assert row_partition(mp.defmatrix).blocks == ((1, 3), (2, 4))

        mp4 = load_fixture("f4_5x3_rankdef.mp")
        big4 = expand(mp4)
        n, k, d, strategy = params(big4)
        assert (n, k, d) == (24, 20, 3) and strategy == "low-weight"
        dual4 = dual_general(mp4, 0)
        n, k, d, strategy = params(dual4)
        assert (n, k, d) == (24, 4, 15) and strategy == "enum"
        assert oracle.min_distance_exhaustive(dual4) == 15
        assert dual4 == big4.euclidean_dual()


def test_criterion_4_self_orthogonality():
    with criterion(4, "self-orthogonality", 30):
        # 2x4 instance over GF(4), Hermitian level
        mp = load_fixture("f4_2x4_so.mp")
        rep = check_self_orthogonal(mp, 1)
        assert rep.verdict is Verdict.HOLDS
        f4 = field(4)
        assert rep.condition_matrix == MatGF(f4, [[0, 0], [0, 1]])
        assert [(w.i, w.j, w.ok) for w in rep.witnesses] == [(2, 2, True)]
        big = expand(mp)
        assert params(big)[:3] == (20, 5, 12)
        assert oracle.so_by_definition(big, 1)

        # 5x3 instance over GF(4): ten distinct containments
        mp53 = load_fixture("f4_5x3_so.mp")
        rep53 = check_self_orthogonal(mp53, 1)
        assert rep53.verdict is Verdict.HOLDS
        distinct = {tuple(sorted((w.i, w.j))) for w in rep53.witnesses}
        assert distinct == {
            (1, 1), (1, 3), (1, 4), (2, 4), (2, 5),
            (3, 3), (3, 4), (3, 5), (4, 5), (5, 5),
        }
        assert all(w.ok for w in rep53.witnesses)
        big53 = expand(mp53)
        assert params(big53)[:3] == (15, 5, 4)
        dual53 = dual_general(mp53, 1)
        assert params(dual53)[:3] == (15, 10, 3)
        assert dual53.galois_dual(1).is_subcode(dual53)  # dual is 1-Galois DC
        assert oracle.so_by_definition(big53, 1)

        # binary search instance with backward-identity Gram product
        mp45 = load_fixture("f2_2x5_so.mp")
        a = mp45.defmatrix
        assert a @ a.T == MatGF(field(2), [[0, 1], [1, 0]])
        assert check_self_orthogonal(mp45, 0).verdict is Verdict.HOLDS
        assert params(expand(mp45))[:3] == (45, 3, 24)
        # the seeded search reproduces an instance of the same class
        req = SearchRequest(mode="so", ell=0, n=9, dims=(1, 2), target=24,
                            seed=0, count=1, max_candidates=2000)
        hits = search_mp_codes(a, req)
        assert hits and params(expand(hits[0].mp))[:3] == (45, 3, 24)
        assert check_self_orthogonal(hits[0].mp, 0).verdict is Verdict.HOLDS


def test_criterion_5_dual_containment():
    with criterion(5, "dual-containment", 60):
        f9 = field(9)
        # 2x3 over GF(9), level 1: conditions are exactly
        # {C1 = whole space, C2 1-Galois dual-containing}
        a = mat(f9, ["a^7 a a^7", "2 1 a^7"])
        completion = mat(f9, ["a^7 a a^7", "2 1 a^7", "1 0 0"])
        zeta = (completion.frobenius_map(1) @ completion.T).inverse()
        assert zeta == mat(f9, ["0 a a", "a^3 1 0", "a^3 0 0"])
        full5 = LinearCode.full(f9, 5)
        dc_code = code(f9, ["1 0 0 a^3 1", "0 1 0 a^6 a", "0 0 1 a^7 a^7"])
        assert dc_code.galois_dual(1).is_subcode(dc_code)
        non_dc = code(f9, ["1 0 0 0 0"])
        # both conditions met -> holds; each violated alone -> fails
        ok, bad1, bad2 = (
            MPCode(cons, a) for cons in ([full5, dc_code], [dc_code, dc_code], [full5, non_dc])
        )
        ok_witnesses = tuple(_dc_witnesses(zeta, ok, 1))
        assert all(w.ok for w in ok_witnesses)
        assert not completion_holds(bad1, 1, completion)  # C1 != whole space
        assert not completion_holds(bad2, 1, completion)  # C2 not dual-containing
        conditions = {w.condition for w in ok_witnesses}
        assert conditions == {"C1=F", "dual_1(C1)<=C2", "dual_1(C2)<=C1", "dual_1(C2)<=C2"}
        # the paper's conditions and the checker's verdict match true
        # containment in all three cases
        for mp_case, holds in ((ok, True), (bad1, False), (bad2, False)):
            big = expand(mp_case)
            assert big.galois_dual(1).is_subcode(big) == holds
            rep = check_dual_containing_general(mp_case, 1)
            assert (rep.verdict is Verdict.HOLDS) == holds

        # 4x4 invertible over GF(9): [20,17,3]
        mp44 = load_fixture("f9_4x4_dc.mp")
        a44 = mp44.defmatrix
        assert (a44.frobenius_map(1) @ a44.T).inverse() == mat(
            f9, ["1 0 a^7 a", "0 0 0 a", "a^5 0 1 a^3", "a^3 a^3 a 0"]
        )
        rep44 = check_dual_containing_general(mp44, 1)
        assert rep44.verdict is Verdict.HOLDS
        n, k, d, strategy = params(expand(mp44))
        assert (n, k, d) == (20, 17, 3) and strategy == "low-weight"

        # 3x4 over GF(5): [20,11,4]
        mp54 = load_fixture("f5_3x4_dc.mp")
        rep54 = check_dual_containing_general(mp54, 0)
        assert rep54.verdict is Verdict.HOLDS
        assert params(expand(mp54))[:3] == (20, 11, 4)

        # 5x5 invertible over GF(8): [25,22,3], displayed inverse Gram matrix
        mp88 = load_fixture("f8_5x5_dc.mp")
        f8 = field(8)
        a88 = mp88.defmatrix
        inv_gram = (a88 @ a88.T).inverse()
        assert inv_gram == mat(f8, [
            "a a^6 a^3 a^3 a^2",
            "a^6 a^2 1 a^5 a^5",
            "a^3 1 a^4 a 0",
            "a^3 a^5 a a^5 0",
            "a^2 a^5 0 0 0",
        ])
        assert inv_gram.data[0, 0] == 2
        rep88 = check_dual_containing_general(mp88, 0)
        assert rep88.verdict is Verdict.HOLDS
        assert params(expand(mp88))[:3] == (25, 22, 3)

        # 4x3 full-column-rank over GF(3): sufficient path, [18,12,4]
        mp43 = load_fixture("f3_4x3_dc.mp")
        f3 = field(3)
        sub = mp43.defmatrix.row_submatrix([1, 2, 3])
        assert (sub @ sub.T).inverse() == mat(f3, ["1 1 1", "1 2 0", "1 0 0"])
        rep43 = check_dual_containing_general(mp43, 0)
        assert rep43.verdict is Verdict.HOLDS
        assert rep43.path is CheckPath.FIRST_BLOCK
        assert rep43.block == (1, 2, 3)
        assert rep43.condition_matrix == mat(f3, ["1 1 1", "1 2 0", "1 0 0"])
        assert params(expand(mp43))[:3] == (18, 12, 4)
        big43 = expand(mp43)
        assert big43.euclidean_dual().is_subcode(big43)


def _corpus_instance(rng):
    q = rng.choice([2, 3, 4, 5, 8, 9])
    f = field(q)
    n = rng.randint(1, 8)
    m = rng.randint(1, 5)
    ncols = rng.randint(1, 5)
    a = random_matrix(f, m, ncols, rng)
    if rng.random() < 0.2 and m > 1:
        # copy the first row over the second to push the matrix off full rank
        a = MatGF(f, [list(a.data[0])] * 2 + [list(r) for r in a.data[2:]])
    cons = [random_code(f, n, rng.randint(0, n), rng) for _ in range(m)]
    return MPCode(cons, a)


def _random_invertible(f, m, rng):
    a = random_matrix(f, m, m, rng)
    while a.rank() < m:
        a = random_matrix(f, m, m, rng)
    return a


def _proper_dual_containing(f, n, ell, rng):
    """E + dual_l(E) for a random E, redrawn until it is not the whole space.

    Any D = E + dual_l(E) is l-dual-containing: dual_l(D) <= dual_l(E) <= D.
    The redrawing ends because, for n >= 3, every field here has a nonzero
    v with <v, v>_l = 0, and E = <v> gives D = dual_l(E) of dimension n - 1.
    """
    while True:
        e = random_code(f, n, rng.randint(1, n), rng)
        d = code_sum(e, e.galois_dual(ell))
        if d.k < n:
            return d


def _dc_square_instance(rng):
    """An l-dual-containing MP code with square invertible A, built without
    the checker: each C_i = D + X_i with D l-dual-containing, so
    dual_l(C_i) <= dual_l(D) <= D <= C_j for all i, j."""
    f = field(rng.choice([2, 3, 4, 5, 8, 9]))
    n = rng.randint(3, 6)
    m = rng.randint(1, 4)
    ell = rng.randrange(f.e)
    a = _random_invertible(f, m, rng)
    d = _proper_dual_containing(f, n, ell, rng)
    cons = [code_sum(d, random_code(f, n, rng.randint(0, n - d.k), rng)) for _ in range(m)]
    return MPCode(cons, a), ell


def _dc_wide_instance(rng):
    """An l-dual-containing MP code with M < N, built without the checker:
    A generates a proper l-dual-containing R of length N and every
    constituent is the whole space, so the code is the n x N arrays whose
    rows lie in R, and its l-dual the arrays whose rows lie in dual_l(R)."""
    f = field(rng.choice([2, 3, 4, 5, 8, 9]))
    ncols = rng.randint(3, 5)
    ell = rng.randrange(f.e)
    r = _proper_dual_containing(f, ncols, ell, rng)
    a = _random_invertible(f, r.k, rng) @ r.gen
    n = rng.randint(1, 6)
    return MPCode([LinearCode.full(f, n)] * r.k, a), ell


def _check_dc_full_rank(mp, ell, rng):
    """Block (c) on one instance: the checker's verdict equals containment
    of the kernel-computed dual, and, when M < N, so do the conditions read
    off the zeta of five random completions.  Returns the truth and the
    expanded code."""
    rep = check_dual_containing_general(mp, ell)
    big = expand(mp)
    truth = big.galois_dual(ell).is_subcode(big)
    assert (rep.verdict is Verdict.HOLDS) == truth
    a = mp.defmatrix
    if a.cols > a.rows:
        for _ in range(5):
            b = random_completion(a, rng)
            assert completion_holds(mp, ell, b) == truth
    return truth, big


def test_criterion_6_property_suite():
    with criterion(6, "randomized property suite", 300):
        rng = random.Random(987654321)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _run_property_corpus(rng)


def _run_property_corpus(rng):
    # (a), (b), (d): 500 randomized instances incl. rank-deficient and wide
    seen_rankdef = seen_wide = 0
    so_holds = 0
    for _ in range(500):
        mp = _corpus_instance(rng)
        f = mp.spec
        ell = rng.randrange(f.e)
        big = expand(mp)
        dual = dual_general(mp, ell)
        assert dual == big.galois_dual(ell)  # (a)
        assert big.k + dual.k == big.n  # (d)
        assert dual.galois_dual((f.e - ell) % f.e) == big  # (d)
        rep = check_self_orthogonal(mp, ell)
        truth = oracle.so_by_definition(big, ell)
        assert (rep.verdict is Verdict.HOLDS) == truth  # (b)
        so_holds += truth
        if mp.defmatrix.rank() < mp.defmatrix.rows:
            seen_rankdef += 1
        if mp.defmatrix.rows > mp.defmatrix.cols:
            seen_wide += 1
    assert seen_rankdef >= 50 and seen_wide >= 50, (
        f"seen_rankdef={seen_rankdef}, seen_wide={seen_wide}"
    )
    # the corpus exercises the holds side too
    assert so_holds >= 20, f"so_holds={so_holds}"

    # extra constructed holds-side coverage for (b): zero Gram products
    f2 = field(2)
    for _ in range(20):
        a = MatGF(f2, [[1, 1], [1, 1]])
        cons = [random_code(f2, rng.randint(1, 4), rng.randint(0, 3), rng)
                for _ in range(2)]
        n0 = max(c.n for c in cons)
        cons = [c if c.n == n0 else LinearCode.zero(f2, n0) for c in cons]
        mp = MPCode(cons, a)
        rep = check_self_orthogonal(mp, 0)
        assert rep.verdict is Verdict.HOLDS
        assert oracle.so_by_definition(expand(mp), 0)

    # (c): exact full-rank dual-containment iff containment, plus
    # completion invariance across 5 randomized completions
    checked = holds_random = 0
    while checked < 120:
        q = rng.choice([2, 3, 4, 5, 8, 9])
        f = field(q)
        n = rng.randint(1, 6)
        m = rng.randint(1, 4)
        ncols = rng.randint(m, 5)
        a = random_matrix(f, m, ncols, rng)
        if a.rank() < m:
            continue
        # Half the draws take large constituents, yet few draws hold: on
        # most M < N draws zeta is nonzero at some (i, j) with i, j > M,
        # which no choice of constituents can satisfy, and square draws
        # hold only by chance.  The holds side is constructed below.
        lo = n // 2 if rng.random() < 0.5 else 0
        cons = [random_code(f, n, rng.randint(lo, n), rng) for _ in range(m)]
        mp = MPCode(cons, a)
        ell = rng.randrange(f.e)
        holds_random += _check_dc_full_rank(mp, ell, rng)[0]
        checked += 1

    # constructed holds-side coverage for (c); the oracle confirms each one
    # whose dual has at most 4096 words and whose own words it can list
    # cheaply (at most 2^16)
    holds_built = 0
    for build in [_dc_square_instance] * 15 + [_dc_wide_instance] * 15:
        mp, ell = build(rng)
        truth, big = _check_dc_full_rank(mp, ell, rng)
        assert truth, f"constructed instance does not hold: {mp!r}, ell={ell}"
        holds_built += 1
        q = mp.spec.q
        if q ** (big.n - big.k) <= 4096 and q ** big.k <= 1 << 16:
            dual = oracle.dual_by_definition(big, ell, cap=4096)
            assert oracle.is_subset_by_enumeration(dual, big, cap=1 << 16)
    holds_seen = holds_random + holds_built
    assert holds_seen >= 10, (
        f"holds_seen={holds_seen} (random {holds_random}, "
        f"constructed {holds_built})"
    )


def test_criterion_7_oracle_verification(tmp_path, capsys):
    with criterion(7, "verify command: fixtures + 100 random instances", 240):
        fixture_files = sorted(
            p for p in FIXTURES.glob("*.mp") if "corrupt" not in p.name
        )
        assert len(fixture_files) >= 11
        for path in fixture_files:
            rc = cli_main(["verify", str(path)])
            assert rc == 0, f"verify failed on {path.name}"
        # every Galois level of the two extension-field showcase fixtures
        for name, levels in (("f4_2x4_so.mp", (1,)), ("f8_2x5.mp", (2,))):
            for ell in levels:
                rc = cli_main(["verify", str(FIXTURES / name), "--ell", str(ell)])
                assert rc == 0

        rng = random.Random(424242)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for i in range(100):
                q = rng.choice([2, 3, 4])
                f = field(q)
                n = rng.randint(1, 3)
                m = rng.randint(1, 3)
                ncols = rng.randint(1, 3)
                a = random_matrix(f, m, ncols, rng)
                cons = [random_code(f, n, rng.randint(0, n), rng) for _ in range(m)]
                mp = MPCode(cons, a)
                path = tmp_path / f"instance_{i}.mp"
                path.write_text(fmt.dump_mp(mp))
                rc = cli_main(["verify", str(path), "--ell", str(rng.randrange(f.e))])
                assert rc == 0, f"verify disagreed on random instance {i}"

        # negative control: the corrupted fixture must be flagged
        rc = cli_main(["verify", str(FIXTURES / "f5_3x4_nsc_corrupt.mp")])
        assert rc != 0
        capsys.readouterr()  # swallow the CLI chatter; keep criterion lines clean

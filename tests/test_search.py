import random

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
from mpcodes import search as srch
from mpcodes.mpcode import check_dual_containing_full_rank, check_self_orthogonal

from conftest import mat, random_code, random_matrix


def sample_inside_by_code_check(ambient, dim, rng, *, so_ell=None, tries=200):
    """_sample_inside with its former rule: a sampled vector is kept only
    if the code spanned by the rows so far and it is self-orthogonal."""
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
        if vec is None or not any(vec):
            continue
        if so_ell is not None:
            cand = LinearCode.from_generator(MatGF(spec, rows + [vec]))
            if not cand.is_galois_self_orthogonal(so_ell):
                continue
        if srch._extends_rank(rows, vec, spec):
            rows.append(vec)
            if so_ell is not None and len(rows) < dim:
                row_code = LinearCode.from_generator(MatGF(spec, rows))
                space = ambient & row_code.galois_dual(so_ell)
                other_ell = (spec.e - so_ell) % spec.e
                if other_ell != so_ell:
                    space = space & row_code.galois_dual(other_ell)
    if len(rows) != dim:
        return None
    return LinearCode.from_generator(MatGF(spec, rows))


def test_sample_inside_self_product_rule_matches_code_check(rng):
    # same draws, same result: only <vec, vec>_l can fail once vec lies in
    # the duals of the rows chosen so far
    found = 0
    for trial in range(120):
        f = field(rng.choice([2, 3, 4, 5, 8, 9]))
        n = rng.randint(2, 6)
        ambient = random_code(f, n, rng.randint(1, n), rng)
        dim = rng.randint(1, max(1, ambient.k))
        so_ell = rng.choice([None, *range(f.e)])
        seed = rng.randrange(1 << 30)
        r_new, r_ref = random.Random(seed), random.Random(seed)
        got = srch._sample_inside(ambient, dim, r_new, {}, so_ell=so_ell, tries=30)
        want = sample_inside_by_code_check(ambient, dim, r_ref, so_ell=so_ell, tries=30)
        assert got == want, (trial, f, ambient, dim, so_ell)
        assert r_new.getstate() == r_ref.getstate()
        found += got is not None and so_ell is not None
    assert found > 10


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
    rep = check_dual_containing_full_rank(hits[0].mp, 0)
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
    # dual of C1 but need not contain its own dual; it is that dual plus
    # a random complement, not a random code that happens to contain it
    a = MatGF(field(q), rows)
    req = SearchRequest(mode="dc", ell=0, n=6, dims=(4, 4), count=3, max_candidates=5)
    hits = search_mp_codes(a, req)
    assert len(hits) == 3
    for hit in hits:
        assert check_dual_containing_full_rank(hit.mp, 0).verdict is Verdict.HOLDS


@pytest.mark.parametrize("max_candidates", [0, 5])
def test_dc_search_infeasible_raises_before_any_attempt(monkeypatch, max_candidates):
    # the plan is made once, before the first attempt, so even a search
    # allowed no attempt reports an infeasible request
    monkeypatch.setattr(srch, "_dc_attempt", lambda *args: pytest.fail("attempted"))
    f5 = field(5)
    a = mat(f5, ["1 1 2 2", "0 4 1 4", "1 4 2 3"])
    req = SearchRequest(mode="dc", ell=0, n=5, dims=(3, 3, 2),
                        max_candidates=max_candidates)
    with pytest.raises(InfeasibleSearchError, match="constituent 3 is forced"):
        search_mp_codes(a, req)
    # zeta[3,4] != 0 outranks the forced constituents 1 and 2 of dims (1, 1)
    a = MatGF(field(2), [[1, 1, 1, 0, 1], [1, 1, 0, 1, 1]])
    req = SearchRequest(mode="dc", ell=0, n=4, dims=(1, 1),
                        max_candidates=max_candidates)
    with pytest.raises(InfeasibleSearchError, match=r"entry \(3,4\) is nonzero"):
        search_mp_codes(a, req)


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


def test_search_request_validation():
    f2 = field(2)
    a = MatGF(f2, [[1, 1]])
    with pytest.raises(ValueError):
        search_mp_codes(a, SearchRequest(mode="xx", ell=0, n=3, dims=(1,)))
    with pytest.raises(ValueError):
        search_mp_codes(a, SearchRequest(mode="so", ell=0, n=3, dims=(1, 1)))
    with pytest.raises(ValueError):
        search_mp_codes(a, SearchRequest(mode="so", ell=0, n=3, dims=(4,)))
    with pytest.raises(ValueError):
        search_mp_codes(a, SearchRequest(mode="so", ell=0, n=3, dims=(1,), count=0))
    with pytest.raises(ValueError):
        search_mp_codes(a, SearchRequest(mode="so", ell=0, n=3, dims=(1,),
                                         max_candidates=-1))
    assert search_mp_codes(a, SearchRequest(mode="so", ell=0, n=3, dims=(1,),
                                            max_candidates=0)) == []
    # a Galois level outside [0, e) is refused before any attempt
    with pytest.raises(ValueError, match="ell=1 out of range"):
        search_mp_codes(a, SearchRequest(mode="so", ell=1, n=3, dims=(1,),
                                         max_candidates=0))


@pytest.mark.parametrize("kwargs", [{"enum_cap": -1}, {"lw_cap": -1}, {"chunk": 0}])
def test_distance_budget_refuses_out_of_range_caps(kwargs):
    with pytest.raises(ValueError):
        DistanceBudget(**kwargs)

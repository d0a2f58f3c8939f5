"""Randomized search for constituent codes meeting checker conditions.

Given a defining matrix, a mode (self-orthogonal or dual-containing),
a Galois level and target dimensions, the search constructs candidate
constituent tuples that satisfy the corresponding checker's witness
conditions by construction where possible:

* containment constraints restrict each constituent to an intersection
  of known duals, and generators are sampled inside that subspace;
* a self-orthogonality constraint on a single constituent is met by
  greedy extension: each sampled row is drawn orthogonal to the rows
  chosen so far, and kept only if its own self-product vanishes;
* a dual-containment constraint on a single constituent is met by
  sampling a self-orthogonal complement and dualizing it.

Candidates whose expanded minimum distance meets the target are
reported.  Everything is driven by a seeded generator, so a rerun with
the same request reproduces the same candidates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

import numpy as np

from .gf import FieldSpec
from .lincode import DistanceBudget, DistanceResult, LinearCode
from .matgf import MatGF
from .mpcode import (
    MPCode,
    Verdict,
    check_dual_containing_general,
    check_self_orthogonal,
    dc_conditions,
    expand,
    zeta_matrix,
)

__all__ = ["InfeasibleSearchError", "SearchHit", "SearchRequest", "search_mp_codes"]


class InfeasibleSearchError(ValueError):
    """No constituent choice can satisfy the witness conditions."""


@dataclass(frozen=True)
class SearchRequest:
    mode: str  # "so" | "dc"
    ell: int
    n: int
    dims: tuple[int, ...]
    target: int | None = None
    seed: int = 0
    count: int = 1
    max_candidates: int = 2000
    budget: DistanceBudget = dc_field(default_factory=DistanceBudget)


@dataclass(frozen=True)
class SearchHit:
    mp: MPCode
    distance: DistanceResult
    attempt: int


def _random_vector_in(code: LinearCode, rng: random.Random) -> list[int] | None:
    """A uniformly random element of the code (possibly zero)."""
    if code.k == 0:
        return None
    spec = code.spec
    q = spec.q
    out = [0] * code.n
    for row in code.gen.data:
        lam = rng.randrange(q)
        if lam:
            out = [spec.add(x, spec.mul(lam, int(y))) for x, y in zip(out, row)]
    return out


def _extends_rank(rows: list[list[int]], vec: list[int], spec: FieldSpec) -> bool:
    mat = MatGF(spec, rows + [vec]) if rows else MatGF(spec, [vec])
    return mat.rank() == len(rows) + 1


def _galois_dual(memo: dict, code: LinearCode, level: int) -> LinearCode:
    """code.galois_dual(level), memoised in ``memo``, a dict that lives
    for one search: attempts meet the same (code, level) pairs often."""
    key = (code, level)
    if key not in memo:
        memo[key] = code.galois_dual(level)
    return memo[key]


def _sample_inside(
    ambient: LinearCode,
    dim: int,
    rng: random.Random,
    memo: dict,
    *,
    so_ell: int | None = None,
    tries: int = 200,
) -> LinearCode | None:
    """A random dim-dimensional subcode of ambient; when ``so_ell`` is
    given, the result is additionally l-Galois self-orthogonal."""
    spec = ambient.spec
    if dim > ambient.k:
        return None
    if dim == 0:
        return LinearCode.zero(spec, ambient.n)
    rows: list[list[int]] = []
    space = ambient
    for _ in range(tries):
        if len(rows) == dim:
            break
        vec = _random_vector_in(space, rng)
        if vec is None or not any(vec):
            continue
        # rows + [vec] is self-orthogonal iff <vec, vec>_l = 0: the rows
        # are, and vec lies in space, inside dual_l(rows) and
        # dual_(e-l)(rows), so both cross products with each row vanish;
        # as <a*u, b*v>_l = a * b^(p^l) * <u, v>_l, the generators decide
        if so_ell is not None:
            arr = np.array(vec, dtype=np.uint8)
            prods = spec.mul_arr(arr, spec.frobenius_arr(arr, so_ell))
            if spec.sum_arr(prods, axis=0):
                continue
        if _extends_rank(rows, vec, spec):
            rows.append(vec)
            if so_ell is not None and len(rows) < dim:
                # restrict further samples to vectors orthogonal to the
                # rows chosen so far, in both slot orders
                row_code = LinearCode.from_generator(MatGF(spec, rows))
                space = ambient & _galois_dual(memo, row_code, so_ell)
                other_ell = (spec.e - so_ell) % spec.e
                if other_ell != so_ell:
                    space = space & _galois_dual(memo, row_code, other_ell)
    if len(rows) != dim:
        return None
    return LinearCode.from_generator(MatGF(spec, rows))


def _sample_dual_containing(
    spec: FieldSpec,
    n: int,
    dim: int,
    ell: int,
    base: LinearCode,
    rng: random.Random,
    memo: dict,
) -> LinearCode | None:
    """A random code of the given dimension that contains ``base`` and
    its own l-Galois dual.

    Works through the complement: C contains its dual iff the dual D has
    the complementary dimension, lies inside the dual of ``base`` and is
    (e-l)-Galois self-orthogonal with C the (e-l)-Galois dual of D.
    """
    if 2 * dim < n or dim < base.k:
        return None
    co_dim = n - dim
    inv_ell = (spec.e - ell) % spec.e
    ambient = _galois_dual(memo, base, ell)
    d = _sample_inside(ambient, co_dim, rng, memo, so_ell=inv_ell)
    if d is None:
        return None
    # needs no re-check: dual_(e-l)(d) has dimension n - co_dim = dim,
    # d <= dual_l(base) gives base <= dual_(e-l)(d), and d is
    # (e-l)-self-orthogonal, so dual_l(dual_(e-l)(d)) = d <= dual_(e-l)(d)
    return _galois_dual(memo, d, inv_ell)


def _so_attempt(
    a: MatGF, cond: MatGF, req: SearchRequest, rng: random.Random, memo: dict
) -> MPCode | None:
    spec = a.spec
    m = a.rows
    ell = req.ell
    inv_ell = (spec.e - ell) % spec.e
    chosen: list[LinearCode] = []
    for i in range(1, m + 1):
        ambient = LinearCode.full(spec, req.n)
        for j in range(1, i):
            levels = []
            if cond.data[i - 1, j - 1] != 0:
                # C_i inside the l-Galois dual of C_j
                levels.append(ell)
            if cond.data[j - 1, i - 1] != 0 and inv_ell not in levels:
                # C_j inside the l-Galois dual of C_i, that is C_i inside
                # the (e-l)-Galois dual of C_j (the same when l == e - l)
                levels.append(inv_ell)
            for level in levels:
                ambient = ambient & _galois_dual(memo, chosen[j - 1], level)
        so_ell = ell if cond.data[i - 1, i - 1] != 0 else None
        c = _sample_inside(ambient, req.dims[i - 1], rng, memo, so_ell=so_ell)
        if c is None:
            return None
        chosen.append(c)
    return MPCode(chosen, a)


def _dc_plan(a: MatGF, req: SearchRequest) -> tuple[set[int], list[tuple[int, int]]]:
    """Forced whole-space constituents and containment pairs read off
    the zeta matrix of a full-row-rank defining matrix; raises
    InfeasibleSearchError when no constituent choice can meet them."""
    forced: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for i, j, f in dc_conditions(zeta_matrix(a, req.ell), a.rows):
        if f == 0:
            raise InfeasibleSearchError(
                f"condition matrix entry ({i},{j}) is nonzero but both "
                "indices exceed the constituent count; no choice of "
                "constituents can give a dual-containing code"
            )
        if f is None:
            pairs.append((i, j))
        else:
            forced.add(f)
    for i in sorted(forced):
        if req.dims[i - 1] != req.n:
            raise InfeasibleSearchError(
                f"constituent {i} is forced to the whole space code but "
                f"dims[{i - 1}] = {req.dims[i - 1]} != n = {req.n}"
            )
    return forced, pairs


def _dc_attempt(
    a: MatGF, plan: tuple[set[int], list[tuple[int, int]]],
    req: SearchRequest, rng: random.Random, memo: dict,
) -> MPCode | None:
    forced, pairs = plan
    spec = a.spec
    m = a.rows
    ell = req.ell
    inv_ell = (spec.e - ell) % spec.e
    chosen: dict[int, LinearCode] = {
        i: LinearCode.full(spec, req.n) for i in forced
    }
    for i in range(1, m + 1):
        if i in chosen:
            continue
        base = LinearCode.zero(spec, req.n)
        duals = []  # (constituent, level); one pair may come twice
        for src, dst in pairs:
            if dst == i and src in chosen and src != i:
                duals.append((src, ell))
            if src == i and dst in chosen and dst != i:
                # dual(C_i) inside chosen C_dst, i.e. C_i contains the
                # inverse-Galois dual of C_dst
                duals.append((dst, inv_ell))
        for j, level in dict.fromkeys(duals):
            base = base + _galois_dual(memo, chosen[j], level)
        dim = req.dims[i - 1]
        if (i, i) in pairs:
            c = _sample_dual_containing(spec, req.n, dim, ell, base, rng, memo)
        elif base.k > dim:
            c = None
        else:
            # base plus a random complement; resample if the two meet
            extra = _sample_inside(LinearCode.full(spec, req.n), dim - base.k, rng, memo)
            c = None if extra is None else base + extra
            if c is not None and c.k != dim:
                c = None
        if c is None:
            return None
        chosen[i] = c
    return MPCode([chosen[i] for i in range(1, m + 1)], a)


def search_mp_codes(a: MatGF, req: SearchRequest) -> list[SearchHit]:
    """Seeded search for MP codes passing the requested check.

    The constraints come from the SO condition matrix sigma^l(A) @ A^T
    or from ``dc_conditions``, computed once per search before the first
    attempt, so an infeasible DC request raises even when
    ``max_candidates`` is 0.  Returns up to ``req.count`` hits, each
    verified by the exact checker and (when a target is given) meeting
    the distance target.  Constituent duals are memoised for the length
    of one call, so repeated searches each compute their own.
    """
    if req.mode not in ("so", "dc"):
        raise ValueError(f"unknown search mode {req.mode!r}")
    if len(req.dims) != a.rows:
        raise ValueError(
            f"dims has {len(req.dims)} entries, defining matrix has {a.rows} rows"
        )
    if not all(0 <= d <= req.n for d in req.dims):
        raise ValueError("dims entries must lie in [0, n]")
    if req.count < 1:
        raise ValueError(f"count={req.count} must be >= 1")
    if req.max_candidates < 0:
        raise ValueError(f"max_candidates={req.max_candidates} must be >= 0")
    if req.mode == "dc" and a.rank() != a.rows:
        raise InfeasibleSearchError(
            "dual-containment search requires a full-row-rank defining matrix"
        )
    a.spec.check_ell(req.ell)
    if req.mode == "so":
        plan = a.frobenius_map(req.ell) @ a.T
        sample, check = _so_attempt, check_self_orthogonal
    else:
        plan = _dc_plan(a, req)
        sample, check = _dc_attempt, check_dual_containing_general
    rng = random.Random(req.seed)
    memo: dict = {}  # (code, level) -> its Galois dual, for this search
    hits: list[SearchHit] = []
    for attempt in range(1, req.max_candidates + 1):
        mp = sample(a, plan, req, rng, memo)
        if mp is None or check(mp, req.ell).verdict is not Verdict.HOLDS:
            continue
        big = expand(mp)
        if big.k == 0:
            continue
        dist = big.min_distance(req.budget)
        if req.target is not None and not (dist.exact and dist.d >= req.target):
            continue
        hits.append(SearchHit(mp, dist, attempt))
        if len(hits) >= req.count:
            break
    return hits

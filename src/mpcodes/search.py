"""Randomized search for constituent codes meeting checker conditions.

Given a defining matrix, a mode (self-orthogonal or dual-containing),
a Galois level and target dimensions, the search constructs candidate
constituent tuples that satisfy the corresponding checker's witness
conditions by construction where possible:

* containment constraints restrict each constituent to an intersection
  of known duals, and generators are sampled inside that subspace;
* a self-orthogonality constraint on a single constituent is met by
  greedy extension: each sampled row is drawn orthogonal to the rows
  chosen so far, and kept only if its own self-product vanishes; after
  each kept row the sampling space is narrowed, by one kernel, to its
  intersection with the two Galois duals of that one row;
* a dual-containment constraint on a single constituent is met by
  sampling a self-orthogonal complement and dualizing it.

Sampled vectors are uint8 encoding arrays throughout.  Candidates whose
expanded minimum distance meets the target are reported; a target above
the Singleton bound of every possible hit, or dims that are all 0, are
refused before the first attempt.  Constituent duals are cached for the
length of one search.  Everything is driven by a seeded generator, so a
rerun with the same request reproduces the same candidates.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field as dc_field

import numpy as np

from .lincode import DistanceBudget, DistanceResult, LinearCode
from .matgf import MatGF
from .mpcode import (
    MPCode,
    _dc_witnesses,
    _so_witnesses,
    dc_conditions,
    expand,
    zeta_matrix,
)

__all__ = ["InfeasibleSearchError", "SearchHit", "SearchRequest", "search_mp_codes"]


# Draws one _sample_inside call makes before it gives up.
_SAMPLE_TRIES = 200


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


def _random_vector_in(code: LinearCode, rng: random.Random) -> np.ndarray:
    """A uniformly random element of the code (possibly zero), as an
    encoding array: one coefficient drawn per generator row, in order."""
    spec = code.spec
    lam = np.array([rng.randrange(spec.q) for _ in range(code.k)], dtype=np.uint8)
    return spec.sum_arr(spec.mul_arr(lam[:, None], code.gen.data), axis=0)


def _sample_inside(
    ambient: LinearCode, dim: int, rng: random.Random, *, so_ell: int | None = None
) -> LinearCode | None:
    """A random dim-dimensional subcode of ambient, from at most
    ``_SAMPLE_TRIES`` draws; when ``so_ell`` is given, the result is
    additionally l-Galois self-orthogonal."""
    spec = ambient.spec
    if dim > ambient.k:
        return None
    if dim == 0:
        return LinearCode.zero(spec, ambient.n)
    rows: list[np.ndarray] = []
    space = ambient
    for _ in range(_SAMPLE_TRIES):
        if len(rows) == dim:
            break
        vec = _random_vector_in(space, rng)
        if not vec.any():
            continue
        # rows + [vec] is self-orthogonal iff <vec, vec>_l = 0: the rows
        # are, and vec lies in space, inside dual_l(rows) and
        # dual_(e-l)(rows), so both cross products with each row vanish;
        # as <a*u, b*v>_l = a * b^(p^l) * <u, v>_l, the generators decide
        if so_ell is not None and spec.sum_arr(
                spec.mul_arr(vec, spec.frobenius_arr(vec, so_ell)), axis=0):
            continue
        if MatGF._of(spec, np.vstack([*rows, vec])).rank() == len(rows) + 1:
            rows.append(vec)
            if so_ell is not None and len(rows) < dim:
                # restrict further samples to vectors orthogonal to vec in
                # both slot orders; dual(R + <vec>) = dual(R) & dual(<vec>),
                # so space stays ambient & both duals of all the rows.  With
                # G its generator, x = lam @ G is orthogonal to vec in both
                # iff lam @ G @ [sigma^l(vec); sigma^(e-l)(vec)]^T = 0
                twists = np.vstack([spec.frobenius_arr(vec, lv)
                                    for lv in (so_ell, (spec.e - so_ell) % spec.e)])
                msgs = (space.gen @ MatGF._of(spec, twists).T).T.kernel_basis()
                space = LinearCode.from_generator(msgs @ space.gen)
    if len(rows) != dim:
        return None
    return LinearCode.from_generator(MatGF._of(spec, np.vstack(rows)))


def _sample_dual_containing(
    dim: int, ell: int, base: LinearCode, rng: random.Random, dual
) -> LinearCode | None:
    """A random code of the given dimension that contains ``base`` and
    its own l-Galois dual; ``dual`` is the search's cached
    ``LinearCode.galois_dual``.

    Works through the complement: C contains its dual iff the dual D has
    the complementary dimension, lies inside the dual of ``base`` and is
    (e-l)-Galois self-orthogonal with C the (e-l)-Galois dual of D.
    """
    n = base.n
    if 2 * dim < n or dim < base.k:
        return None
    inv_ell = (base.spec.e - ell) % base.spec.e
    d = _sample_inside(dual(base, ell), n - dim, rng, so_ell=inv_ell)
    if d is None:
        return None
    # needs no re-check: dual_(e-l)(d) has dimension n - (n - dim) = dim,
    # d <= dual_l(base) gives base <= dual_(e-l)(d), and d is
    # (e-l)-self-orthogonal, so dual_l(dual_(e-l)(d)) = d <= dual_(e-l)(d)
    return dual(d, inv_ell)


def _so_attempt(
    a: MatGF, cond: MatGF, req: SearchRequest, rng: random.Random, dual
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
                ambient = ambient & dual(chosen[j - 1], level)
        so_ell = ell if cond.data[i - 1, i - 1] != 0 else None
        c = _sample_inside(ambient, req.dims[i - 1], rng, so_ell=so_ell)
        if c is None:
            return None
        chosen.append(c)
    return MPCode(chosen, a)


def _dc_plan(zeta: MatGF, m: int, req: SearchRequest) -> tuple[set[int], list[tuple[int, int]]]:
    """Forced whole-space constituents and containment pairs read off
    the zeta matrix of a full-row-rank m-row defining matrix; raises
    InfeasibleSearchError when no constituent choice can meet them."""
    forced: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for i, j, f in dc_conditions(zeta, m):
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
    req: SearchRequest, rng: random.Random, dual,
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
        duals = []  # (constituent, level); one pair may come twice
        for src, dst in pairs:
            if dst == i and src in chosen and src != i:
                duals.append((src, ell))
            if src == i and dst in chosen and dst != i:
                # dual(C_i) inside chosen C_dst, i.e. C_i contains the
                # inverse-Galois dual of C_dst
                duals.append((dst, inv_ell))
        # the sum of those duals
        gens = [dual(chosen[j], level).gen for j, level in dict.fromkeys(duals)]
        base = (LinearCode.from_generator(MatGF.vstack(gens)) if gens
                else LinearCode.zero(spec, req.n))
        dim = req.dims[i - 1]
        if (i, i) in pairs:
            c = _sample_dual_containing(dim, ell, base, rng, dual)
        elif base.k > dim:
            c = None
        else:
            # base plus a random complement; resample if the two meet
            extra = _sample_inside(LinearCode.full(spec, req.n), dim - base.k, rng)
            c = None if extra is None else LinearCode.from_generator(
                MatGF.vstack([base.gen, extra.gen]))
            if c is not None and c.k != dim:
                c = None
        if c is None:
            return None
        chosen[i] = c
    return MPCode([chosen[i] for i in range(1, m + 1)], a)


def search_mp_codes(a: MatGF, req: SearchRequest) -> list[SearchHit]:
    """Seeded search for MP codes passing the requested check.

    The condition matrix, sigma^l(A) @ A^T (so) or zeta (dc, read by
    ``dc_conditions``), is computed once per search before the first
    attempt, so an infeasible DC request raises even when
    ``max_candidates`` is 0; every attempt is checked by the exact
    checker's witness rule on that same matrix.  Returns up to
    ``req.count`` hits passing it and (when a target is given) meeting
    the distance target.  A request no hit can meet is refused with no
    attempt, after those checks: a hit is a nonzero [nN, K] code, so
    some dim is positive and, by the Singleton bound, d <= nN - K + 1,
    with K = sum(dims) when A has full row rank and K >= 1 otherwise.
    Constituent duals go through one ``functools.cache`` of
    ``LinearCode.galois_dual`` made per call, so repeated searches each
    compute their own.
    """
    if req.mode not in ("so", "dc"):
        raise ValueError(f"unknown search mode {req.mode!r}")
    if req.n < 1:
        raise ValueError(f"n={req.n} must be >= 1")
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
    full_rank = a.rank() == a.rows
    if req.mode == "dc" and not full_rank:
        raise InfeasibleSearchError(
            "dual-containment search requires a full-row-rank defining matrix"
        )
    a.spec.check_ell(req.ell)
    if req.mode == "so":
        plan = cond = a.frobenius_map(req.ell) @ a.T
        sample, witnesses = _so_attempt, _so_witnesses
    else:
        cond = zeta_matrix(a, req.ell)
        plan = _dc_plan(cond, a.rows, req)
        sample, witnesses = _dc_attempt, _dc_witnesses
    k_min = sum(req.dims) if full_rank else 1
    if not any(req.dims) or (
            req.target is not None and req.target > req.n * a.cols - k_min + 1):
        return []
    rng = random.Random(req.seed)
    # looked up now, not at import, so a wrapped galois_dual is cached too
    dual = functools.cache(LinearCode.galois_dual)
    hits: list[SearchHit] = []
    for attempt in range(1, req.max_candidates + 1):
        mp = sample(a, plan, req, rng, dual)
        if mp is None or not all(w.ok for w in witnesses(cond, mp, req.ell)):
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

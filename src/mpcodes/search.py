"""Randomized search for constituent codes meeting checker conditions.

Given a defining matrix, a mode (self-orthogonal or dual-containing),
a Galois level and target dimensions, the search draws candidate
constituent tuples that meet the corresponding checker's witness
conditions by construction.  Both modes run one sampler, which draws
codes D_1 .. D_m with D_i inside dual_level(D_j) wherever a condition
pattern is nonzero at (i, j):

* a condition between two codes restricts the later one to the first
  named dual of the earlier ones (from the per-search cache), narrowed
  by the rows of sigma^(e-lv)(G_j) for each further dual_lv(D_j);
* a condition on a single code is met by greedy extension: a sampled
  row is kept only if its own self-product vanishes, and then narrows
  the space the next rows are drawn from by its two Frobenius twists.

Narrowing a space of dimension k by r check rows keeps its vectors
orthogonal to them: the Euclidean dual of its dual plus the checks,
so no elimination has more than n - k + r rows.

Self-orthogonality search draws the constituents themselves, at level l
under sigma^l(A) @ A^T.  Dual-containment search works in the dual
frame: as dual_(e-l)(dual_l(C)) = C, dual_l(C_i) <= C_j holds iff
D_i <= dual_(e-l)(D_j) for D = dual_l(C), so it draws the duals D_i, of
dimensions n - k_i, at level e - l under zeta's pattern, and returns
C_i = dual_(e-l)(D_i).  A constituent forced to the whole space has the
zero code as its dual.

The checkers' conditions are necessary and sufficient, and every one of
them is met either by the draw or by a refusal before the first attempt
(a zeta entry naming an index past m, a forced constituent that is not
the whole space, or dimensions that cannot meet a pair condition), so a
completed draw needs no check: each one with a nonzero expansion is a
candidate, which ``tests/test_search.py`` pins by running the exact
checkers on every hit of a seeded sweep.

Sampled vectors are uint8 encoding arrays throughout.  Candidates whose
expanded minimum distance meets the target are reported; one is dropped
before ``expand`` when a row a_i of A and a row g of C_i's canonical
generator give 0 < wt(a_i) wt(g) < target, as a_i (x) g is a codeword
(the upper bound of Blackmore and Norton, AAECC 12, 2001).  A target above
the Griesmer bound of every possible hit, dims that are all 0, or a
condition between draws whose dimensions sum above the length are
refused before the first attempt.  Constituent duals are cached for the
length of one search.  Every candidate is built on the search's one A,
so ``expand`` completes A at most once per search, and not at all
after zeta has.  Everything is driven by a seeded generator, so a
rerun with the same request reproduces the same candidates.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field as dc_field

import numpy as np

from .lincode import DistanceBudget, DistanceResult, LinearCode
from .matgf import MatGF
from .mpcode import MPCode, dc_conditions, expand, zeta_matrix

__all__ = ["InfeasibleSearchError", "SearchHit", "SearchRequest", "search_mp_codes"]


# Draws one _sample_inside call makes before it gives up.
_SAMPLE_TRIES = 200

# Largest constituent length a search accepts.  The first draw's whole
# space has an n x n identity generator, and a draw from a narrowed space
# scales each of its about n rows, so memory grows with n^2.  One
# attempt's tracemalloc peak at n = 1024, 2048, 4096: 1.0, 4.0 and 16.0 MiB
# for A = [1 1] over GF(2), dims (1,); 13, 52 and 208 MiB for SO with
# A = [1], dims (2,), whose second row is drawn from a narrowed space.
_MAX_N = 4096


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
    expansion: LinearCode
    distance: DistanceResult
    attempt: int


def _random_vector_in(code: LinearCode, rng: random.Random) -> np.ndarray:
    """A uniformly random element of the code (possibly zero), as an
    encoding array: one coefficient drawn per generator row, in order."""
    spec = code.spec
    lam = np.array([rng.randrange(spec.q) for _ in range(code.k)], dtype=np.uint8)
    if code.is_full:
        # the whole space's canonical generator is the identity
        return lam
    return spec.sum_arr(spec.mul_arr(lam[:, None], code.gen.data), axis=0)


def _narrowed(space: LinearCode, checks: np.ndarray) -> LinearCode:
    """The vectors of space Euclidean-orthogonal to every row of the
    uint8 array checks: the Euclidean dual of dual(space) + <checks>,
    canonical, the same code however it is reached."""
    stacked = MatGF.vstack([space.parity_check(), MatGF._of(space.spec, checks)])
    return LinearCode.from_generator(stacked).euclidean_dual()


def _sample_inside(
    ambient: LinearCode, dim: int, rng: random.Random, *, so_ell: int | None = None
) -> LinearCode | None:
    """A random dim-dimensional subcode of ambient, from at most
    ``_SAMPLE_TRIES`` draws; when ``so_ell`` is given, the result is
    additionally l-Galois self-orthogonal, and each kept row but the
    last narrows the space the next rows are drawn from (see
    :func:`_narrowed`)."""
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
        if not rows or MatGF._of(spec, np.vstack([*rows, vec])).rank() == len(rows) + 1:
            rows.append(vec)
            if so_ell is not None and len(rows) < dim:
                # restrict further samples to x with sigma^l(vec) @ x^T =
                # sigma^(e-l)(vec) @ x^T = 0; dual(R + <vec>) = dual(R) &
                # dual(<vec>), so space stays ambient & both duals of the rows
                space = _narrowed(space, np.vstack(
                    [spec.frobenius_arr(vec, lv) for lv in (so_ell, spec.e - so_ell)]))
    if len(rows) != dim:
        return None
    return LinearCode.from_generator(MatGF._of(spec, np.vstack(rows)))


def _attempt(
    cond: MatGF, level: int, n: int, dims: tuple[int, ...], rng: random.Random, dual
) -> list[LinearCode] | None:
    """Codes D_1 .. D_m of length n and dimensions ``dims``, with D_i
    inside dual_level(D_j) wherever cond[i, j] != 0, or None when a
    sample runs out of draws; ``dual`` is the search's cached
    ``LinearCode.galois_dual``.  Each D_i is drawn inside the named duals
    of D_1 .. D_(i-1), and self-orthogonal when cond[i, i] != 0; a named
    dual after the first, dual_lv(D_j) = {x : sigma^(e-lv)(G_j) @ x^T =
    0}, narrows the space by the rows of sigma^(e-lv)(G_j)."""
    spec = cond.spec
    inv_level = (spec.e - level) % spec.e
    chosen: list[LinearCode] = []
    for i in range(1, len(dims) + 1):
        ambient = None
        checks = []
        for j in range(1, i):
            levels = []
            if cond.data[i - 1, j - 1] != 0:
                levels.append(level)
            if cond.data[j - 1, i - 1] != 0 and inv_level not in levels:
                # D_j inside dual_level(D_i), that is D_i inside the
                # inverse-level dual of D_j (the same when 2 level = 0 mod e)
                levels.append(inv_level)
            for lv in levels:
                if ambient is None:
                    ambient = dual(chosen[j - 1], lv)
                else:
                    checks.append(spec.frobenius_arr(chosen[j - 1].gen.data, spec.e - lv))
        if ambient is None:
            ambient = LinearCode.full(spec, n)
        elif checks:
            ambient = _narrowed(ambient, np.vstack(checks))
        so_ell = level if cond.data[i - 1, i - 1] != 0 else None
        c = _sample_inside(ambient, dims[i - 1], rng, so_ell=so_ell)
        if c is None:
            return None
        chosen.append(c)
    return chosen


def _dc_forced(zeta: MatGF, m: int, req: SearchRequest) -> None:
    """Raise InfeasibleSearchError when a nonzero zeta entry of a
    full-row-rank m-row defining matrix cannot be met: both indices
    exceed m, or it forces a constituent to the whole space that
    ``req.dims`` makes smaller."""
    conditions = list(dc_conditions(zeta, m))
    for i, j, f in conditions:
        if f == 0:
            raise InfeasibleSearchError(
                f"condition matrix entry ({i},{j}) is nonzero but both "
                "indices exceed the constituent count; no choice of "
                "constituents can give a dual-containing code"
            )
    for f in sorted({f for _, _, f in conditions if f}):
        if req.dims[f - 1] != req.n:
            raise InfeasibleSearchError(
                f"constituent {f} is forced to the whole space code but "
                f"dims[{f - 1}] = {req.dims[f - 1]} != n = {req.n}"
            )


def _griesmer(k: int, d: int, q: int) -> int:
    """The Griesmer bound: a linear [n, k, d] code over GF(q) has
    n >= sum of ceil(d / q^i) over 0 <= i < k.  Every term from
    i = d.bit_length() on is 1, as q^i >= 2^i > d there."""
    m = min(k, d.bit_length())
    return sum(-(-d // q**i) for i in range(m)) + k - m


def search_mp_codes(a: MatGF, req: SearchRequest) -> list[SearchHit]:
    """Seeded search for MP codes passing the requested check.

    The condition matrix, sigma^l(A) @ A^T (so) or zeta (dc, read by
    ``dc_conditions``), is computed once per search before the first
    attempt, so an infeasible DC request raises even when
    ``max_candidates`` is 0.  SO draws C_i at level l under that matrix;
    DC draws D_i = dual_l(C_i), of dimension n - k_i, at level e - l
    under zeta's m x m pattern and returns C_i = dual_(e-l)(D_i).  No
    attempt is checked: each draw meets every pair and diagonal
    condition of the matrix, and the refusals below rule out the rest,
    so every completed draw passes the exact checker.  Returns up to
    ``req.count`` hits with a nonzero expansion that (when a target is
    given, which must be at least 1) meet the distance target; a word
    a_i (x) g below it, g a generator row of C_i, drops a candidate
    before ``expand``, as the module docstring says.  A request
    no hit can meet is refused with no attempt, after those checks: a hit
    is a nonzero [nN, K] code, so some dim is positive and, by the
    Griesmer bound, nN >= sum of ceil(d / q^i) over 0 <= i < K, with
    K = sum(dims) when A has full row rank and K >= 1 otherwise (the
    bound grows with K, and implies the Singleton bound d <= nN - K + 1);
    and D_i inside dual(D_j) needs their dimensions to sum to at most n,
    so where the pattern is nonzero at (i, j), SO needs k_i + k_j <= n
    and DC k_i + k_j >= n (the checkers' rules 1 and 2).  A length n
    above ``_MAX_N`` raises ``ValueError``, as the first draw's whole
    space is an n x n generator.  Constituent
    duals go through one ``functools.cache`` of ``LinearCode.galois_dual``
    made per call, so repeated searches each compute their own.
    """
    if req.mode not in ("so", "dc"):
        raise ValueError(f"unknown search mode {req.mode!r}")
    if req.n < 1:
        raise ValueError(f"n={req.n} must be >= 1")
    if req.n > _MAX_N:
        raise ValueError(f"n={req.n} is too large: searches are limited to n <= {_MAX_N}")
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
    if req.target is not None and req.target < 1:
        raise ValueError(f"target={req.target} must be >= 1")
    full_rank = a.rank() == a.rows
    if req.mode == "dc" and not full_rank:
        raise InfeasibleSearchError(
            "dual-containment search requires a full-row-rank defining matrix"
        )
    a.spec.check_ell(req.ell)
    if req.mode == "so":
        cond = a.frobenius_map(req.ell) @ a.T
        level, dims = req.ell, req.dims
    else:
        cond = zeta_matrix(a, req.ell)
        _dc_forced(cond, a.rows, req)
        level = (a.spec.e - req.ell) % a.spec.e
        dims = tuple(req.n - k for k in req.dims)
    k_min = sum(req.dims) if full_rank else 1
    if not any(req.dims) or (
            req.target is not None and req.n * a.cols < _griesmer(k_min, req.target, a.spec.q)
            ) or any(dims[i] + dims[j] > req.n
                     for i, j in np.argwhere(cond.data[:a.rows, :a.rows])):
        return []
    rng = random.Random(req.seed)
    # looked up now, not at import, so a wrapped galois_dual is cached too
    dual = functools.cache(LinearCode.galois_dual)
    row_weights = np.count_nonzero(a.data, axis=1)
    hits: list[SearchHit] = []
    for attempt in range(1, req.max_candidates + 1):
        codes = _attempt(cond, level, req.n, dims, rng, dual)
        if codes is None:
            continue
        if req.mode == "dc":
            codes = [dual(d, level) for d in codes]
        # a_i (x) g, for g a row of G_i, is a codeword of weight wt(a_i) wt(g)
        if req.target is not None and any(
                wt * np.count_nonzero(c.gen.data, axis=1).min() < req.target
                for wt, c in zip(row_weights, codes) if wt and c.k):
            continue
        mp = MPCode(codes, a)
        big = expand(mp)
        if big.k == 0:
            continue
        dist = big.min_distance(req.budget)
        if req.target is not None and not (dist.exact and dist.d >= req.target):
            continue
        hits.append(SearchHit(mp, big, dist, attempt))
        if len(hits) >= req.count:
            break
    return hits

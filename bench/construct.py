"""Workload ``construct``: large MP instances, no distance computation.

Each task is one instance at one ell: ``expand``, the structured dual
(``dual_full_rank`` for a full-row-rank defining matrix, otherwise
``dual_general``), then ``check_self_orthogonal`` and
``check_dual_containing_general``.  Most of the work is in the ``gf``
bulk kernels, ``matgf`` (rref, matmul, kron) and ``mpcode.expand``, and
this is where memory peaks; no task calls ``min_distance``.

Random instances almost always FAIL the checks, so about half of the
instances are built to HOLD: small search hits for the same defining
matrix are tiled by direct sum, which keeps self-orthogonality and
dual-containment and leaves the defining matrix unchanged.  Finding the
hits takes a seed-dependent number of random defining matrices and
searches, so ``prepare`` does it once, untimed; each timed set-up then
draws the random instances and tiles the hits, work whose cost is the
same for every seed.

A task's answer is reduced to digests of the canonical generators
right after its timed call, so that no pass holds the large codes.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np

from mpcodes import MatGF, MPCode, SearchRequest, Verdict, field
from mpcodes import mpcode as mpc
from mpcodes import search as srch

from bench.codes import direct_expansion, direct_sum, random_code, random_defmatrix
from bench.run import Task, WrongAnswer

TILE = 8  # length of the search hits that are tiled
HITS = 3  # distinct hits per built-to-hold instance

# (q, M, N, n, rank of the defining matrix, kind); kind is "random",
# "so" (built to be self-orthogonal) or "dc" (built to be
# dual-containing, needs a square full-rank matrix).  N*n is 128, 256
# or 512; at 512 only balanced random instances (k_i = n/2) are used,
# because expand's dense product then peaks near 1.1 GB.
SHAPES = []
for _q in (2, 3, 4, 8, 9, 16):
    SHAPES += [
        (_q, 2, 2, 64, 2, "random"),
        (_q, 2, 2, 64, 2, "so"),
        (_q, 2, 2, 64, 2, "dc"),
        (_q, 3, 2, 64, 2, "random"),
        (_q, 4, 2, 64, 2, "so"),
        (_q, 2, 2, 64, 1, "random"),
    ]
SHAPES += [
    (2, 4, 4, 64, 4, "dc"),
    (3, 4, 4, 64, 3, "random"),
    (4, 3, 4, 64, 3, "so"),
    (8, 4, 4, 64, 4, "random"),
    (9, 4, 4, 64, 4, "dc"),
    (16, 4, 4, 64, 2, "so"),
    (2, 4, 4, 128, 4, "random"),
    (4, 4, 4, 128, 4, "random"),
]
QUICK = [s for s in SHAPES if s[0] in (2, 9) and s[1] * s[3] <= 128]


def _dims(m: int, n: int, kind: str) -> list[int]:
    """Fixed constituent dimensions, so that a seed changes the entries
    of an instance but not its size."""
    if kind == "so":  # cross-orthogonality usually forces sum(dims) <= n / 2
        return [(n // 2) // m + (i < (n // 2) % m) for i in range(m)]
    if kind == "dc":
        return [n - 1] * m
    return [n * (i + 1) // (m + 1) for i in range(m)]


def _hits(a: MatGF, mode: str, ell: int, rng) -> list[MPCode] | None:
    """HITS small instances over ``a`` that pass the ``mode`` check, or
    None when a few seeded searches find too few."""
    req = SearchRequest(mode=mode, ell=ell, n=TILE, dims=tuple(_dims(a.rows, TILE, mode)),
                        seed=0, count=HITS, max_candidates=10)
    for _ in range(3):
        hits = srch.search_mp_codes(a, replace(req, seed=int(rng.integers(1 << 30))))
        if len(hits) == HITS:
            return [h.mp for h in hits]
    return None


def _holding_hits(shape, ell: int, rng) -> tuple[MatGF, list[MPCode]]:
    """A defining matrix of the shape and HITS small hits over it."""
    q, m, n_cols, _, rank, kind = shape
    spec = field(q)
    for _ in range(100):
        a = random_defmatrix(spec, m, n_cols, rank, rng)
        hits = _hits(a, kind, ell, rng)
        if hits is not None:
            return a, hits
    raise RuntimeError(f"no {kind} hits for {shape} at ell={ell}")


def _instance(shape, found, rng) -> MPCode:
    q, m, n_cols, n, rank, kind = shape
    spec = field(q)
    if kind == "random":
        a = random_defmatrix(spec, m, n_cols, rank, rng)
        dims = [n // 2] * m if n_cols * n >= 512 else _dims(m, n, kind)
        return MPCode([random_code(spec, n, k, rng) for k in dims], a)
    a, hits = found
    tiles = [hits[int(t)] for t in rng.integers(0, HITS, n // TILE)]
    cons = [direct_sum([h.constituents[i] for h in tiles]) for i in range(m)]
    return MPCode(cons, a)


def _digest(code) -> tuple[int, int, str]:
    """(n, k, hash of the canonical generator): equal iff the codes are."""
    data = np.ascontiguousarray(code.gen.data, dtype=np.int64)
    return code.n, code.k, hashlib.sha256(data.tobytes()).hexdigest()


def make_task(name: str, mp: MPCode, ell: int, built: str) -> Task:
    full_rank = mp.defmatrix.rank() == mp.defmatrix.rows
    ref: dict = {}

    def run():
        code = mpc.expand(mp)
        dual = mpc.dual_full_rank(mp, ell)[1] if full_rank else mpc.dual_general(mp, ell)
        so = mpc.check_self_orthogonal(mp, ell)
        dc = mpc.check_dual_containing_general(mp, ell)
        return code, dual, so.verdict, dc.verdict

    def answer(out):
        code, dual, so, dc = out
        return _digest(code), _digest(dual), so, dc

    def check(out):
        code, dual, so, dc = out
        if not ref:
            truth = direct_expansion(mp)
            truth_dual = truth.galois_dual(ell)
            ref["code"] = _digest(truth)
            ref["dual"] = _digest(truth_dual)
            ref["so"] = truth.is_galois_self_orthogonal(ell)
            ref["dc"] = truth_dual.is_subcode(truth)
        if code != ref["code"]:
            raise WrongAnswer("expansion differs from the direct construction")
        if code[1] + dual[1] != code[0]:
            raise WrongAnswer(f"k + k_dual = {code[1] + dual[1]} != {code[0]}")
        if dual != ref["dual"]:
            raise WrongAnswer("structured dual differs from the kernel dual")
        if (so is Verdict.HOLDS) != ref["so"]:
            raise WrongAnswer(f"self-orthogonality verdict {so.value}, truth {ref['so']}")
        if dc is Verdict.HOLDS and not ref["dc"]:
            raise WrongAnswer("dual-containment HOLDS but the code is not dual-containing")
        if dc is Verdict.FAILS and ref["dc"]:
            raise WrongAnswer("dual-containment FAILS but the code is dual-containing")
        if full_rank and dc is not Verdict.HOLDS and ref["dc"]:
            raise WrongAnswer(f"exact dual-containment verdict {dc.value}, truth True")
        if built != "random" and {"so": so, "dc": dc}[built] is not Verdict.HOLDS:
            raise WrongAnswer(f"built to hold {built}, checker says not")

    return Task(name, run, check, answer=answer)


def _plan(quick: bool) -> list[tuple[tuple, int]]:
    """(shape, ell) of every task; ell cycles over 0..e-1 per field."""
    plan = []
    per_q: dict[int, int] = {}
    for shape in QUICK if quick else SHAPES:
        q = shape[0]
        plan.append((shape, per_q.get(q, 0) % field(q).e))
        per_q[q] = per_q.get(q, 0) + 1
    return plan


def prepare(ctx) -> list:
    """The defining matrix and small hits of every built-to-hold task."""
    rng = np.random.default_rng([ctx.seed, 2])
    return [None if shape[5] == "random" else _holding_hits(shape, ell, rng)
            for shape, ell in _plan(ctx.quick)]


def setup(ctx) -> list[Task]:
    rng = np.random.default_rng([ctx.seed, 1])
    tasks = []
    for (shape, ell), found in zip(_plan(ctx.quick), ctx.prepared):
        q, m, n_cols, n, rank, kind = shape
        mp = _instance(shape, found, rng)
        name = f"q{q} {m}x{n_cols} rank{rank} n{n} {kind} ell{ell}"
        tasks.append(make_task(name, mp, ell, kind))
    return tasks

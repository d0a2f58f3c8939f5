"""Seeded codes whose minimum distance is known by construction.

Every family here has a distance that follows from theory, so it serves
as a reference that is independent of the distance strategies under
test:

* generalized Reed-Solomon codes are MDS, d = n - k + 1;
* q-ary Hamming codes have d = 3 (binary extended Hamming d = 4),
  simplex codes d = q^(r-1);
* binary Reed-Muller RM(r, m) has d = 2^(m - r);
* the Plotkin sum (u | u + v), the MP code with defining matrix
  [[1, 1], [0, 1]], has d = min(2 d(C1), d(C2)) over any field.

A seeded monomial map (column permutation and nonzero column scalars)
keeps the weight distribution, so every seed gives a different
generator with the same reference distance.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from mpcodes import LinearCode, MatGF, MPCode, expand


def monomial_image(code: LinearCode, rng: np.random.Generator) -> LinearCode:
    """The code under a random column permutation and nonzero scaling."""
    spec = code.spec
    gen = code.gen.data[:, rng.permutation(code.n)]
    scale = rng.integers(1, spec.q, code.n)
    return LinearCode.from_generator(MatGF(spec, spec.mul_arr(gen, scale[None, :])))


def grs(spec, n: int, k: int, rng: np.random.Generator) -> LinearCode:
    """A generalized Reed-Solomon [n, k, n-k+1] code on seeded distinct
    evaluation points with seeded nonzero column multipliers."""
    if n > spec.q:
        raise ValueError(f"GRS length {n} exceeds q={spec.q}")
    points = [int(x) for x in rng.permutation(spec.q)[:n]]
    mults = [int(x) for x in rng.integers(1, spec.q, n)]
    rows = []
    for i in range(k):
        rows.append([spec.mul(v, spec.pow(a, i) if i else 1) for a, v in zip(points, mults)])
    return LinearCode.from_generator(MatGF(spec, rows))


def _projective_points(spec, r: int) -> list[tuple[int, ...]]:
    """Points of PG(r-1, q): nonzero vectors whose first nonzero entry is 1."""
    pts = []
    for vec in product(range(spec.q), repeat=r):
        nz = [x for x in vec if x]
        if nz and nz[0] == 1:
            pts.append(vec)
    return pts


def simplex_and_hamming(spec, r: int) -> tuple[LinearCode, LinearCode]:
    """The simplex [m, r, q^(r-1)] code and its dual, the Hamming
    [m, m-r, 3] code, with m = (q^r - 1) / (q - 1).

    The parity-check matrix is ordered as [P | I_r], so the Hamming
    generator is [I | -P^T] without any elimination.
    """
    units = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    others = [p for p in _projective_points(spec, r) if p not in units]
    cols = others + units
    h = np.array(cols, dtype=np.int64).T  # r x m
    p_part = h[:, : len(others)]
    g = np.hstack([np.eye(len(others), dtype=np.int64), spec.neg_arr(p_part.T)])
    return (
        LinearCode.from_generator(MatGF(spec, h)),
        LinearCode.from_generator(MatGF(spec, g)),
    )


def extended_hamming2(spec, r: int) -> LinearCode:
    """Binary extended Hamming [2^r, 2^r - r - 1, 4]: overall parity added."""
    _, ham = simplex_and_hamming(spec, r)
    gen = ham.gen.data
    parity = gen.sum(axis=1) % 2
    return LinearCode.from_generator(MatGF(spec, np.hstack([gen, parity[:, None]])))


def reed_muller2(spec, r: int, m: int) -> LinearCode:
    """Binary RM(r, m): monomials of degree <= r evaluated on GF(2)^m."""
    pts = np.array(list(product((0, 1), repeat=m)), dtype=np.int64)  # 2^m x m
    rows = []
    for deg in range(r + 1):
        for mono in combinations(range(m), deg):
            rows.append(np.prod(pts[:, list(mono)], axis=1) if mono else np.ones(len(pts), dtype=np.int64))
    return LinearCode.from_generator(MatGF(spec, np.array(rows)))


def plotkin(c1: LinearCode, c2: LinearCode) -> LinearCode:
    """(u | u + v) for u in c1, v in c2, built as an MP code."""
    a = MatGF(c1.spec, [[1, 1], [0, 1]])
    return expand(MPCode([c1, c2], a))


def random_defmatrix(spec, m: int, n_cols: int, rank: int, rng: np.random.Generator) -> MatGF:
    """A seeded m x n_cols defining matrix of the given rank, no zero rows."""
    while True:
        if rank == m:
            a = MatGF(spec, rng.integers(0, spec.q, (m, n_cols)))
        else:
            left = MatGF(spec, rng.integers(0, spec.q, (m, rank)))
            a = left @ MatGF(spec, rng.integers(0, spec.q, (rank, n_cols)))
        if a.rank() == rank and all(row.any() for row in a.data):
            return a


def random_code(spec, n: int, k: int, rng: np.random.Generator) -> LinearCode:
    """A code spanned by k seeded random rows (dimension at most k)."""
    return LinearCode.from_generator(MatGF(spec, rng.integers(0, spec.q, (k, n))))


def direct_sum(codes: list[LinearCode]) -> LinearCode:
    """The direct sum on consecutive coordinate blocks."""
    spec = codes[0].spec
    gen = np.zeros((sum(c.k for c in codes), sum(c.n for c in codes)), dtype=np.int64)
    r = col = 0
    for c in codes:
        gen[r : r + c.k, col : col + c.n] = c.gen.data
        r += c.k
        col += c.n
    return LinearCode.from_generator(MatGF(spec, gen))


def direct_expansion(mp: MPCode) -> LinearCode:
    """Row block i is [a_i1 G_i | ... | a_iN G_i]; no Kronecker product."""
    spec = mp.spec
    blocks = []
    for i, c in enumerate(mp.constituents):
        row = [spec.mul_arr(np.int64(a_ij), c.gen.data) for a_ij in mp.defmatrix.data[i]]
        blocks.append(np.hstack(row))
    return LinearCode.from_generator(MatGF(spec, np.vstack(blocks)))

"""Regenerate ``bench/data/fixture_codes.json``.

For every MP fixture, the expansion and its ``dual_general`` at each
ell, record n, k and the exact minimum distance computed by a route
other than the default strategy the benchmark measures: the brute-force
oracle when q^k <= 2^16; the MacWilliams transform of the weight
distribution of the oracle's dual when q^(n-k) <= 2^16; otherwise the
full enumeration (for codes the default budget sends to ``low-weight``
or ``bounds``) or the low-weight search with enumeration switched off
(for codes it sends to ``enum``).  A dual that none of these reach
gets d as the fewest linearly dependent columns of its parity-check
matrix, the Frobenius image of the expansion's generator, found with
scalar elimination.

Run from the repository root: ``python3 -m bench.make_references``.
It takes about a minute, most of it enumerating the 8^9 codewords of
``f8_2x5.mp``.
"""

import json
import sys
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mpcodes import DistanceBudget, dual_general, expand, oracle  # noqa: E402
from mpcodes import io as fmt  # noqa: E402

OUT = Path(__file__).parent / "data" / "fixture_codes.json"


def macwilliams_distance(code) -> int:
    """d from A_j = |C_dual|^-1 sum_i B_i K_j(i), B the dual's weights."""
    q, n = code.spec.q, code.n
    dual = oracle.dual_vectors_by_definition(code, 0, cap=1 << 16)
    b = [0] * (n + 1)
    for word in dual:
        b[sum(1 for x in word if x)] += 1
    for j in range(1, n + 1):
        a_j = sum(
            b[i] * sum((-1) ** s * (q - 1) ** (j - s) * comb(i, s) * comb(n - i, j - s)
                       for s in range(j + 1))
            for i in range(n + 1)
        )
        if Fraction(a_j, len(dual)) > 0:
            return j
    raise RuntimeError(f"{code!r} has no nonzero codeword")


def _scalar_rank(spec, rows: list[list[int]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = spec.inv(rows[rank][col])
        rows[rank] = [spec.mul(inv, x) for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [spec.sub(x, spec.mul(f, y)) for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def column_distance(parity, max_w: int = 4) -> int:
    """Fewest linearly dependent columns of a parity-check matrix."""
    spec = parity.spec
    cols = [[int(x) for x in col] for col in parity.data.T]
    for w in range(1, max_w + 1):
        for sel in combinations(cols, w):
            if _scalar_rank(spec, list(sel)) < w:
                return w
    raise RuntimeError("no dependent column set up to max_w")


def reference(code, parity=None) -> tuple[int, str]:
    q = code.spec.q
    if q**code.k <= 1 << 16:
        return oracle.min_distance_exhaustive(code, cap=1 << 16), "oracle"
    if q ** (code.n - code.k) <= 1 << 16:
        return macwilliams_distance(code), "macwilliams"
    if parity is not None and q**code.k > 1 << 28:
        return column_distance(parity), "columns"
    default = code.min_distance().strategy
    if default == "enum":
        r = code.min_distance(DistanceBudget(enum_cap=1, lw_cap=1 << 40))
        route = "low-weight"
    else:
        r = code.min_distance(DistanceBudget(enum_cap=1 << 28))
        route = "enum"
    if r.strategy != route:
        raise RuntimeError(f"{code!r}: second route gave {r.strategy}, not {route}")
    return r.d, route


def main() -> None:
    table = []
    for path in sorted((ROOT / "fixtures").glob("*.mp")):
        mp, claims = fmt.load_mp(path.read_text(), strict=False)
        if claims.mismatches():
            continue
        big = expand(mp)
        codes = [("expand", None, big, None)]
        codes += [("dual", ell, dual_general(mp, ell), big.gen.frobenius_map(ell))
                  for ell in range(mp.spec.e)]
        for what, ell, code, parity in codes:
            d, route = reference(code, parity)
            table.append({"fixture": path.name, "code": what, "ell": ell,
                          "n": code.n, "k": code.k, "d": d, "route": route})
            print(table[-1], flush=True)
    for path in sorted((ROOT / "fixtures").glob("*.code")):
        code = fmt.load_code(path.read_text())
        d, route = reference(code)
        table.append({"fixture": path.name, "code": "code", "ell": None,
                      "n": code.n, "k": code.k, "d": d, "route": route})
    OUT.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()

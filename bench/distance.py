"""Workload ``distance``: one ``LinearCode.min_distance`` per task.

The codes are every fixture expansion and its ``dual_general`` at each
ell, plus seeded codes in each strategy regime of the default
``DistanceBudget``: ``enum`` (q^k between 2^16 and 2^22, GF(9)
included), high-rate ``low-weight``, and ``bounds`` (``f8_2x5.mp`` and
short GRS codes over GF(16), each finishing in seconds).  Expansions
and duals are built in set-up, so nearly all timed work is in the
``lincode`` distance strategies and almost none in ``mpcode``.

References: the fixture table in ``data/fixture_codes.json`` (see
``make_references.py``) and, for seeded codes, the distance their
family has by construction (see ``codes.py``).  Strategy labels are
not compared, so a new strategy is not counted as a failure.
"""

from __future__ import annotations

import json

import numpy as np

from mpcodes import dual_general, expand, field
from mpcodes import io as fmt

from bench.codes import (
    extended_hamming2,
    grs,
    monomial_image,
    plotkin,
    reed_muller2,
    simplex_and_hamming,
)
from bench.run import Task, WrongAnswer


def fixture_table(root) -> list[dict]:
    return json.loads((root / "bench" / "data" / "fixture_codes.json").read_text())


def fixture_codes(root) -> list[tuple[str, object, int]]:
    """(name, code, d) for every expansion and dual in the fixture table."""
    out = []
    mps = {}
    for row in fixture_table(root):
        path = root / "fixtures" / row["fixture"]
        if row["code"] == "code":
            code = fmt.load_code(path.read_text())
        else:
            if row["fixture"] not in mps:
                mps[row["fixture"]] = fmt.load_mp(path.read_text())[0]
            mp = mps[row["fixture"]]
            code = expand(mp) if row["code"] == "expand" else dual_general(mp, row["ell"])
        if (code.n, code.k) != (row["n"], row["k"]):
            raise RuntimeError(f"fixture table out of date for {row}")
        tag = row["code"] + ("" if row["ell"] is None else f" ell{row['ell']}")
        out.append((f"{row['fixture']} {tag}", code, row["d"]))
    return out


def seeded_codes(rng) -> list[tuple[str, object, int]]:
    """(name, code, d by construction), covering the three regimes."""
    f = {q: field(q) for q in (2, 3, 4, 8, 9, 16)}
    s3, h3 = simplex_and_hamming(f[3], 3)
    out = []
    for draw in (1, 2):
        batch = [
            # enum: 2^16 <= q^k <= 2^22
            ("enum GF(9) plotkin GRS[9,3]|GRS[9,3] [18,6,7]",
             plotkin(grs(f[9], 9, 3, rng), grs(f[9], 9, 3, rng)), 7),
            ("enum GF(9) plotkin GRS[9,2]|GRS[9,4] [18,6,6]",
             plotkin(grs(f[9], 9, 2, rng), grs(f[9], 9, 4, rng)), 6),
            ("enum GF(16) GRS [16,5,12]", grs(f[16], 16, 5, rng), 12),
            ("enum GF(3) plotkin Hamming|simplex [26,13,6]",
             monomial_image(plotkin(h3, s3), rng), 6),
            # low-weight: high rate, q^k > 2^24
            ("low-weight GF(2) ext. Hamming [32,26,4]",
             monomial_image(extended_hamming2(f[2], 5), rng), 4),
            ("low-weight GF(4) Hamming [21,18,3]",
             monomial_image(simplex_and_hamming(f[4], 3)[1], rng), 3),
            ("low-weight GF(9) Hamming [10,8,3]",
             monomial_image(simplex_and_hamming(f[9], 2)[1], rng), 3),
            ("low-weight GF(8) Hamming [73,70,3]",
             monomial_image(simplex_and_hamming(f[8], 3)[1], rng), 3),
            ("low-weight GF(16) GRS [16,13,4]", grs(f[16], 16, 13, rng), 4),
            # bounds: the low-weight cap stops before d
            ("bounds GF(16) GRS [15,7,9]", grs(f[16], 15, 7, rng), 9),
            ("bounds GF(16) GRS [16,8,9]", grs(f[16], 16, 8, rng), 9),
        ]
        out += [(f"{name} #{draw}", code, d) for name, code, d in batch]
    out += [
        ("enum GF(2) RM(2,6) [64,22,16]", monomial_image(reed_muller2(f[2], 2, 6), rng), 16),
        ("low-weight GF(2) Hamming [31,26,3]",
         monomial_image(simplex_and_hamming(f[2], 5)[1], rng), 3),
        ("low-weight GF(3) Hamming [40,36,3]",
         monomial_image(simplex_and_hamming(f[3], 4)[1], rng), 3),
    ]
    return out


def make_task(name: str, code, d: int) -> Task:
    def run():
        return code.min_distance()

    def check(r):
        # an exact d must equal the reference, a bracket must contain it
        if not 1 <= r.lower <= d <= r.upper <= code.n:
            raise WrongAnswer(f"distance [{r.lower}, {r.upper}] misses reference {d}")

    return Task(name, run, check, bracket=lambda r: [(r.lower, r.upper)])


def setup(ctx) -> list[Task]:
    rng = np.random.default_rng([ctx.seed, 2])
    codes = fixture_codes(ctx.root) + seeded_codes(rng)
    if ctx.quick:
        codes = [c for c in codes if c[1].spec.q ** c[1].k <= 1 << 20][::3]
    return [make_task(*c) for c in codes]

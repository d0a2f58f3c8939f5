"""Workload ``discover``: the researcher's loop on small instances.

Three parts, in one fixed task list:

* seeded ``search_mp_codes`` requests (so and dc, every ell, q in
  {2, 3, 4, 5, 9}) whose distance targets reject most candidates;
* ``verify`` of every hit, written to a temporary ``.mp`` file, through
  the CLI in-process;
* every CLI subcommand on every fixture, plus the malformed inputs that
  must exit with a usage (10) or validation (11) error.

This uses ``gf`` through scalar ``add``/``mul`` and many tiny RREFs, and
it is the only workload that calls ``oracle``, ``io`` and ``cli``.

Expected exit codes for every (subcommand, fixture) pair are benchmark
data (``data/cli_expected.json``).  An exit with the internal-error code
20 counts as a failed operation; any other unexpected exit code, wrong
``--machine`` fact or wrong search hit is a wrong answer.
"""

from __future__ import annotations

import contextlib
import io as _io
import json

import numpy as np

from mpcodes import SearchRequest, field, oracle
from mpcodes import cli
from mpcodes import io as fmt
from mpcodes import search as srch

from bench.codes import direct_expansion, random_defmatrix
from bench.distance import fixture_table
from bench.run import FailedOperation, Task, WrongAnswer

INTERNAL_ERROR = 20

# (q, mode, ell, n, dims, target): 2 x 2 defining matrices, and codes
# small enough (q^(2n) <= 5^6) that the oracle in ``verify`` stays cheap.
REQUESTS = [
    (2, "so", 0, 6, (1, 2), 4),
    (2, "dc", 0, 6, (4, 5), 2),
    (3, "so", 0, 4, (1, 2), 3),
    (3, "dc", 0, 4, (3, 3), 2),
    (4, "so", 0, 3, (1, 1), 3),
    (4, "so", 1, 3, (1, 1), 4),
    (4, "dc", 0, 3, (2, 3), 2),
    (4, "dc", 1, 3, (2, 3), 2),
    (5, "so", 0, 3, (1, 1), 4),
    (5, "dc", 0, 3, (2, 3), 2),
    (9, "so", 0, 2, (1, 1), 2),
    (9, "so", 1, 2, (1, 1), 2),
    (9, "dc", 0, 2, (1, 2), 2),
    (9, "dc", 1, 2, (1, 2), 2),
]
HITS = 2
MAX_CANDIDATES = 40

# Galois level each fixture is documented at; dual, check and verify run there.
FIXTURE_ELL = {
    "f2_2x5_so.mp": 0, "f2_4x2_rankdef.mp": 0, "f3_4x3_dc.mp": 0,
    "f4_2x4_so.mp": 1, "f4_5x3_rankdef.mp": 0, "f4_5x3_so.mp": 1,
    "f5_3x4_dc.mp": 0, "f5_3x4_nsc.mp": 0, "f5_3x4_nsc_corrupt.mp": 0,
    "f8_2x5.mp": 2, "f8_5x5_dc.mp": 0, "f9_2x3_dc.mp": 1, "f9_4x4_dc.mp": 1,
    "f2_2x5_so_matrix.mat": 0, "rep3_f2.code": 0,
}
SEARCH_ARGS = ["--mode", "so", "--n", "9", "--dims", "1,2", "--target", "24"]


def cli_commands(root, tmp) -> list[tuple[str, list[str]]]:
    """(key, argv) for every subcommand on every fixture and the
    malformed inputs; keys index ``data/cli_expected.json``.  Grouped by
    subcommand, with ``verify`` (the slowest) last."""
    cmds = []
    for sub in ("info", "mp", "dual", "check-so", "check-dc", "search", "verify"):
        for name, ell in FIXTURE_ELL.items():
            path = str(root / "fixtures" / name)
            e = ["--ell", str(ell)]
            argv = {
                "info": ["info", path],
                "mp": ["mp", path],
                "dual": ["dual", path, *e],
                "check-so": ["check", path, "--mode", "so", *e],
                "check-dc": ["check", path, "--mode", "dc", *e],
                "search": ["search", "--matrix", path, *SEARCH_ARGS],
                "verify": ["verify", path, *e],
            }[sub]
            cmds.append((f"{sub} {name}", argv))
    bad_header = tmp / "bad_header.code"
    bad_header.write_text("field p=x e=1\ncode 3 1\n1 1 1\n")
    f2 = str(root / "fixtures" / "f2_2x5_so.mp")
    mat = str(root / "fixtures" / "f2_2x5_so_matrix.mat")
    cmds += [
        ("malformed info field p=x", ["info", str(bad_header)]),
        ("malformed dual --ell 3 on GF(2)", ["dual", f2, "--ell", "3"]),
        ("malformed verify --ell 1 on GF(2)", ["verify", f2, "--ell", "1"]),
        ("malformed search --dims 1,x",
         ["search", "--matrix", mat, "--mode", "so", "--n", "4", "--dims", "1,x"]),
    ]
    return [(key, argv + ["--machine"]) for key, argv in cmds]


def run_cli(ctx, argv: list[str]) -> tuple[int, str]:
    """``cli.main`` in-process with captured output; traced as cli.<sub>."""
    out, err = _io.StringIO(), _io.StringIO()
    tracer = ctx.tracer
    span = tracer.open(f"cli.{argv[0]}") if tracer is not None and tracer.active else None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    finally:
        if span is not None:
            tracer.close(span)
    if span is not None:
        tracer.counters[f"cli.rc.{rc}"] += 1
    return rc, out.getvalue()


def machine_facts(text: str) -> dict[str, str]:
    facts: dict[str, str] = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key in ("n", "k", "d", "d_lower", "d_upper") and key not in facts:
            facts[key] = value.strip()
    return facts


def _bracket(facts: dict[str, str]) -> list[tuple[int, int]]:
    if facts.get("d", "-") != "-":
        return [(int(facts["d"]), int(facts["d"]))]
    if "d_lower" in facts:
        return [(int(facts["d_lower"]), int(facts["d_upper"]))]
    return []


def _check_facts(facts: dict[str, str], ref: dict) -> None:
    """n and k exactly; an exact d equal to, or a bracket around, the
    reference (strategy labels are not compared)."""
    if (facts.get("n"), facts.get("k")) != (str(ref["n"]), str(ref["k"])):
        raise WrongAnswer(f"n, k = {facts.get('n')}, {facts.get('k')}; reference {ref['n']}, {ref['k']}")
    brackets = _bracket(facts)
    if not brackets:
        raise WrongAnswer("no distance fact")
    (lo, up), = brackets
    if not lo <= ref["d"] <= up:
        raise WrongAnswer(f"distance [{lo}, {up}] misses reference {ref['d']}")


def cli_task(ctx, key: str, argv: list[str], expected: list[int], ref: dict | None) -> Task:
    def run():
        return run_cli(ctx, argv)

    def check(out):
        rc, text = out
        if rc not in expected:
            msg = f"exit {rc}, expected one of {expected}"
            if rc == INTERNAL_ERROR:
                raise FailedOperation(msg)
            raise WrongAnswer(msg)
        if ref is not None and rc == 0:
            _check_facts(machine_facts(text), ref)

    def bracket(out):
        return _bracket(machine_facts(out[1])) if ref is not None and out[0] == 0 else []

    return Task(key, run, check, bracket=bracket)


def search_tasks(ctx, mode: str, rows, rng) -> list[Task]:
    """One search batch (every request of one mode, each with its own
    seeded 2 x 2 defining matrix) and the ``verify`` of all its hits.

    Grouping requests into a batch averages the per-request cost,
    which depends on how soon a seed finds its hits."""
    reqs = []
    for q, _, ell, n, dims, target in rows:
        a = random_defmatrix(field(q), 2, 2, 2, rng)
        reqs.append((a, SearchRequest(mode=mode, ell=ell, n=n, dims=dims, target=target,
                                      seed=int(rng.integers(1 << 30)), count=HITS,
                                      max_candidates=MAX_CANDIDATES)))
    found: dict = {}
    name = f"search batch {mode} ({len(reqs)} requests)"

    def run_search():
        found["hits"] = [(a, req, hit) for a, req in reqs for hit in srch.search_mp_codes(a, req)]
        return found["hits"]

    def check_search(hits):
        for a, req in reqs:
            n_hits = sum(r is req for _, r, _ in hits)
            if n_hits > req.count:
                raise WrongAnswer(f"{n_hits} hits, requested {req.count}")
        for a, req, hit in hits:
            code = direct_expansion(hit.mp)
            if hit.mp.defmatrix != a:
                raise WrongAnswer("hit has a different defining matrix")
            if mode == "so" and not code.is_galois_self_orthogonal(req.ell):
                raise WrongAnswer("hit is not self-orthogonal")
            if mode == "dc" and not code.galois_dual(req.ell).is_subcode(code):
                raise WrongAnswer("hit is not dual-containing")
            d = oracle.min_distance_exhaustive(code)
            if not (hit.distance.exact and hit.distance.d == d >= req.target):
                raise WrongAnswer(f"hit distance {hit.distance}, oracle {d}, target {req.target}")

    def run_verify():
        rcs = []
        for j, (_, req, hit) in enumerate(found.get("hits", ())):
            path = ctx.tmp / f"hit_{mode}_{j}.mp"
            path.write_text(fmt.dump_mp(hit.mp))
            rcs.append(run_cli(ctx, ["verify", str(path), "--ell", str(req.ell), "--machine"])[0])
        return rcs

    def check_verify(rcs):
        if any(rc == INTERNAL_ERROR for rc in rcs):
            raise FailedOperation(f"verify exits {rcs}")
        if any(rcs):
            raise WrongAnswer(f"verify exits {rcs}, expected all 0")

    return [
        Task(name, run_search, check_search,
             bracket=lambda hits: [(h.distance.lower, h.distance.upper) for _, _, h in hits],
             search=True),
        Task(f"verify hits of {name}", run_verify, check_verify),
    ]


def setup(ctx) -> list[Task]:
    rng = np.random.default_rng([ctx.seed, 3])
    expected = json.loads((ctx.root / "bench" / "data" / "cli_expected.json").read_text())
    refs = {}
    for row in fixture_table(ctx.root):
        refs[(row["fixture"], row["code"], row["ell"])] = row
    cli = []
    for key, argv in cli_commands(ctx.root, ctx.tmp):
        sub, _, name = key.partition(" ")
        ell = FIXTURE_ELL.get(name)
        ref = {
            "info": refs.get((name, "code", None)),
            "mp": refs.get((name, "expand", None)),
            "dual": refs.get((name, "dual", ell)),
        }.get(sub)
        cli.append(cli_task(ctx, key, argv, expected[key], ref))
    if ctx.quick:
        cheap = ("f2_2x5_so.mp", "f5_3x4_dc.mp", "f2_2x5_so_matrix.mat", "rep3_f2.code")
        cli = [t for t in cli if t.name.endswith(cheap) or t.name.startswith("malformed")]
    searches = []
    for mode in ("so", "dc"):
        searches += search_tasks(ctx, mode, [r for r in REQUESTS if r[1] == mode], rng)
    # the slow verify tasks last, so that the extra samples of the short
    # tasks are spread over them
    verify = [t for t in cli if t.name.startswith("verify ")]
    return [t for t in cli if t not in verify] + searches + verify

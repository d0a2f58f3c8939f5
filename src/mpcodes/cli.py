"""Command-line interface.

Subcommands::

    info    print the [n,k,d] parameters of a code file
    mp      expand an MP description into a code file
    dual    compute the l-Galois dual of an MP description
    check   run the self-orthogonality or dual-containment checker
    verify  cross-check structured results against the brute-force oracle
    search  look for constituents meeting checker conditions

Exit codes are a stable contract: 0 = success / condition holds,
1 = condition fails / verification disagreement, 2 = ``search`` found no
candidate within ``--search-cap``, or made no attempt because no hit
can exist (``--target`` above the Singleton bound of every possible
hit, ``--dims`` all 0, or a condition on constituents i and j, i = j
included, with k_i + k_j > n in so mode or k_i + k_j < n in dc mode),
10 = usage or parse error, 11 = validation error, 13 = infeasible
search.  Both checkers are exact for every defining matrix, so
``check`` answers holds (0) or fails (1) on every valid input.  With
``--machine`` every fact is printed as one ``key: value`` line.

Every subcommand takes ``--machine``; the other shared options go only
where they are read.  The distance caps ``--enum-cap`` and ``--lw-cap``
go with the subcommands that compute minimum distances (info, mp, dual,
search), and ``--out`` with those that write files (mp, dual, search).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .lincode import DistanceBudget, DistanceResult, LinearCode
from .matgf import RankDeficientError
from .mpcode import (
    Verdict,
    check_dual_containing_general,
    check_self_orthogonal,
    dual_full_rank,
    dual_general,
    expand,
    row_partition,
)
from . import io as fmt
from . import oracle
from .search import InfeasibleSearchError, SearchRequest, search_mp_codes

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_NO_CANDIDATE = 2
EXIT_USAGE = 10
EXIT_VALIDATION = 11
EXIT_INFEASIBLE = 13

_VERDICT_EXIT = {Verdict.HOLDS: EXIT_HOLDS, Verdict.FAILS: EXIT_FAILS}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 10, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _params_str(n: int, k: int, dist: DistanceResult | None) -> str:
    if k == 0:
        return f"[{n},0,-]"
    assert dist is not None
    return f"[{n},{k},{dist}]"


def _budget(args) -> DistanceBudget:
    return DistanceBudget(enum_cap=args.enum_cap, lw_cap=args.lw_cap)


def _print_params(code: LinearCode, args, prefix: str = "parameters"):
    dist = None if code.k == 0 else code.min_distance(_budget(args))
    if args.machine:
        print(f"n: {code.n}")
        print(f"k: {code.k}")
        if dist is None:
            print("d: -")
            print("strategy: undefined")
        elif dist.exact:
            print(f"d: {dist.d}")
            print(f"strategy: {dist.strategy}")
        else:
            print(f"d_lower: {dist.lower}")
            print(f"d_upper: {dist.upper}")
            print(f"strategy: {dist.strategy}")
    else:
        tag = "undefined distance" if dist is None else f"strategy: {dist.strategy}"
        print(f"{prefix}: {_params_str(code.n, code.k, dist)} ({tag})")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(EXIT_USAGE, f"cannot read {path}: {exc}") from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliError(EXIT_USAGE, f"cannot write {path}: {exc}") from None


def _write_out(args, text: str, what: str):
    if args.out:
        _write(args.out, text)
        print(f"{what}: {args.out}" if args.machine else f"wrote {what} to {args.out}")
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_info(args) -> int:
    code = fmt.load_code(_read(args.codefile))
    _print_params(code, args)
    return EXIT_HOLDS


def cmd_mp(args) -> int:
    mp, _ = fmt.load_mp(_read(args.mpfile))
    code = expand(mp)
    _print_params(code, args)
    _write_out(args, fmt.dump_code(code), "code")
    return EXIT_HOLDS


def cmd_dual(args) -> int:
    mp, _ = fmt.load_mp(_read(args.mpfile))
    try:
        dual_mp, dual_code = dual_full_rank(mp, args.ell)
        path = "full-rank"
    except RankDeficientError:
        dual_code = expand(mp).galois_dual(args.ell)
        dual_mp = None
        part = row_partition(mp.defmatrix)
        path = "partition{" + "|".join(
            ",".join(str(i) for i in b) for b in part.blocks
        ) + "}"
        if part.discarded:
            path += " discarded{" + ",".join(str(i) for i in part.discarded) + "}"
    print(f"path: {path}")
    _print_params(dual_code, args, prefix="dual-parameters")
    if dual_mp is not None and not args.machine:
        print("dual MP form: constituent duals "
              + " ".join(f"[{c.n},{c.k}]" for c in dual_mp.constituents)
              + " mixed by:")
        for line in fmt.dump_matrix(dual_mp.defmatrix).splitlines()[1:]:
            print("  " + line)
    _write_out(args, fmt.dump_code(dual_code), "dual code")
    return EXIT_HOLDS


def cmd_check(args) -> int:
    mp, _ = fmt.load_mp(_read(args.mpfile))
    if args.mode == "so":
        report = check_self_orthogonal(mp, args.ell)
    else:
        report = check_dual_containing_general(mp, args.ell)
    for line in fmt.report_lines(report):
        print(line)
    return _VERDICT_EXIT[report.verdict]


def cmd_verify(args) -> int:
    mp, claims = fmt.load_mp(_read(args.mpfile), strict=False)
    lines: list[tuple[str, str]] = []  # (check name, agree|disagree|skip ...)

    for i, (declared_k, actual_k) in enumerate(claims.constituent_claims, 1):
        ok = declared_k == actual_k
        lines.append(
            (
                f"claim constituent {i}",
                "agree" if ok else f"disagree (declared k={declared_k}, rank={actual_k})",
            )
        )

    code = expand(mp)
    dual = dual_general(mp, args.ell)

    # dual correctness by definition: dimensions complementary and every
    # basis vector orthogonal (in the l-Galois product) to every
    # generator row; together these certify the dual exactly.
    dims_ok = code.k + dual.k == code.n
    prods_ok = oracle.orthogonal_by_definition(
        mp.spec, code.gen.data, dual.gen.data, args.ell
    )
    lines.append(
        ("dual definition", "agree" if dims_ok and prods_ok else "disagree")
    )

    # full set-level oracle comparison when within cap
    try:
        brute = oracle.dual_by_definition(code, args.ell, cap=args.oracle_cap)
        lines.append(
            ("dual oracle", "agree" if brute == dual else "disagree")
        )
    except oracle.OracleCapError as exc:
        lines.append(("dual oracle", f"skip ({exc})"))

    so_report = check_self_orthogonal(mp, args.ell)
    so_truth = oracle.so_by_definition(code, args.ell, cap=args.oracle_cap)
    lines.append(
        (
            "self-orthogonal",
            "agree" if (so_report.verdict is Verdict.HOLDS) == so_truth else "disagree",
        )
    )

    dc_report = check_dual_containing_general(mp, args.ell)
    containment = dual.is_subcode(code)
    ok = (dc_report.verdict is Verdict.HOLDS) == containment
    lines.append(("dual-containing", "agree" if ok else "disagree"))
    try:
        if containment:
            sub_ok = oracle.is_subset_by_enumeration(dual, code, cap=args.oracle_cap)
            lines.append(
                ("dual-containing oracle", "agree" if sub_ok else "disagree")
            )
    except oracle.OracleCapError as exc:
        lines.append(("dual-containing oracle", f"skip ({exc})"))

    bad = 0
    for name, status in lines:
        print(f"check {name}: {status}")
        if status.startswith("disagree"):
            bad += 1
    print(f"result: {'all-agree' if bad == 0 else f'{bad} disagreement(s)'}")
    return EXIT_HOLDS if bad == 0 else EXIT_FAILS


def cmd_search(args) -> int:
    a = fmt.load_matrix(_read(args.matrix))
    dims = tuple(int(x) for x in args.dims.split(","))
    req = SearchRequest(
        mode=args.mode,
        ell=args.ell,
        n=args.n,
        dims=dims,
        target=args.target,
        seed=args.seed,
        count=args.count,
        max_candidates=args.search_cap,
        budget=_budget(args),
    )
    try:
        hits = search_mp_codes(a, req)
    except InfeasibleSearchError as exc:
        print(f"infeasible: {exc}")
        return EXIT_INFEASIBLE
    for idx, hit in enumerate(hits, start=1):
        big = hit.expansion
        print(f"candidate {idx}: [{big.n},{big.k},{hit.distance}] attempt {hit.attempt}")
        text = fmt.dump_mp(hit.mp)
        if args.out:
            path = f"{args.out}{idx}.mp"
            _write(path, text)
            print(f"file: {path}")
        else:
            sys.stdout.write(text)
    if not hits:
        print("no candidate found within the search cap")
        return EXIT_NO_CANDIDATE
    return EXIT_HOLDS


# ----------------------------------------------------------------------
# wiring
# ----------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, *, ell=True, caps=True, out=True):
    if ell:
        p.add_argument("--ell", type=int, default=0, help="Galois level (0 = Euclidean)")
    if caps:
        p.add_argument("--enum-cap", dest="enum_cap", type=int,
                       default=DistanceBudget.enum_cap,
                       help="max q^k for which the distance enumeration runs "
                            "without a cap (strategy enum)")
        p.add_argument("--lw-cap", dest="lw_cap", type=int,
                       default=DistanceBudget.lw_cap,
                       help="above --enum-cap: max codewords the information-set "
                            "enumeration lists before settling for bounds")
    p.add_argument("--machine", action="store_true",
                   help="machine-readable one-fact-per-line output")
    if out:
        p.add_argument("--out", default=None, help="output file path")


@functools.cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mpcodes", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="parameters of a code file")
    p.add_argument("codefile")
    _add_common(p, ell=False, out=False)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("mp", help="expand an MP description")
    p.add_argument("mpfile")
    _add_common(p, ell=False)
    p.set_defaults(func=cmd_mp)

    p = sub.add_parser("dual", help="l-Galois dual of an MP description")
    p.add_argument("mpfile")
    _add_common(p)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("check", help="self-orthogonality / dual-containment check")
    p.add_argument("mpfile")
    p.add_argument("--mode", choices=("so", "dc"), required=True)
    _add_common(p, caps=False, out=False)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="cross-check against the brute-force oracle")
    p.add_argument("mpfile")
    p.add_argument("--oracle-cap", dest="oracle_cap", type=int,
                   default=oracle.DEFAULT_CAP,
                   help="max codewords the oracle may enumerate, and max "
                        "work q^(n+k) of its ambient dual scan (q^n candidates "
                        "times q^k codewords)")
    _add_common(p, caps=False, out=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="search constituents meeting a check")
    p.add_argument("--matrix", required=True, help="defining matrix file")
    p.add_argument("--mode", choices=("so", "dc"), required=True)
    p.add_argument("--n", type=int, required=True, help="constituent length")
    p.add_argument("--dims", required=True,
                   help="comma-separated constituent dimensions")
    p.add_argument("--target", type=int, default=None,
                   help="required exact minimum distance of the expansion")
    p.add_argument("--count", type=int, default=1, help="hits to emit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--search-cap", dest="search_cap", type=int, default=2000,
                   help="max candidate constructions")
    _add_common(p)
    p.set_defaults(func=cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if "enum_cap" in vars(args):  # check the distance caps before any work
            _budget(args)
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except fmt.ParseError as exc:  # a ValueError, so caught first
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # validation, rank-deficiency, undefined distance
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # internal errors still honour the >=10 contract
        print(f"internal error: {exc}", file=sys.stderr)
        return 20


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())

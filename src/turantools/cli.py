"""Command-line front end.

Subcommands: count, oracle, construct, mup, game, verify.  Exit codes:
0 success, 1 usage error, 2 budget exceeded / unsolved, 3 verification
failure.  With --json every invocation emits exactly one JSON document.
"""

from __future__ import annotations

import argparse
import json
import sys

from turantools.constructions import (
    build_klikk,
    build_star_k,
    build_triangle_k,
    build_unique_kab,
)
from turantools.counting import count_copies, count_family
from turantools.errors import AdversaryError, UnsolvedError
from turantools.families import parse_family
from turantools.game import solve_L, solve_x, solve_x_prime, sweep_patterns
from turantools.graphs import decode_graph6
from turantools.oracle import (
    UNRESTRICTED_ORDER_CAP,
    ex_oracle,
    exa_oracle,
    exa_prime_oracle,
    exa_set_oracle,
    zeta,
)
from turantools.partitions import (
    PartitionPair,
    is_unique_partition,
    mup,
    mup_series_check,
)
from turantools.verify import SUITES, run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNSOLVED = 2
EXIT_VERIFY_FAILED = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _emit(doc: dict, as_json: bool, text_lines: list[str]) -> None:
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _budget(text: str) -> float:
    # one comparison refuses both negatives and NaN; inf means no limit
    budget = float(text)
    if not budget >= 0:
        raise argparse.ArgumentTypeError(f"budget must be >= 0 seconds, got {text}")
    return budget


def _parse_parts(text: str) -> PartitionPair:
    left, _, right = text.partition("/")
    if not right:
        raise _UsageError("partition pair must look like 1,1/2")
    return PartitionPair(
        tuple(int(x) for x in left.split(",")),
        tuple(int(x) for x in right.split(",")),
    )


def _cmd_count(args) -> int:
    host = decode_graph6(args.host)
    if args.pattern:
        value = count_copies(host, decode_graph6(args.pattern))
    else:
        value = count_family(host, parse_family(args.family))
    _emit({"count": value}, args.json, [str(value)])
    return EXIT_OK


def _cmd_oracle(args) -> int:
    kw = {"budget": args.budget, "allow_large": args.allow_large}
    fam = parse_family(args.family)
    if args.mode == "ex":
        res = ex_oracle(args.n, fam, **kw)
    elif args.mode == "exa":
        res = exa_oracle(args.n, args.k, fam, **kw)
    elif args.mode == "set":
        counts = {int(x) for x in args.counts.split(",")}
        res = exa_set_oracle(args.n, counts, fam, **kw)
    else:
        res = exa_prime_oracle(args.n, fam, **kw)
    doc = res.to_json()
    value = res.value
    if value is None:  # no graph qualifies, or the budget ran out first
        value = "nonexistent" if res.complete else "unknown"
    lines = [
        f"value = {value}",
        f"witness = {doc['witness_graph6']}",
        f"explored = {res.explored}",
        f"complete = {res.complete}",
    ]
    _emit(doc, args.json, lines)
    return EXIT_OK if res.complete else EXIT_UNSOLVED


def _cmd_zeta(args) -> int:
    value = zeta(decode_graph6(args.pattern))
    _emit({"value": value}, args.json, [f"zeta = {value}"])
    return EXIT_OK


def _build_kab(args):
    if args.parts:
        pp = _parse_parts(args.parts)
    else:
        pp = mup(args.a, args.b).witness
        if pp is None:
            raise _UsageError("no unique-partition witness exists for (1,1)")
    return build_unique_kab(args.a, args.b, pp)


def _cmd_construct(args) -> int:
    rep = args.build(args)
    doc = rep.to_json()
    lines = [
        doc["graph6"],
        f"edges = {rep.actual_edges} (expected {rep.expected_edges})",
        f"copies = {rep.actual_copies} (expected {rep.expected_copies})",
        f"ok = {rep.ok}",
    ]
    _emit(doc, args.json, lines)
    return EXIT_OK if rep.ok else EXIT_VERIFY_FAILED


def _cmd_mup(args) -> int:
    if args.series:
        if args.a is not None or args.b is not None:
            raise _UsageError("--series takes no --a / --b")
        if args.c is None:
            raise _UsageError("--series needs --c")
        rep = mup_series_check(args.c, 30 if args.n_max is None else args.n_max)
        lines = [
            "n,c,mup,witness,delta_vs_formula",
        ]
        lines += [
            f"{r['n']},{r['c']},{r['mup']},{r['witness']},{r['delta_vs_formula']}"
            for r in rep["rows"]
        ]
        lines.append(f"divisor_property_all = {rep['divisor_property_all']}")
        lines.append(f"step_holds_beyond_n = {rep['last_step_failure']}")
        _emit(rep, args.json, lines)
        return EXIT_OK
    if args.c is not None or args.n_max is not None:
        raise _UsageError("--c and --n-max need --series")
    if args.a is None or args.b is None:
        raise _UsageError("mup needs --a and --b (or --series)")
    if args.check:
        pp = _parse_parts(args.check)
        unique = is_unique_partition(args.a, args.b, pp)
        _emit(
            {"a": args.a, "b": args.b, "pair": str(pp), "unique": unique},
            args.json,
            [f"unique = {str(unique).lower()}"],
        )
        return EXIT_OK
    res = mup(args.a, args.b)
    doc = {"a": args.a, "b": args.b, **res.to_json()}
    _emit(
        doc,
        args.json,
        [f"mup({args.a},{args.b}) = {res.value}", f"witness = {res.witness}"],
    )
    return EXIT_OK


def _cmd_game(args) -> int:
    res = args.solve(args.n, parse_family(args.family), budget=args.budget)
    doc = res.to_json()
    lines = [
        f"value = {res.value if res.value is not None else 'unsolved'}",
        f"first_moves = {doc['first_moves']}",
        f"states_explored = {res.states_explored}",
    ]
    _emit(doc, args.json, lines)
    return EXIT_OK if res.complete else EXIT_UNSOLVED


def _cmd_sweep(args) -> int:
    rep = sweep_patterns(args.n, args.max_pattern_order)
    lines = [
        f"{r['pattern_graph6']}: x={r['x']} gap_x={r['gap_x']} "
        f"xprime={r['xprime']} gap_xprime={r['gap_xprime']}"
        for r in rep["rows"]
    ]
    lines.append(f"strict_gap_x_found = {rep['strict_gap_x_found']}")
    lines.append(f"strict_gap_xprime_found = {rep['strict_gap_xprime_found']}")
    _emit(rep, args.json, lines)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.suite == "all" and args.n_max is not None:
        raise _UsageError("--n-max needs a single suite, not all")
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    reports = []
    for name in names:
        reports.append(run_suite(name, n_max=args.n_max))
    doc = {"suites": reports, "ok": all(r["ok"] for r in reports)}
    lines = [
        f"{r['suite']}: {'PASS' if r['ok'] else 'FAIL'}" for r in reports
    ]
    lines.append("ok = " + str(doc["ok"]))
    _emit(doc, args.json, lines)
    return EXIT_OK if doc["ok"] else EXIT_VERIFY_FAILED


def _build_parser() -> _Parser:
    p = _Parser(prog="turantools", description=__doc__)
    p.add_argument("--json", action="store_true", help="emit one JSON document")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("count", help="count pattern copies in a host graph")
    c.add_argument("--host", required=True, help="host graph, graph6")
    what = c.add_mutually_exclusive_group(required=True)
    what.add_argument("--pattern", help="pattern graph, graph6")
    what.add_argument("--family", help="family spec instead of a single pattern")
    c.set_defaults(run=_cmd_count)

    o = sub.add_parser("oracle", help="exhaustive extremal searches")
    modes = o.add_subparsers(dest="mode", required=True)
    for mode in ("ex", "exa", "set", "prime"):
        s = modes.add_parser(mode)
        s.add_argument("--n", type=int, required=True, help="ambient order")
        s.add_argument("--family", required=True, help="family spec")
        s.add_argument(
            "--allow-large", action="store_true", help=f"lift the n<={UNRESTRICTED_ORDER_CAP} guard"
        )
        s.add_argument("--budget", type=_budget, help="search budget, seconds")
        s.set_defaults(run=_cmd_oracle)
    modes.choices["exa"].add_argument("--k", type=int, required=True, help="copy count")
    modes.choices["set"].add_argument(
        "--counts", required=True, help="comma-separated allowed counts"
    )
    z = modes.add_parser("zeta")
    z.add_argument("--pattern", required=True, help="pattern graph6")
    z.set_defaults(run=_cmd_zeta)

    b = sub.add_parser("construct", help="explicit extremal constructions")
    names = b.add_subparsers(dest="name", required=True)
    for name, flags, build in (
        ("klikk", "nr", lambda a: build_klikk(a.n, a.r)),
        ("triangle", "nk", lambda a: build_triangle_k(a.n, a.k)),
        ("star", "nrk", lambda a: build_star_k(a.n, a.r, a.k)),
        ("kab", "ab", _build_kab),
    ):
        s = names.add_parser(name)
        for flag in flags:
            s.add_argument(f"--{flag}", type=int, required=True)
        s.set_defaults(run=_cmd_construct, build=build)
    names.choices["kab"].add_argument("--parts", help="partition pair A1,..,Aa/B1,..,Bb")

    m = sub.add_parser("mup", help="unique-partition maximum")
    m.add_argument("--a", type=int)
    m.add_argument("--b", type=int)
    path = m.add_mutually_exclusive_group()
    path.add_argument("--check", help="partition pair to test for uniqueness")
    path.add_argument("--series", action="store_true", help="tabulate mup(n, c)")
    m.add_argument("--c", type=int, help="fixed small target for --series")
    m.add_argument("--n-max", type=int, help="series upper bound (default 30)")
    m.set_defaults(run=_cmd_mup)

    g = sub.add_parser("game", help="edge-query game values")
    modes = g.add_subparsers(dest="mode", required=True)
    for mode, solve in (("L", solve_L), ("x", solve_x), ("xprime", solve_x_prime)):
        s = modes.add_parser(mode)
        s.add_argument("--n", type=int, required=True)
        s.add_argument("--family", required=True, help="family spec")
        s.add_argument("--budget", type=_budget, help="solver budget, seconds")
        s.set_defaults(run=_cmd_game, solve=solve)
    s = modes.add_parser("sweep")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--max-pattern-order", type=int, default=4)
    s.set_defaults(run=_cmd_sweep)

    v = sub.add_parser("verify", help="named verification suites")
    v.add_argument("--suite", required=True, help="|".join(sorted(SUITES)) + "|all")
    v.add_argument("--n-max", type=int, help="size bound (single sized suites only)")
    v.set_defaults(run=_cmd_verify)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnsolvedError as exc:
        print(f"unsolved: {exc}", file=sys.stderr)
        return EXIT_UNSOLVED
    except (AssertionError, AdversaryError) as exc:
        # a witness failed its independent re-check, or a game went inconsistent
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())

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


def _build_parser() -> _Parser:
    p = _Parser(prog="turantools", description=__doc__)
    p.add_argument("--json", action="store_true", help="emit one JSON document")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("count", help="count pattern copies in a host graph")
    c.add_argument("--host", required=True, help="host graph, graph6")
    c.add_argument("--pattern", help="pattern graph, graph6")
    c.add_argument("--family", help="family spec instead of a single pattern")

    o = sub.add_parser("oracle", help="exhaustive extremal searches")
    o.add_argument("mode", choices=["ex", "exa", "set", "prime", "zeta"])
    o.add_argument("--n", type=int, help="ambient order")
    o.add_argument("--k", type=int, help="target copy count (exa)")
    o.add_argument("--counts", help="comma-separated allowed counts (set)")
    o.add_argument("--family", help="family spec")
    o.add_argument("--pattern", help="pattern graph6 (zeta)")
    o.add_argument("--allow-large", action="store_true", help="lift the n<=8 guard")
    o.add_argument("--budget", type=float, help="search budget, seconds (not zeta)")

    b = sub.add_parser("construct", help="explicit extremal constructions")
    b.add_argument("name", choices=["klikk", "triangle", "star", "kab"])
    b.add_argument("--n", type=int)
    b.add_argument("--r", type=int)
    b.add_argument("--k", type=int)
    b.add_argument("--a", type=int)
    b.add_argument("--b", type=int)
    b.add_argument("--parts", help="partition pair A1,..,Aa/B1,..,Bb (kab)")

    m = sub.add_parser("mup", help="unique-partition maximum")
    m.add_argument("--a", type=int)
    m.add_argument("--b", type=int)
    m.add_argument("--check", help="partition pair to test for uniqueness")
    m.add_argument("--series", action="store_true", help="tabulate mup(n, c)")
    m.add_argument("--c", type=int, help="fixed small target for --series")
    m.add_argument("--n-max", type=int, default=30, help="series upper bound")

    g = sub.add_parser("game", help="edge-query game values")
    g.add_argument("mode", choices=["L", "x", "xprime", "sweep"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--family", help="family spec")
    g.add_argument("--max-pattern-order", type=int, default=4)

    v = sub.add_parser("verify", help="named verification suites")
    v.add_argument("--suite", required=True, help="|".join(sorted(SUITES)) + "|all")
    v.add_argument("--n-max", type=int, help="size bound (single sized suites only)")
    v.add_argument("--jobs", type=int, default=1, help="worker processes for sweeps")
    return p


def _emit(doc: dict, as_json: bool, text_lines: list[str]) -> None:
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


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
    if bool(args.pattern) == bool(args.family):
        raise _UsageError("give exactly one of --pattern / --family")
    if args.pattern:
        value = count_copies(host, decode_graph6(args.pattern))
    else:
        value = count_family(host, parse_family(args.family))
    _emit({"count": value}, args.json, [str(value)])
    return EXIT_OK


def _cmd_oracle(args) -> int:
    kw = {"budget": args.budget, "allow_large": args.allow_large}
    if args.mode == "zeta":
        if not args.pattern:
            raise _UsageError("zeta needs --pattern")
        if args.budget is not None:
            raise _UsageError("zeta takes no --budget")
        value = zeta(decode_graph6(args.pattern))
        _emit({"value": value}, args.json, [f"zeta = {value}"])
        return EXIT_OK
    if args.n is None or not args.family:
        raise _UsageError("oracle needs --n and --family")
    fam = parse_family(args.family)
    if args.mode == "ex":
        res = ex_oracle(args.n, fam, **kw)
    elif args.mode == "exa":
        if args.k is None:
            raise _UsageError("exa needs --k")
        res = exa_oracle(args.n, args.k, fam, **kw)
    elif args.mode == "set":
        if not args.counts:
            raise _UsageError("set needs --counts")
        counts = {int(x) for x in args.counts.split(",")}
        res = exa_set_oracle(args.n, counts, fam, **kw)
    else:
        res = exa_prime_oracle(args.n, fam, **kw)
    doc = res.to_json()
    lines = [
        f"value = {res.value if res.value is not None else 'nonexistent'}",
        f"witness = {doc['witness_graph6']}",
        f"explored = {res.explored}",
        f"complete = {res.complete}",
    ]
    _emit(doc, args.json, lines)
    return EXIT_OK if res.complete else EXIT_UNSOLVED


def _cmd_construct(args) -> int:
    if args.name == "klikk":
        if args.n is None or args.r is None:
            raise _UsageError("klikk needs --n and --r")
        rep = build_klikk(args.n, args.r)
    elif args.name == "triangle":
        if args.n is None or args.k is None:
            raise _UsageError("triangle needs --n and --k")
        rep = build_triangle_k(args.n, args.k)
    elif args.name == "star":
        if None in (args.n, args.r, args.k):
            raise _UsageError("star needs --n, --r and --k")
        rep = build_star_k(args.n, args.r, args.k)
    else:
        if args.a is None or args.b is None:
            raise _UsageError("kab needs --a and --b")
        if args.parts:
            pp = _parse_parts(args.parts)
        else:
            pp = mup(args.a, args.b).witness
            if pp is None:
                raise _UsageError("no unique-partition witness exists for (1,1)")
        rep = build_unique_kab(args.a, args.b, pp)
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
        if args.c is None:
            raise _UsageError("--series needs --c")
        rep = mup_series_check(args.c, args.n_max)
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
    if args.mode == "sweep":
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
    if not args.family:
        raise _UsageError("game needs --family")
    fam = parse_family(args.family)
    solver = {"L": solve_L, "x": solve_x, "xprime": solve_x_prime}[args.mode]
    res = solver(args.n, fam)
    doc = res.to_json()
    lines = [
        f"value = {res.value if res.value is not None else 'unsolved'}",
        f"first_moves = {doc['first_moves']}",
        f"states_explored = {res.states_explored}",
    ]
    _emit(doc, args.json, lines)
    return EXIT_OK if res.complete else EXIT_UNSOLVED


def _cmd_verify(args) -> int:
    if args.suite == "all" and args.n_max is not None:
        raise _UsageError("--n-max needs a single suite, not all")
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    reports = []
    for name in names:
        reports.append(run_suite(name, n_max=args.n_max, jobs=args.jobs))
    doc = {"suites": reports, "ok": all(r["ok"] for r in reports)}
    lines = [
        f"{r['suite']}: {'PASS' if r['ok'] else 'FAIL'}" for r in reports
    ]
    lines.append("ok = " + str(doc["ok"]))
    _emit(doc, args.json, lines)
    return EXIT_OK if doc["ok"] else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "count": _cmd_count,
            "oracle": _cmd_oracle,
            "construct": _cmd_construct,
            "mup": _cmd_mup,
            "game": _cmd_game,
            "verify": _cmd_verify,
        }[args.command]
        return handler(args)
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

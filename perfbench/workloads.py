"""Instance tables, timed calls and answer checks of the three benchmark workloads.

Only the pass process (pass_.py) imports this module, with the checkout's
`src` on its path.  Each case makes its public turantools calls inside tracer
spans; its answer is checked afterwards, outside the timed loop, against a
closed form from the paper or a value pinned from turantools 0.1.0.  Every
returned witness is re-counted here with `count_copies`, independently of the
oracle's own re-verification.
"""

from __future__ import annotations

import random
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from math import comb
from typing import Any, Callable

from turantools import (
    GraphFamily,
    PartitionPair,
    adversary_no_first,
    build_klikk,
    build_star_k,
    build_triangle_k,
    build_unique_kab,
    check_bipartite,
    count_copies,
    ex_oracle,
    exa_oracle,
    exa_prime_oracle,
    exa_set_oracle,
    is_unique_partition,
    mup,
    mup_series_check,
    questioner_extremal_strategy,
    simulate,
    smallest_nondivisor,
    solve_L,
    solve_x,
    solve_x_prime,
    zeta,
)
from turantools.counting import all_pattern_classes
from turantools.game import solver_questioner, strategy_worst_case
from turantools.graphs import complete_bipartite, complete_graph, star_graph
from turantools.oracle import triangle_free_nonbipartite_oracle


class Tracer:
    """In-memory spans: name, start, end, the case that caused it, attributes.

    With tracing off, `span` records nothing and `on` tells a case to skip
    the extra calls that exist only to time a layer separately.
    """

    def __init__(self, on: bool):
        self.on = on
        self.case: str | None = None
        self.spans: list[dict] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.on:
            yield attrs
            return
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self.spans.append(
                {"name": name, "case": self.case,
                 "start": start - self._t0, "end": end - self._t0, **attrs}
            )


@dataclass(frozen=True)
class Case:
    key: str
    run: Callable[[Tracer], Any]  # the timed public calls
    check: Callable[[Any, Any, Tracer], list[str]]  # (answer, expected) -> problems
    expected: Any


def _placements(tr: Tracer, n: int, fam: GraphFamily) -> None:
    """Time placement generation apart from the call that repeats it inside."""
    if tr.on:
        with tr.span("families.placements") as a:
            a["count"] = len(fam.placements(n))


def _recount(tr: Tracer, host, pattern) -> int:
    with tr.span("counting.count_copies"):
        return count_copies(host, pattern)


# -- closed forms ----------------------------------------------------------------


def turan(n: int, r: int) -> int:
    """Edges of the balanced complete r-partite graph on n vertices."""
    q, s = divmod(n, r)
    sizes = [q + 1] * s + [q] * (r - s)
    return (n * n - sum(x * x for x in sizes)) // 2


def klikk(n: int, r: int) -> int:
    """Most edges with exactly one K_r."""
    return comb(r, 2) + (r - 2) * (n - r) + turan(n - r, r - 1)


def triangles(n: int, k: int) -> int:
    """Most edges with exactly k triangles, for small k."""
    return (n - 1) ** 2 // 4 + k + 1


# -- extremal ------------------------------------------------------------------------

_ORACLES = {
    "ex": lambda n, fam, allowed: ex_oracle(n, fam),
    "exa": lambda n, fam, allowed: exa_oracle(n, min(allowed), fam),
    "set": lambda n, fam, allowed: exa_set_oracle(n, allowed, fam),
    "prime": lambda n, fam, allowed: exa_prime_oracle(n, fam),
    "nonbip": lambda n, fam, allowed: triangle_free_nonbipartite_oracle(n),
}


def _oracle_case(kind: str, n: int, spec: str, allowed: set[int], expected: int) -> Case:
    fam = GraphFamily(spec)

    def run(tr: Tracer):
        _placements(tr, n, fam)
        with tr.span("oracle." + kind) as a:
            res = _ORACLES[kind](n, fam, allowed)
            a["explored"] = res.explored
        return res

    def check(res, want, tr: Tracer) -> list[str]:
        if not res.complete:
            return ["search did not complete"]
        problems = [] if res.value == want else [f"value {res.value} != {want}"]
        w = res.witness
        if w is None:
            return problems + ["no witness"]
        if kind == "prime":
            if w.edge_count() - res.member.edge_count() != res.value:
                problems.append("witness edges minus member edges != value")
            for m in fam.members(n):
                if _recount(tr, w, m) != (1 if m == res.member else 0):
                    problems.append("witness does not hold exactly one member copy")
        else:
            if w.edge_count() != res.value:
                problems.append("witness edge count != value")
            total = sum(_recount(tr, w, m) for m in fam.members(n))
            if total not in allowed:
                problems.append(f"witness has {total} copies, allowed {sorted(allowed)}")
            if kind == "nonbip" and check_bipartite(w):
                problems.append("witness is bipartite")
        return problems

    counts = ",".join(map(str, sorted(allowed)))
    return Case(f"{kind}({n},{spec},{{{counts}}})", run, check, expected)


def extremal_cases(tiny: bool) -> list[Case]:
    orders = (6,) if tiny else (6, 7)
    cases = []
    for n in orders:
        for r in (3, 4, 5):
            cases.append(_oracle_case("ex", n, f"clique:{r}", {0}, turan(n, r - 1)))
        for k in (1, 2, 3):
            cases.append(_oracle_case("exa", n, "clique:3", {k}, triangles(n, k)))
        cases.append(_oracle_case("exa", n, "clique:4", {1}, klikk(n, 4)))
    cases.append(_oracle_case("exa", 6, "perfmatching", {1}, 6 * 6 // 4))  # Hetyei
    # exa' of small unions: no closed form, values pinned from turantools 0.1.0
    cases.append(_oracle_case("prime", 6, "matching:4+clique:3", {1}, 1))
    if tiny:
        return cases
    cases += [
        _oracle_case("exa", 7, "hamcycle", {1}, 7 * 7 // 4 + 1),  # Sheehan
        # a connected graph with exactly one spanning tree is that tree
        _oracle_case("exa", 6, "trees", {1}, 6 - 1),
        _oracle_case("set", 7, "clique:3", {0, 3}, max(turan(7, 2), triangles(7, 3))),
        _oracle_case("nonbip", 7, "clique:3", {0}, (7 - 1) ** 2 // 4 + 1),  # Brouwer
        _oracle_case("prime", 6, "star+clique:3", {1}, 5),
        _oracle_case("prime", 6, "hamcycle+clique:3", {1}, 5),
    ]
    return cases


# -- game ------------------------------------------------------------------------------

_SOLVERS = {"L": solve_L, "x": solve_x, "xprime": solve_x_prime}

# (n, family, values pinned from turantools 0.1.0).  At n = 6 the solver's
# vertex-symmetry reduction is on; at n = 5 it is off.
_GAMES = [
    (6, "clique:3", {"L": 7}),
    (6, "clique:4", {"L": 5, "x": 4, "xprime": 10}),
    (6, "perfmatching", {"L": 6}),
    (5, "trees", {"L": 9, "x": 6, "xprime": 10}),
    (5, "trees+clique:4", {"L": 9, "x": 6, "xprime": 10}),
    (5, "hamcycle", {"L": 4, "x": 3, "xprime": 8}),
]

# solver questioner against the NO-first adversary: (n, family, cost, game
# value bounding the replay, pinned (total queries, NO answers))
_REPLAYS = [
    (5, "trees", "L", 9, (6, 6)),
    (5, "hamcycle", "x", 3, (3, 3)),
]


def _game_case(n: int, spec: str, pinned: dict[str, int]) -> Case:
    fam = GraphFamily(spec)

    def run(tr: Tracer) -> dict:
        _placements(tr, n, fam)
        out = {}
        for cost in pinned:
            with tr.span("game.solve", sym=n >= 6) as a:
                gv = _SOLVERS[cost](n, fam)
                a["states"] = gv.states_explored
            out[cost] = gv
        return out

    def check(got: dict, want: dict, tr: Tracer) -> list[str]:
        problems = [f"{c} did not complete" for c, gv in got.items() if not gv.complete]
        values = {c: gv.value for c, gv in got.items()}
        if values != want:
            problems.append(f"values {values} != {want}")
        if "x" in values and not values["x"] <= values["L"] <= values["xprime"]:
            problems.append("chain x <= L <= x' broken")
        # each answer at best halves the consistent placements
        if 1 << values["L"] < len(fam.placements(n)):
            problems.append("L below the information bound")
        return problems

    return Case(f"game({n},{spec},{'/'.join(pinned)})", run, check, pinned)


def _replay_case(n: int, spec: str, cost: str, bound: int, pinned: tuple[int, int]) -> Case:
    fam = GraphFamily(spec)

    def run(tr: Tracer):
        with tr.span("game.replay") as a:
            tr_ = simulate(n, fam, solver_questioner(n, fam, cost), adversary_no_first)
            a["queries"] = tr_.total
        return tr_

    def check(tr_, want, tr: Tracer) -> list[str]:
        problems = []
        if (tr_.total, tr_.no_count) != want:
            problems.append(f"(total, no) {(tr_.total, tr_.no_count)} != {want}")
        spent = tr_.total if cost == "L" else tr_.no_count
        if spent > bound:
            problems.append(f"optimal questioner spent {spent} > game value {bound}")
        return problems

    return Case(f"replay({n},{spec},{cost})", run, check, pinned)


def _klikk_questioner_case() -> Case:
    n, fam = 5, GraphFamily("clique:3")

    def run(tr: Tracer):
        with tr.span("game.replay") as a:
            g_ext = build_klikk(n, 3).graph
            strat = questioner_extremal_strategy(n, complete_graph(3), g_ext)
            tr_ = simulate(n, fam, strat, adversary_no_first)
            worst = strategy_worst_case(n, fam, strat)
            a["queries"] = tr_.total
        return tr_.total, worst, comb(n, 2) - g_ext.edge_count()

    def check(got, want, tr: Tracer) -> list[str]:
        total, worst, non_edges = got
        problems = []
        if total != non_edges:
            problems.append(f"NO-first replay asked {total}, not the {non_edges} non-edges")
        if worst != want:
            problems.append(f"worst case {worst} != {want}")
        if worst > comb(n, 2):
            problems.append("worst case exceeds all pairs")
        return problems

    return Case("replay(5,clique:3,klikk)", run, check, 5)


def game_cases(tiny: bool) -> list[Case]:
    games = [g for g in _GAMES if g[1] == "hamcycle"] if tiny else _GAMES
    replays = [r for r in _REPLAYS if r[1] == "hamcycle"] if tiny else _REPLAYS
    return (
        [_game_case(*g) for g in games]
        + [_replay_case(*r) for r in replays]
        + [_klikk_questioner_case()]
    )


# -- partitions --------------------------------------------------------------------------

# mup(a, b) for 1 <= a <= b <= 10, pinned from turantools 0.1.0; row b holds a = 1..b
_MUP = {
    (a, b): v
    for b, row in enumerate(
        [
            [2],
            [2, 3],
            [2, 3, 4],
            [3, 3, 4, 5],
            [3, 3, 4, 5, 6],
            [4, 4, 4, 5, 6, 7],
            [4, 4, 4, 5, 6, 7, 8],
            [5, 4, 5, 5, 6, 7, 8, 9],
            [5, 5, 5, 5, 6, 7, 8, 9, 10],
            [6, 5, 6, 6, 6, 7, 8, 9, 10, 11],
        ],
        start=1,
    )
    for a, v in enumerate(row, start=1)
}

# mup(n, c) for c < n <= 30, pinned from turantools 0.1.0
_SERIES = {
    1: [2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
        13, 14, 14, 15, 15, 16],
    2: [3, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 7, 8, 8, 8, 9, 9, 9, 10, 10, 10,
        11, 11, 11, 12],
    3: [4, 4, 4, 4, 5, 5, 6, 5, 7, 6, 8, 7, 9, 8, 10, 9, 11, 10, 12, 11, 13, 12, 14,
        13, 15, 14, 16],
    4: [5, 5, 5, 5, 5, 6, 6, 6, 6, 6, 7, 7, 7, 8, 7, 8, 9, 8, 9, 10, 9, 10, 11, 10,
        11, 12],
}

# zeta over all_pattern_classes(5), in its order, pinned from turantools 0.1.0
_ZETA = [0, 0, 1, 0, 2, 0, 1, 2, 2, 2, 0, 3, 1, 1, 1, 3, 2, 1, 1, 2, 3, 2, 2, 3, 2,
         1, 3, 2, 2, 2, 3, 3, 3]

# the paper's worked examples: (A, B, parts of A, parts of B, unique?)
_WORKED = [
    (6, 53, (3, 3), (13, 13, 13, 13, 1), True),
    (6, 53, (3, 3), (50, 3), False),
    (6, 6, (3, 3), (2, 2, 2), True),
    (6, 6, (3, 3), (3, 3), False),
]


def _witness_problems(pp: PartitionPair | None, a: int, b: int, total: int) -> list[str]:
    if pp is None:
        return ["no witness"]
    if (pp.sum_a(), pp.sum_b()) != (a, b):
        return [f"witness {pp} does not partition ({a}, {b})"]
    if pp.total_parts() != total:
        return [f"witness {pp} has {pp.total_parts()} parts, not {total}"]
    return []


def _mup_case(a: int, b: int) -> Case:
    def run(tr: Tracer):
        with tr.span("partitions.mup"):
            return mup(a, b)

    def check(res, want, tr: Tracer) -> list[str]:
        problems = [] if res.value == want else [f"mup {res.value} != {want}"]
        if (a, b) == (1, 1):  # 2 by definition, with no witness
            return problems
        if not a + 1 <= res.value <= a + b:
            problems.append("outside a+1 <= mup <= a+b")
        return problems + _witness_problems(res.witness, a, b, res.value)

    return Case(f"mup({a},{b})", run, check, _MUP[a, b])


def _series_case(c: int, n_max: int) -> Case:
    def run(tr: Tracer):
        with tr.span("partitions.series"):
            return mup_series_check(c, n_max)

    def check(rep, want, tr: Tracer) -> list[str]:
        rows = rep["rows"]
        got = [r["mup"] for r in rows]
        problems = [] if got == want else [f"mup series {got} != {want}"]
        for r in rows:
            a_text, b_text = r["witness"].split("/")
            pp = PartitionPair(
                tuple(map(int, a_text.split(","))), tuple(map(int, b_text.split(",")))
            )
            problems += _witness_problems(pp, r["n"], c, r["mup"])
            parts = pp.parts_a + pp.parts_b
            divisors = [d for d in range(1, c + 1) if c % d == 0]
            if r["divisor_ok"] != all(parts.count(d) <= c // d for d in divisors):
                problems.append(f"divisor flag wrong at n={r['n']}")
        if not rep["divisor_property_all"]:
            problems.append("divisor property fails")
        nu = smallest_nondivisor(c)
        values = {r["n"]: r["mup"] for r in rows}
        bad = [n for n in values if n + nu in values and values[n + nu] - values[n] != 1]
        if rep["last_step_failure"] != max(bad, default=0):
            problems.append("last_step_failure disagrees with the rows")
        return problems

    return Case(f"series(c={c},n<={n_max})", run, check, _SERIES[c][: n_max - c])


def _worked_case(a: int, b: int, pa, pb, unique: bool) -> Case:
    def run(tr: Tracer):
        with tr.span("partitions.is_unique"):
            return is_unique_partition(a, b, PartitionPair(pa, pb))

    def check(got, want, tr: Tracer) -> list[str]:
        return [] if got == want else [f"is_unique {got} != {want}"]

    return Case(f"is_unique({a},{b},{pa}/{pb})", run, check, unique)


def _built(tr: Tracer, build, *args):
    with tr.span("constructions.build"):
        return build(*args)


def _build_case(key: str, run, pattern, edges: int, copies: int) -> Case:
    def check(rep, want, tr: Tracer) -> list[str]:
        problems = [] if rep.ok else ["contract report not ok"]
        got = (rep.graph.edge_count(), _recount(tr, rep.graph, pattern))
        if got != want:
            problems.append(f"(edges, copies) {got} != {want}")
        return problems

    return Case(key, run, check, (edges, copies))


def _kab_case(a: int, b: int) -> Case:
    def run(tr: Tracer):
        # the partition comes from the public mup, as a user would get it
        with tr.span("partitions.mup"):
            pp = mup(a, b).witness
        return _built(tr, build_unique_kab, a, b, pp)

    n = a + b
    return _build_case(
        f"kab({a},{b})", run, complete_bipartite(a, b), comb(n, 2) - n + _MUP[a, b], 1
    )


def _zeta_case(max_order: int) -> Case:
    def run(tr: Tracer):
        with tr.span("zeta"):
            classes = all_pattern_classes(max_order)
            return classes, [zeta(f) for f in classes]

    def check(got, want, tr: Tracer) -> list[str]:
        classes, values = got
        problems = [] if values == want else [f"zeta values {values} != {want}"]
        for f, z in zip(classes, values):
            if f.edge_count() == comb(f.n, 2) and z != f.n - 2:
                problems.append(f"zeta(K_{f.n}) = {z} != {f.n - 2}")
            if z < f.min_degree() - 1:
                problems.append("zeta below min degree - 1")
        return problems

    return Case(f"zeta(order<={max_order})", run, check, _ZETA)


def partition_cases(tiny: bool) -> list[Case]:
    top = 7 if tiny else 12
    cases = [_series_case(c, 12 if tiny else 30) for c in (1, 2, 3, 4)]
    cases += [_mup_case(a, b) for (a, b) in _MUP if b <= (5 if tiny else 10)]
    cases += [_worked_case(*w) for w in _WORKED]
    for n in range(3, top + 1):
        for r in range(3, min(n, 5) + 1):
            cases.append(_build_case(
                f"klikk({n},{r})", lambda tr, n=n, r=r: _built(tr, build_klikk, n, r),
                complete_graph(r), klikk(n, r), 1))
        large = (n - 1) - (n - 1) // 2
        for k in range(1, min(4, n - 2, large) + 1):
            cases.append(_build_case(
                f"triangle({n},{k})",
                lambda tr, n=n, k=k: _built(tr, build_triangle_k, n, k),
                complete_graph(3), triangles(n, k), k))
        for r in range(2, 6):
            if n % r:
                continue
            for k in range(0, 2 * (n // r // 2) + 1, 2):
                cases.append(_build_case(
                    f"star({n},{r},{k})",
                    lambda tr, n=n, r=r, k=k: _built(tr, build_star_k, n, r, k),
                    star_graph(r), n * (r - 1) // 2 + k // 2, k))
    kab_top = 5 if tiny else 8  # count_copies caps automorphisms at 10 vertices
    cases += [
        _kab_case(a, b)
        for a in range(1, kab_top // 2 + 1)
        for b in range(a, kab_top - a + 1)
        if (a, b) != (1, 1)
    ]
    cases.append(_zeta_case(5))
    return cases


TABLES = {
    "extremal": extremal_cases,
    "game": game_cases,
    "partitions": partition_cases,
}


def _wrong(value):
    """A wrong expected value: the first integer inside `value`, plus one."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, dict):
        first = next(iter(value))
        return {**value, first: _wrong(value[first])}
    return type(value)([_wrong(value[0]), *value[1:]])


class SpeedProbe:
    """Samples this CPU's speed while a block runs.

    The host's single-thread speed drifts by 10-25 % over tens of seconds.
    So every PERIOD of process CPU time a signal handler times a fixed piece
    of pure-Python work: integer arithmetic and lookups in a small dict.  It
    runs between bytecodes of the workload, on the same CPU.  `busy` is the
    handler time spent inside the block.
    """

    PERIOD = 0.03

    def __init__(self):
        self.samples: list[float] = []
        self.busy = 0.0
        self._table = {(i * 2654435761) & 0xFFFF: i for i in range(1 << 12)}

    def _sample(self) -> float:
        t = time.perf_counter()
        s = 0
        for i in range(2000):
            s += (i * i) & 0xFF
        x = 12345
        for _ in range(750):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            s += self._table.get(x & 0xFFFF, 0)
        dt = time.perf_counter() - t
        self.samples.append(dt)
        return dt

    def _handler(self, signum, frame) -> None:
        self.busy += self._sample()

    def __enter__(self) -> "SpeedProbe":
        self._sample()  # so that even a block shorter than PERIOD has one
        signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)


def run_pass(workload: str, seed: int, trace: bool, tiny: bool, plant: bool) -> dict:
    """Run one workload's table once, in an order drawn from `seed`.

    The lru caches of turantools make order matter, so the seed permutes it.
    Only the calls are timed, with a SpeedProbe running; the checks run
    afterwards.  `plant` gives the table's first case a wrong expected value,
    to test the gate itself.
    """
    cases = TABLES[workload](tiny)
    if plant:
        cases[0] = replace(cases[0], expected=_wrong(cases[0].expected))
    random.Random(seed).shuffle(cases)
    tr = Tracer(trace)
    answers: dict[str, Any] = {}
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        for case in cases:
            tr.case = case.key
            try:
                answers[case.key] = case.run(tr)
            except Exception as exc:  # a raising case is a failed instance
                answers[case.key] = exc
        wall_s = time.perf_counter() - t0
    failures = []
    for case in cases:
        tr.case = case.key
        got = answers[case.key]
        if isinstance(got, Exception):
            problems = [f"raised {got!r}"]
        else:
            try:
                problems = case.check(got, case.expected, tr)
            except Exception as exc:
                problems = [f"check raised {exc!r}"]
        if problems:
            failures.append(f"{case.key}: {'; '.join(problems)}")
    return {
        "wall_s": wall_s,
        "probe_busy_s": probe.busy,
        "probe_mean_s": sum(probe.samples) / len(probe.samples),
        "attempted": len(cases),
        "failed": len(failures),
        "failures": failures,
        "spans": tr.spans,
    }

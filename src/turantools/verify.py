"""Named verification suites: each checks computed values against their oracles.

Every check is one row, `{"check", <params>, "got", "want", "relation",
"holds"}`: `got relation want` at the point named by the params, where
`relation` is `==`, `>=` or `<=`, and `holds` is false when either side is
None.  The params name the point and any computed value `want` is built from.

A suite is a list of cases `(fn, *args)`, run in list order in this process;
each `fn` returns a list of entries.  Entries with a `holds` key are rows; the
others are report-only notes, kept under `report` and never read by `ok`.
Every suite returns `{"suite", "ok", "rows", "report"}` with
`ok = all(row["holds"])`, as a JSON-stable dict (no wall times, no floats).
`sweep_patterns`, behind `game sweep`, is one more such suite, sized by its
arguments rather than named in SUITES.
"""

from __future__ import annotations

import operator
from math import comb

from turantools.constructions import (
    ConstructionReport,
    build_klikk,
    build_triangle_k,
    build_unique_kab,
)
from turantools.counting import all_pattern_classes
from turantools.families import GraphFamily
from turantools.game import (
    adversary_no_first,
    questioner_extremal_strategy,
    simulate,
    solve_L,
    solve_x,
    solve_x_prime,
    solver_questioner,
    strategy_worst_case,
)
from turantools.graphs import (
    Graph,
    check_order,
    complete_graph,
    cycle_graph,
    encode_graph6,
    path_graph,
    star_graph,
    turan_graph,
)
from turantools.oracle import (
    ex_oracle,
    exa_oracle,
    exa_prime_oracle,
    triangle_free_nonbipartite_oracle,
    zeta,
)
from turantools.partitions import (
    PartitionPair,
    exa1_kab,
    is_unique_partition,
    mup,
    mup_series_check,
)

_RELATIONS = {"==": operator.eq, ">=": operator.ge, "<=": operator.le}


def _row(check: str, params: dict, got, want, relation: str = "==") -> dict:
    """One check, `got relation want` at `params`; it fails when a side is None."""
    holds = got is not None and want is not None and _RELATIONS[relation](got, want)
    return {
        "check": check,
        **params,
        "got": got,
        "want": want,
        "relation": relation,
        "holds": holds,
    }


def _note(check: str, **fields) -> dict:
    """A report-only entry: printed with the suite, never read by its `ok`."""
    return {"check": check, **fields}


def _suite(name: str, cases: list[tuple]) -> dict:
    entries = [e for fn, *args in cases for e in fn(*args)]
    rows = [e for e in entries if "holds" in e]
    return {
        "suite": name,
        "ok": all(r["holds"] for r in rows),
        "rows": rows,
        "report": [e for e in entries if "holds" not in e],
    }


def _build_rows(params: dict, rep: ConstructionReport) -> list[dict]:
    params = {**params, "graph6": encode_graph6(rep.graph)}
    return [
        _row("edges", params, rep.actual_edges, rep.expected_edges),
        _row("copies", params, rep.actual_copies, rep.expected_copies),
    ]


# -- suite: klikk --------------------------------------------------------------


def _klikk_build(n: int, r: int) -> list[dict]:
    return _build_rows({"n": n, "r": r}, build_klikk(n, r))


def _klikk_oracle(n: int, r: int) -> list[dict]:
    fam = GraphFamily(f"clique:{r}")
    formula = comb(r, 2) + (r - 2) * (n - r) + ex_oracle(n - r, fam).value
    return [_row("exa1", {"n": n, "r": r}, exa_oracle(n, 1, fam).value, formula)]


def suite_klikk(n_max: int = 12) -> dict:
    cases = [
        (_klikk_build, n, r)
        for n in range(3, n_max + 1)
        for r in range(3, min(n, 5) + 1)
    ]
    cases += [(_klikk_oracle, n, 3) for n in range(3, min(7, n_max) + 1)]
    cases += [(_klikk_oracle, n, 4) for n in range(4, min(6, n_max) + 1)]
    return _suite("klikk", cases)


# -- suite: triangle -----------------------------------------------------------


def _triangle_build(n: int, k: int) -> list[dict]:
    return _build_rows({"n": n, "k": k}, build_triangle_k(n, k))


def _triangle_oracle(n: int, k: int) -> list[dict]:
    got = exa_oracle(n, k, GraphFamily("clique:3")).value
    return [_row("exa_k", {"n": n, "k": k}, got, (n - 1) ** 2 // 4 + k + 1, ">=")]


def _triangle_k_fits(n: int, k: int) -> bool:
    return n >= k + 2 and k <= (n - 1) - (n - 1) // 2


def suite_triangle(n_max: int = 12) -> dict:
    cases = [
        (_triangle_build, n, k)
        for n in range(3, n_max + 1)
        for k in range(1, 5)
        if _triangle_k_fits(n, k)
    ]
    cases += [
        (_triangle_oracle, n, k)
        for n in range(4, min(7, n_max) + 1)
        for k in range(1, 4)
        if _triangle_k_fits(n, k)
    ]
    doc = _suite("triangle", cases)
    oracle = [r for r in doc["rows"] if r["check"] == "exa_k"]
    doc["report"].append(
        _note("formula_equality", everywhere=all(r["got"] == r["want"] for r in oracle))
    )
    return doc


# -- suite: classics -----------------------------------------------------------


def _classic(check: str, params: dict, got, want: int) -> list[dict]:
    witness = encode_graph6(got.witness) if got.witness else None
    return [_row(check, {**params, "witness_graph6": witness}, got.value, want)]


def _hetyei(n: int) -> list[dict]:
    got = exa_oracle(n, 1, GraphFamily("perfmatching"))
    return _classic("hetyei", {"n": n}, got, n * n // 4)


def _sheehan(n: int) -> list[dict]:
    got = exa_oracle(n, 1, GraphFamily("hamcycle"))
    return _classic("sheehan", {"n": n}, got, n * n // 4 + 1)


def _turan(n: int, r: int) -> list[dict]:
    got = ex_oracle(n, GraphFamily(f"clique:{r + 1}"))
    return _classic("turan", {"n": n, "r": r}, got, turan_graph(n, r).edge_count())


def _brouwer(n: int) -> list[dict]:
    got = triangle_free_nonbipartite_oracle(n)
    return _classic("brouwer", {"n": n}, got, (n - 1) ** 2 // 4 + 1)


def suite_classics(n_max: int = 8) -> dict:
    cases = [(_hetyei, 4), (_hetyei, 6), (_sheehan, 4), (_sheehan, 6)]
    cases += [
        (_turan, n, r) for n in range(2, n_max + 1) for r in range(1, min(n, 4) + 1)
    ]
    cases += [(_brouwer, n) for n in range(5, n_max + 1)]
    return _suite("classics", cases)


# -- suite: sandwich -----------------------------------------------------------

_SANDWICH_PATTERNS = {
    "K3": complete_graph(3),
    "K4": complete_graph(4),
    "C4": cycle_graph(4),
    "C5": cycle_graph(5),
}


def _sandwich_family(name: str) -> GraphFamily:
    return GraphFamily.explicit((_SANDWICH_PATTERNS[name],), label=name)


def _lower_want(n: int, k: int, v: int, ex_val: int) -> int:
    # n * exa >= (n - 2kv) * ex, in integers: exa is an integer, so it may
    # be compared with the ceiling of the right side over n
    return -(-(n - 2 * k * v) * ex_val // n)


def _sandwich_point(name: str, n: int, k: int) -> list[dict]:
    fam = _sandwich_family(name)
    ex_val = ex_oracle(n, fam).value
    exa_val = exa_oracle(n, k, fam).value
    params = {"pattern": name, "n": n, "k": k, "ex": ex_val}
    if exa_val is None:  # both bounds presuppose a graph with exactly k copies
        return [_note("no_exact_k_graph", **params)]
    v = _SANDWICH_PATTERNS[name].n
    return [
        _row("sandwich_lower", params, exa_val, _lower_want(n, k, v, ex_val), ">="),
        _row("sandwich_upper", params, exa_val, ex_val + k, "<="),
    ]


def _disconnected_point(n: int, k: int) -> list[dict]:
    # two independent edges; the component family is {K_2}
    ex_components = ex_oracle(n, GraphFamily("clique:2")).value
    exa_val = exa_oracle(n, k, GraphFamily("matching:4")).value
    params = {"pattern": "2K2", "n": n, "k": k, "ex_components": ex_components}
    if exa_val is None:
        return [_note("no_exact_k_graph", **params)]
    want = _lower_want(n, k, 4, ex_components)
    return [_row("components_lower", params, exa_val, want, ">=")]


def _attachment_bound(name: str, n: int) -> list[dict]:
    pattern = _SANDWICH_PATTERNS[name]
    fam = _sandwich_family(name)
    v = pattern.n
    z = zeta(pattern)
    rest = ex_oracle(n - v, fam).value if n - v >= 2 else 0
    bound = comb(v, 2) + z * (n - v) + rest
    got = exa_oracle(n, 1, fam).value
    params = {"pattern": name, "n": n, "zeta": z}
    return [_row("attachment_bound", params, got, bound, "<=")]


def _star_point(n: int, k: int) -> list[dict]:
    fam = GraphFamily.explicit((star_graph(3),), label="S3")
    ex_val = ex_oracle(n, fam).value
    exa_val = exa_oracle(n, k, fam).value
    params = {"n": n, "k": k, "ex": ex_val}
    return [
        _row("star_lower", params, exa_val, ex_val + k // 2 - 1, ">="),
        # r = 3: n(r-1)/2 + k/2, both even here
        _row("star_even", params, exa_val, n * 2 // 2 + k // 2),
    ]


def suite_sandwich() -> dict:
    cases = [
        (_sandwich_point, name, n, k)
        for name in ("K3", "C4", "C5")
        for n in (5, 6, 7)
        for k in (1, 2, 3)
    ]
    cases += [(_disconnected_point, n, k) for n in (4, 5, 6) for k in (1, 2)]
    cases += [
        (_attachment_bound, name, n)
        for name in ("K3", "K4", "C4")
        for n in range(_SANDWICH_PATTERNS[name].n, 8)
    ]
    cases += [(_star_point, n, k) for n in (5, 6) for k in (2, 4)]
    return _suite("sandwich", cases)


# -- suite: kab ----------------------------------------------------------------


def _worked_example(a: int, b: int, pp: PartitionPair, expected: bool) -> list[dict]:
    params = {"a": a, "b": b, "pair": str(pp)}
    return [_row("unique", params, is_unique_partition(a, b, pp), expected)]


def _mup_bounds(a: int, b: int) -> list[dict]:
    val = mup(a, b).value
    return [
        _row("mup_lower", {"a": a, "b": b}, val, a + 1, ">="),
        _row("mup_upper", {"a": a, "b": b}, val, a + b, "<="),
    ]


def _kab_oracle(a: int, b: int) -> list[dict]:
    got = exa_oracle(a + b, 1, GraphFamily(f"bipartite:{a},{b}")).value
    return [_row("exa1", {"a": a, "b": b}, got, exa1_kab(a, b))]


def _kab_build(a: int, b: int) -> list[dict]:
    witness = mup(a, b).witness
    if witness is None:
        return []
    return _build_rows({"a": a, "b": b}, build_unique_kab(a, b, witness))


def suite_kab() -> dict:
    cases = [
        (_worked_example, 6, 53, PartitionPair((3, 3), (13, 13, 13, 13, 1)), True),
        (_worked_example, 6, 53, PartitionPair((3, 3), (50, 3)), False),
        (_worked_example, 6, 6, PartitionPair((3, 3), (2, 2, 2)), True),
        (_worked_example, 6, 6, PartitionPair((3, 3), (3, 3)), False),
        (_mup_bounds, 1, 1),
    ]
    cases += [(_mup_bounds, a, b) for a in range(2, 11) for b in range(a, 11)]
    pairs = [(a, b) for a in range(1, 7) for b in range(a, 7) if a + b <= 7]
    cases += [(_kab_oracle, a, b) for a, b in pairs]
    cases += [(_kab_build, a, b) for a, b in pairs]
    return _suite("kab", cases)


# -- suite: mup-series -----------------------------------------------------------


def _mup_series(c: int, n_max: int) -> list[dict]:
    rep = mup_series_check(c, n_max)
    entries = []
    for r in rep["rows"]:
        params = {"c": c, "n": r["n"], "mup": r["mup"], "witness": r["witness"]}
        entries.append(_row("divisor_cap", params, r["divisor_ok"], True))
        entries.append(
            _note(
                "series_trend",
                c=c,
                n=r["n"],
                delta_vs_formula=r["delta_vs_formula"],
                nu_part_fraction=r["nu_part_fraction"],
            )
        )
    entries.append(
        _note(
            "step_prefix",
            c=c,
            nu=rep["nu"],
            n_max=n_max,
            last_step_failure=rep["last_step_failure"],
        )
    )
    return entries


def suite_mup_series(n_max: int = 40) -> dict:
    return _suite("mup-series", [(_mup_series, c, n_max) for c in range(1, 5)])


# -- suite: games ----------------------------------------------------------------

# the pinned game values; "pairs-exa1" stands for C(n,2) - exa_1(n, F)
_GAME_VALUES = (
    (4, "star", {"L": 2, "x": 2}),
    (5, "star", {"L": 3, "x": 2}),
    (4, "trees", {"L": 5, "x": 3}),
    (4, "kminus", {"L": 5, "x": 1}),
    (4, "clique:3", {"L": "pairs-exa1"}),
    (4, "trees+clique:3", {}),
)


def _floors(n: int, fam: GraphFamily) -> tuple:
    """exa_1(n,F), C(n,2) - exa_1, exa'_1(n,F) and C(n,2) - exa'_1: the
    paper's floors under x and x'.  A floor is None when no graph qualifies."""
    exa1 = exa_oracle(n, 1, fam).value
    exap = exa_prime_oracle(n, fam).value
    total = comb(n, 2)
    return (
        exa1,
        None if exa1 is None else total - exa1,
        exap,
        None if exap is None else total - exap,
    )


def _game_instance(n: int, spec: str, wants: dict) -> list[dict]:
    fam = GraphFamily(spec)
    got = {
        "L": solve_L(n, fam).value,
        "x": solve_x(n, fam).value,
        "xprime": solve_x_prime(n, fam).value,
    }
    exa1, floor, exap, floor_prime = _floors(n, fam)
    params = {"n": n, "family": spec}
    rows = [
        _row("value_" + q, params, got[q], floor if want == "pairs-exa1" else want)
        for q, want in wants.items()
    ]
    rows += [
        # C(n,2) - exa1 <= x <= L <= x'
        _row("chain_x", {**params, "exa1": exa1}, got["x"], floor, ">="),
        _row("chain_L", params, got["L"], got["x"], ">="),
        _row("chain_xprime", params, got["xprime"], got["L"], ">="),
        _row(
            "prime_bound", {**params, "exa_prime1": exap}, got["xprime"], floor_prime, ">="
        ),
    ]
    e_uniform = fam.uniform_edge_count(n)
    if e_uniform is not None:
        uniform = {**params, "uniform_edges": e_uniform}
        x_plus_e = got["x"] + e_uniform
        rows.append(_row("uniform_identity", uniform, x_plus_e, got["xprime"]))
    # NO-first adversary versus the solver's optimal questioners
    for cost in ("L", "x"):
        tr = simulate(n, fam, solver_questioner(n, fam, cost), adversary_no_first)
        no_params = {**params, "cost": cost}
        rows.append(_row("no_first_nos", no_params, tr.no_count, floor, ">="))
    return rows


def _family_gap(n: int) -> list[dict]:
    # family-vs-member gap, reported exactly (strict from n=5 on)
    spec = "trees+clique:" + str(n - 1)
    fam = GraphFamily(spec)
    xv = solve_x(n, fam).value
    floor = comb(n, 2) - exa_oracle(n, 1, fam).value
    return [
        _note(
            "family_gap", n=n, family=spec, x=xv, pairs_minus_exa1=floor, gap=xv - floor
        )
    ]


def _extremal_questioner() -> list[dict]:
    # extremal-graph questioner (strategy of record at n = 5, pattern K_3)
    g_ext = build_klikk(5, 3).graph
    strat = questioner_extremal_strategy(5, complete_graph(3), g_ext)
    fam_k3 = GraphFamily("clique:3")
    nonedges = comb(5, 2) - g_ext.edge_count()
    total = simulate(5, fam_k3, strat, adversary_no_first).total
    worst = strategy_worst_case(5, fam_k3, strat)
    params = {"n": 5, "pattern": "K3"}
    return [
        _row("no_first_total", params, total, nonedges),
        _row("worst_case", params, worst, comb(5, 2), "<="),
        _note("strategy_overhead", **params, overhead_vs_nonedges=worst - nonedges),
    ]


def suite_games() -> dict:
    cases = [(_game_instance, n, spec, wants) for n, spec, wants in _GAME_VALUES]
    cases += [(_family_gap, 4), (_family_gap, 5), (_extremal_questioner,)]
    return _suite("games", cases)


# -- sweep: the games' floors over every small pattern -------------------------


def _sweep_pattern(n: int, f: Graph) -> list[dict]:
    g6 = encode_graph6(f)
    fam = GraphFamily.explicit((f,), label=f"pattern:{g6}")
    # the games first: the solver's order cap is below the oracles' guard
    x, xprime = solve_x(n, fam).value, solve_x_prime(n, fam).value
    exa1, floor, exap, floor_prime = _floors(n, fam)
    params = {"n": n, "pattern_graph6": g6, "pattern_edges": f.edge_count()}
    return [
        _row("chain_x", {**params, "exa1": exa1}, x, floor, ">="),
        _row("prime_bound", {**params, "exa_prime1": exap}, xprime, floor_prime, ">="),
    ]


def sweep_patterns(n: int, max_pattern_order: int = 4) -> dict:
    """The games suite's `chain_x` and `prime_bound` rows, x(n,F) >= C(n,2) -
    exa_1(n,F) and x'(n,F) >= C(n,2) - exa'_1(n,F), for every pattern class F
    with at most max_pattern_order vertices that fits in n; `got - want` is
    the gap."""
    check_order(n)
    classes = all_pattern_classes(max_pattern_order)
    return _suite("sweep", [(_sweep_pattern, n, f) for f in classes if f.n <= n])


# -- suite: zeta ----------------------------------------------------------------


def _zeta_clique(r: int) -> list[dict]:
    return [_row("zeta_clique", {"r": r}, zeta(complete_graph(r)), r - 2)]


def _zeta_path(n: int) -> list[dict]:
    return [_row("zeta_path", {"n": n}, zeta(path_graph(n)), 0)]


def _zeta_min_degree(f: Graph) -> list[dict]:
    params = {"pattern_graph6": encode_graph6(f), "min_degree": f.min_degree()}
    return [_row("zeta_min_degree", params, zeta(f), f.min_degree() - 1, ">=")]


def suite_zeta() -> dict:
    cases = [(_zeta_clique, r) for r in (3, 4, 5)] + [(_zeta_path, 3)]
    cases += [(_zeta_min_degree, f) for f in all_pattern_classes(5)]
    return _suite("zeta", cases)


SUITES = {
    "klikk": suite_klikk,
    "triangle": suite_triangle,
    "classics": suite_classics,
    "sandwich": suite_sandwich,
    "kab": suite_kab,
    "mup-series": suite_mup_series,
    "games": suite_games,
    "zeta": suite_zeta,
}


# the suites that take an n_max size bound
SIZED_SUITES = ("klikk", "triangle", "classics", "mup-series")


def run_suite(name: str, n_max: int | None = None) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; pick from {sorted(SUITES)}")
    if n_max is None:
        return SUITES[name]()
    if name not in SIZED_SUITES:
        raise ValueError(f"suite {name!r} takes no n_max; sized suites: {SIZED_SUITES}")
    return SUITES[name](n_max=n_max)

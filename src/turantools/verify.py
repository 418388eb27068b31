"""Named verification suites: formula-vs-oracle tables, one per result family.

Every suite returns a JSON-stable dict (no wall times, no floats) with an
overall "ok" flag; assertions of record live in the rows.  Sweeps over
independent parameter points can fan out over worker processes; results are
assembled in parameter order, so the output is identical for any job count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from math import comb

from turantools.constructions import (
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


def _pmap(fn, items, jobs: int):
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    # the pool may start every worker up front, so never more than there are items
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(fn, items))


# -- suite: klikk --------------------------------------------------------------


def _klikk_oracle_row(args: tuple[int, int]) -> dict:
    n, r = args
    fam = GraphFamily(f"clique:{r}")
    lhs = exa_oracle(n, 1, fam)
    rhs = comb(r, 2) + (r - 2) * (n - r) + ex_oracle(n - r, fam).value
    return {
        "n": n,
        "r": r,
        "exa1_oracle": lhs.value,
        "formula_rhs": rhs,
        "equal": lhs.value == rhs,
    }


def suite_klikk(n_max: int = 12, jobs: int = 1) -> dict:
    build_rows = []
    for n in range(3, n_max + 1):
        for r in range(3, min(n, 5) + 1):
            rep = build_klikk(n, r)
            build_rows.append({"n": n, "r": r, **rep.to_json()})
    cases = [(n, 3) for n in range(3, min(7, n_max) + 1)]
    cases += [(n, 4) for n in range(4, min(6, n_max) + 1)]
    oracle_rows = _pmap(_klikk_oracle_row, cases, jobs)
    ok = all(r["ok"] for r in build_rows) and all(r["equal"] for r in oracle_rows)
    return {
        "suite": "klikk",
        "ok": ok,
        "build_rows": build_rows,
        "oracle_rows": oracle_rows,
    }


# -- suite: triangle -----------------------------------------------------------


def _triangle_oracle_row(args: tuple[int, int]) -> dict:
    n, k = args
    formula = (n - 1) ** 2 // 4 + k + 1
    got = exa_oracle(n, k, GraphFamily("clique:3"))
    return {
        "n": n,
        "k": k,
        "formula": formula,
        "exa_oracle": got.value,
        "lower_bound_holds": got.value is not None and got.value >= formula,
        "equality": got.value == formula,
    }


def suite_triangle(n_max: int = 12, jobs: int = 1) -> dict:
    build_rows = []
    for n in range(3, n_max + 1):
        for k in range(1, 5):
            large = (n - 1) - (n - 1) // 2
            if n < k + 2 or k > large:
                continue
            rep = build_triangle_k(n, k)
            build_rows.append({"n": n, "k": k, **rep.to_json()})
    cases = [
        (n, k)
        for n in range(4, min(7, n_max) + 1)
        for k in range(1, 4)
        if n >= k + 2 and k <= (n - 1) - (n - 1) // 2
    ]
    oracle_rows = _pmap(_triangle_oracle_row, cases, jobs)
    ok = all(r["ok"] for r in build_rows) and all(
        r["lower_bound_holds"] for r in oracle_rows
    )
    return {
        "suite": "triangle",
        "ok": ok,
        "build_rows": build_rows,
        "oracle_rows": oracle_rows,
        "equality_everywhere": all(r["equality"] for r in oracle_rows),
    }


# -- suite: classics -----------------------------------------------------------


def _classics_case(case: tuple) -> dict:
    kind = case[0]
    if kind == "hetyei":
        n = case[1]
        got = exa_oracle(n, 1, GraphFamily("perfmatching"))
        want = n * n // 4
    elif kind == "sheehan":
        n = case[1]
        got = exa_oracle(n, 1, GraphFamily("hamcycle"))
        want = n * n // 4 + 1
    elif kind == "turan":
        n, r = case[1], case[2]
        got = ex_oracle(n, GraphFamily(f"clique:{r + 1}"))
        want = turan_graph(n, r).edge_count()
    elif kind == "brouwer":
        n = case[1]
        got = triangle_free_nonbipartite_oracle(n)
        want = (n - 1) ** 2 // 4 + 1
    else:
        raise ValueError(kind)
    return {
        "case": list(case),
        "oracle": got.value,
        "expected": want,
        "equal": got.value == want,
        "witness_graph6": encode_graph6(got.witness) if got.witness else None,
    }


def suite_classics(n_max: int = 8, jobs: int = 1) -> dict:
    cases: list[tuple] = [("hetyei", 4), ("hetyei", 6), ("sheehan", 4), ("sheehan", 6)]
    cases += [
        ("turan", n, r)
        for n in range(2, n_max + 1)
        for r in range(1, 5)
        if r <= n
    ]
    cases += [("brouwer", n) for n in range(5, n_max + 1)]
    rows = _pmap(_classics_case, cases, jobs)
    return {"suite": "classics", "ok": all(r["equal"] for r in rows), "rows": rows}


# -- suite: sandwich -----------------------------------------------------------

_SANDWICH_PATTERNS = {
    "K3": complete_graph(3),
    "K4": complete_graph(4),
    "C4": cycle_graph(4),
    "C5": cycle_graph(5),
}


def _sandwich_row(args: tuple[str, int, int]) -> dict:
    name, n, k = args
    pattern = _SANDWICH_PATTERNS[name]
    fam = GraphFamily.explicit((pattern,), label=name)
    v = pattern.n
    ex_val = ex_oracle(n, fam).value
    exa_val = exa_oracle(n, k, fam).value
    exists = exa_val is not None
    # both bounds presuppose a graph with exactly k copies exists;
    # compare n*exa against (n - 2kv)*ex to stay in integers
    lower_ok = not exists or n * exa_val >= (n - 2 * k * v) * ex_val
    upper_ok = not exists or exa_val <= ex_val + k
    return {
        "pattern": name,
        "n": n,
        "k": k,
        "ex": ex_val,
        "exa_k": exa_val,
        "exists": exists,
        "lower_ok": lower_ok,
        "upper_ok": upper_ok,
    }


def _prop23_row(args: tuple[str, int]) -> dict:
    name, n = args
    pattern = _SANDWICH_PATTERNS[name]
    fam = GraphFamily.explicit((pattern,), label=name)
    v = pattern.n
    z = zeta(pattern)
    exa1 = exa_oracle(n, 1, fam).value
    rest = ex_oracle(n - v, fam).value if n - v >= 2 else 0
    bound = comb(v, 2) + z * (n - v) + rest
    return {
        "pattern": name,
        "n": n,
        "zeta": z,
        "exa1": exa1,
        "bound": bound,
        "holds": exa1 is not None and exa1 <= bound,
    }


def suite_sandwich(jobs: int = 1) -> dict:
    tight_cases = [
        (name, n, k)
        for name in ("K3", "C4", "C5")
        for n in (5, 6, 7)
        for k in (1, 2, 3)
    ]
    tight_rows = _pmap(_sandwich_row, tight_cases, jobs)

    # disconnected pattern: two independent edges; component family is {K_2}
    disc_rows = []
    fam_2k2 = GraphFamily("matching:4")
    for n in (4, 5, 6):
        ex_components = ex_oracle(n, GraphFamily("clique:2")).value
        for k in (1, 2):
            exa_val = exa_oracle(n, k, fam_2k2).value
            exists = exa_val is not None
            disc_rows.append(
                {
                    "n": n,
                    "k": k,
                    "ex_components": ex_components,
                    "exa_k": exa_val,
                    "exists": exists,
                    "holds": not exists
                    or n * exa_val >= (n - 2 * k * 4) * ex_components,
                }
            )

    prop23_cases = [
        (name, n)
        for name, v in (("K3", 3), ("K4", 4), ("C4", 4))
        for n in range(v, 8)
    ]
    prop23_rows = _pmap(_prop23_row, prop23_cases, jobs)

    star = star_graph(3)
    star_rows = []
    for n in (5, 6):
        fam = GraphFamily.explicit((star,), label="S3")
        ex_val = ex_oracle(n, fam).value
        for k in (2, 4):
            exa_val = exa_oracle(n, k, fam).value
            lb = ex_val + k // 2 - 1
            exact = n * 2 // 2 + k // 2  # r = 3: n(r-1)/2 + k/2, both even here
            star_rows.append(
                {
                    "n": n,
                    "k": k,
                    "ex": ex_val,
                    "exa_k": exa_val,
                    "lower_bound": lb,
                    "even_case_value": exact,
                    "lower_ok": exa_val is not None and exa_val >= lb,
                    "even_case_ok": exa_val == exact,
                }
            )

    ok = (
        all(r["lower_ok"] and r["upper_ok"] for r in tight_rows)
        and all(r["holds"] for r in disc_rows)
        and all(r["holds"] for r in prop23_rows)
        and all(r["lower_ok"] and r["even_case_ok"] for r in star_rows)
    )
    return {
        "suite": "sandwich",
        "ok": ok,
        "connected_rows": tight_rows,
        "disconnected_rows": disc_rows,
        "attachment_bound_rows": prop23_rows,
        "star_rows": star_rows,
    }


# -- suite: kab ----------------------------------------------------------------


def _kab_oracle_row(args: tuple[int, int]) -> dict:
    a, b = args
    formula = exa1_kab(a, b)
    fam = GraphFamily(f"bipartite:{a},{b}")
    got = exa_oracle(a + b, 1, fam)
    return {
        "a": a,
        "b": b,
        "formula": formula,
        "oracle": got.value,
        "equal": formula == got.value,
    }


def suite_kab(jobs: int = 1) -> dict:
    worked = [
        {
            "a": a,
            "b": b,
            "pair": str(pp),
            "unique": is_unique_partition(a, b, pp),
            "expected": expected,
        }
        for a, b, pp, expected in (
            (6, 53, PartitionPair((3, 3), (13, 13, 13, 13, 1)), True),
            (6, 53, PartitionPair((3, 3), (50, 3)), False),
            (6, 6, PartitionPair((3, 3), (2, 2, 2)), True),
            (6, 6, PartitionPair((3, 3), (3, 3)), False),
        )
    ]
    worked_ok = all(r["unique"] == r["expected"] for r in worked)

    base_ok = mup(1, 1).value == 2
    bound_rows = []
    for a in range(2, 11):
        for b in range(a, 11):
            val = mup(a, b).value
            bound_rows.append(
                {
                    "a": a,
                    "b": b,
                    "mup": val,
                    "bounds_ok": a + 1 <= val <= a + b,
                }
            )

    oracle_cases = [(a, b) for a in range(1, 7) for b in range(a, 7) if a + b <= 7]
    oracle_rows = _pmap(_kab_oracle_row, oracle_cases, jobs)

    builder_rows = []
    for a, b in oracle_cases:
        res = mup(a, b)
        if res.witness is None:
            continue
        rep = build_unique_kab(a, b, res.witness)
        builder_rows.append({"a": a, "b": b, **rep.to_json()})

    ok = (
        worked_ok
        and base_ok
        and all(r["bounds_ok"] for r in bound_rows)
        and all(r["equal"] for r in oracle_rows)
        and all(r["ok"] for r in builder_rows)
    )
    return {
        "suite": "kab",
        "ok": ok,
        "worked_examples": worked,
        "mup_1_1": mup(1, 1).value,
        "bound_rows": bound_rows,
        "oracle_rows": oracle_rows,
        "builder_rows": builder_rows,
    }


# -- suite: mup-series -----------------------------------------------------------


def suite_mup_series(n_max: int = 40, jobs: int = 1) -> dict:
    reports = [mup_series_check(c, n_max) for c in range(1, 5)]
    ok = all(rep["divisor_property_all"] for rep in reports)
    return {
        "suite": "mup-series",
        "ok": ok,
        "reports": reports,
        "step_prefixes": {str(rep["c"]): rep["last_step_failure"] for rep in reports},
    }


# -- suite: games ----------------------------------------------------------------


def _game_instance(n: int, spec: str) -> dict:
    fam = GraphFamily(spec)
    total = comb(n, 2)
    l_res = solve_L(n, fam)
    x_res = solve_x(n, fam)
    xp_res = solve_x_prime(n, fam)
    exa1 = exa_oracle(n, 1, fam).value
    exap = exa_prime_oracle(n, fam).value
    e_uniform = fam.uniform_edge_count(n)
    chain_ok = (
        exa1 is not None
        and total - exa1 <= x_res.value <= l_res.value <= xp_res.value
    )
    prime_ok = exap is not None and total - exap <= xp_res.value
    uniform_ok = (
        e_uniform is None or x_res.value + e_uniform == xp_res.value
    )
    # NO-first adversary versus the solver's optimal questioners
    no_counts = []
    for cost in ("L", "x"):
        tr = simulate(n, fam, solver_questioner(n, fam, cost), adversary_no_first)
        no_counts.append(tr.no_count)
    no_bound_ok = all(c >= total - exa1 for c in no_counts)
    return {
        "n": n,
        "family": spec,
        "L": l_res.value,
        "x": x_res.value,
        "xprime": xp_res.value,
        "exa1": exa1,
        "exa_prime1": exap,
        "chain_ok": chain_ok,
        "prime_bound_ok": prime_ok,
        "uniform_identity_ok": uniform_ok,
        "sim_no_counts": no_counts,
        "no_bound_ok": no_bound_ok,
    }


def suite_games(jobs: int = 1) -> dict:
    instances = [
        (4, "star"),
        (5, "star"),
        (4, "trees"),
        (4, "kminus"),
        (4, "clique:3"),
        (4, "trees+clique:3"),
    ]
    rows = [_game_instance(n, spec) for n, spec in instances]
    by_key = {(r["n"], r["family"]): r for r in rows}

    expected = {
        (4, "star"): {"L": 2, "x": 2},
        (5, "star"): {"L": 3, "x": 2},
        (4, "trees"): {"L": 5, "x": 3},
        (4, "kminus"): {"L": 5, "x": 1},
        (4, "clique:3"): {"L": comb(4, 2) - by_key[(4, "clique:3")]["exa1"]},
    }
    value_checks = []
    for key, wants in expected.items():
        row = by_key[key]
        for field, want in wants.items():
            value_checks.append(
                {
                    "n": key[0],
                    "family": key[1],
                    "quantity": field,
                    "got": row[field],
                    "want": want,
                    "equal": row[field] == want,
                }
            )

    # family-vs-member gap, reported exactly (strict from n=5 on)
    gap_rows = []
    for n in (4, 5):
        spec = "trees+clique:" + str(n - 1)
        fam = GraphFamily(spec)
        xv = solve_x(n, fam).value
        exa1 = exa_oracle(n, 1, fam).value
        gap_rows.append(
            {
                "n": n,
                "family": spec,
                "x": xv,
                "pairs_minus_exa1": comb(n, 2) - exa1,
                "gap": xv - (comb(n, 2) - exa1),
            }
        )

    # extremal-graph questioner (strategy of record at n = 5, pattern K_3)
    g_ext = build_klikk(5, 3).graph
    strat = questioner_extremal_strategy(5, complete_graph(3), g_ext)
    fam_k3 = GraphFamily("clique:3")
    tr = simulate(5, fam_k3, strat, adversary_no_first)
    worst = strategy_worst_case(5, fam_k3, strat)
    strategy_report = {
        "no_first_total": tr.total,
        "no_first_expected": comb(5, 2) - g_ext.edge_count(),
        "worst_case": worst,
        "cap": comb(5, 2),
        "overhead_vs_nonedges": worst - (comb(5, 2) - g_ext.edge_count()),
        "exact_ok": tr.total == comb(5, 2) - g_ext.edge_count(),
        "cap_ok": worst <= comb(5, 2),
    }

    ok = (
        all(c["equal"] for c in value_checks)
        and all(
            r["chain_ok"] and r["prime_bound_ok"] and r["uniform_identity_ok"]
            and r["no_bound_ok"]
            for r in rows
        )
        and strategy_report["exact_ok"]
        and strategy_report["cap_ok"]
    )
    return {
        "suite": "games",
        "ok": ok,
        "instances": rows,
        "value_checks": value_checks,
        "family_gap_rows": gap_rows,
        "strategy": strategy_report,
    }


# -- suite: zeta ----------------------------------------------------------------


def suite_zeta(jobs: int = 1) -> dict:
    clique_rows = [
        {"r": r, "zeta": zeta(complete_graph(r)), "want": r - 2}
        for r in (3, 4, 5)
    ]
    p3 = zeta(path_graph(3))
    delta_rows = []
    for f in all_pattern_classes(5):
        z = zeta(f)
        delta_rows.append(
            {
                "pattern_graph6": encode_graph6(f),
                "zeta": z,
                "min_degree": f.min_degree(),
                "holds": z >= f.min_degree() - 1,
            }
        )
    ok = (
        all(r["zeta"] == r["want"] for r in clique_rows)
        and p3 == 0
        and all(r["holds"] for r in delta_rows)
    )
    return {
        "suite": "zeta",
        "ok": ok,
        "clique_rows": clique_rows,
        "zeta_p3": p3,
        "min_degree_rows": delta_rows,
    }


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


def run_suite(name: str, n_max: int | None = None, jobs: int = 1) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; pick from {sorted(SUITES)}")
    if n_max is None:
        return SUITES[name](jobs=jobs)
    if name not in SIZED_SUITES:
        raise ValueError(f"suite {name!r} takes no n_max; sized suites: {SIZED_SUITES}")
    return SUITES[name](n_max=n_max, jobs=jobs)

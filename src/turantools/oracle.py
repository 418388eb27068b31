"""Exact maximization engines over all labeled graphs on n vertices.

Everything returns exact values: the family oracles run the branch-and-bound
search of `_bnb`, which certifies the maximum by cutting only branches that
cannot beat it, and return the graph6-lexicographically smallest optimal graph
as the witness.  Returned witnesses are re-verified through the independent
embeddings-based copy counter before the result is handed back.
`max_edges_with` runs an arbitrary predicate through the reference level
scanner of `_scan`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

from turantools._bnb import branch_and_bound, pack_constraints
from turantools._scan import scan
from turantools.counting import count_copies, labeled_copies, strip_isolated
from turantools.families import GraphFamily
from turantools.graphs import (
    Graph,
    check_bipartite,
    complete_graph,
    encode_graph6,
    graph_from_mask,
    make_graph,
    pair_count,
)

UNRESTRICTED_ORDER_CAP = 8
ZETA_ORDER_CAP = 8


@dataclass
class OracleResult:
    """Outcome of an exhaustive max-edge search.

    value is None when no qualifying graph exists (and complete is True) or
    when the budget expired first (complete False).  A present witness has
    exactly `value` edges and satisfies the defining predicate.
    """

    value: int | None
    witness: Graph | None
    explored: int
    elapsed: float
    complete: bool
    member: Graph | None = None

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "witness_graph6": encode_graph6(self.witness) if self.witness else None,
            "explored": self.explored,
            "complete": self.complete,
        }


def _check_order(n: int, allow_large: bool) -> None:
    if n < 0:
        raise ValueError("order must be non-negative")
    if n > UNRESTRICTED_ORDER_CAP and not allow_large:
        raise ValueError(
            f"unrestricted search is guarded at n <= {UNRESTRICTED_ORDER_CAP}; "
            "pass allow_large=True to override"
        )


def _deadline(budget: float | None) -> float | None:
    return time.monotonic() + budget if budget is not None else None


def _search(
    n: int,
    constraints: list[tuple[tuple[int, ...], set[int]]],
    *,
    require_nonbip: bool = False,
    deadline: float | None = None,
    allow_large: bool = False,
) -> OracleResult:
    """Max edge count over labeled graphs meeting every copy-count constraint.

    The witness is the graph6-lexicographically smallest optimal graph and
    `explored` counts search nodes.
    """
    _check_order(n, allow_large)
    t0 = time.monotonic()

    def nonbipartite(mask: int) -> bool:
        return not check_bipartite(graph_from_mask(n, mask))

    res = branch_and_bound(
        pair_count(n),
        pack_constraints(constraints),
        leaf_ok=nonbipartite if require_nonbip else None,
        deadline=deadline,
    )
    elapsed = time.monotonic() - t0
    if res.value is None:
        return OracleResult(None, None, res.nodes, elapsed, not res.timed_out)
    witness = graph_from_mask(n, res.mask)
    assert witness.edge_count() == res.value
    return OracleResult(res.value, witness, res.nodes, elapsed, True)


def max_edges_with(
    n: int,
    pred,
    *,
    budget: float | None = None,
    allow_large: bool = False,
) -> OracleResult:
    """Generic engine: max edges over all graphs on n vertices with pred(G) true.

    Runs the reference level scanner: levels downward from C(n,2), the first
    feasible graph in Gosper order as the witness, and `explored` counting
    every graph tested.
    """
    _check_order(n, allow_large)
    t0 = time.monotonic()
    res = scan(
        pair_count(n),
        lambda g: pred(graph_from_mask(n, g)),
        deadline=_deadline(budget),
    )
    elapsed = time.monotonic() - t0
    if not res.found:
        return OracleResult(None, None, res.explored, elapsed, not res.timed_out)
    witness = graph_from_mask(n, res.mask)
    return OracleResult(witness.edge_count(), witness, res.explored, elapsed, True)


def _verify_witness(res: OracleResult, members, allowed: set[int]) -> OracleResult:
    """Independent re-check of a witness through the embeddings-based counter."""
    if res.witness is not None:
        total = sum(count_copies(res.witness, f) for f in members)
        if total not in allowed:
            raise AssertionError(
                f"witness re-verification failed: count {total} not in {sorted(allowed)}"
            )
    return res


def ex_oracle(n: int, fam: GraphFamily, **kw) -> OracleResult:
    """Turan-type maximum: most edges with zero copies across the family."""
    return exa_set_oracle(n, {0}, fam, **kw)


def exa_oracle(n: int, k: int, fam: GraphFamily, **kw) -> OracleResult:
    """Most edges with exactly k copies across the family (None if impossible)."""
    if k < 0:
        raise ValueError("copy count must be non-negative")
    return exa_set_oracle(n, {k}, fam, **kw)


def exa_set_oracle(
    n: int,
    counts,
    fam: GraphFamily,
    *,
    budget: float | None = None,
    allow_large: bool = False,
) -> OracleResult:
    """Most edges with total family copy count in the given finite set."""
    allowed = set(counts)
    if not allowed:
        raise ValueError("count set must be non-empty")
    members = fam.members(n)
    placements = fam.placements(n)
    res = _search(
        n, [(placements, allowed)], deadline=_deadline(budget), allow_large=allow_large
    )
    return _verify_witness(res, members, allowed)


def exa_prime_oracle(
    n: int,
    fam: GraphFamily,
    *,
    budget: float | None = None,
    allow_large: bool = False,
) -> OracleResult:
    """Max of |E(G)| - |E(F)| over G with exactly one copy of exactly one member.

    The witness is the graph6-lexicographically smallest optimal G; `member`
    carries the F it uniquely contains.  One budget covers all members; when
    it runs out the result is incomplete with no value.
    """
    members = fam.members(n)
    t0 = time.monotonic()
    deadline = _deadline(budget)
    explored = 0
    best: tuple[int, str, Graph, Graph] | None = None  # (objective, g6, G, F)
    member_placements = [labeled_copies(n, f) for f in members]
    for i, f in enumerate(members):
        constraints = [(member_placements[i], {1})]
        constraints += [
            (member_placements[j], {0}) for j in range(len(members)) if j != i
        ]
        res = _search(n, constraints, deadline=deadline, allow_large=allow_large)
        explored += res.explored
        if not res.complete:
            return OracleResult(None, None, explored, time.monotonic() - t0, False)
        if res.value is None:
            continue
        objective = res.value - f.edge_count()
        g6 = encode_graph6(res.witness)
        if (
            best is None
            or objective > best[0]
            or (objective == best[0] and g6 < best[1])
        ):
            best = (objective, g6, res.witness, f)
    elapsed = time.monotonic() - t0
    if best is None:
        return OracleResult(None, None, explored, elapsed, True)
    objective, _, witness, f = best
    for j, other in enumerate(members):
        want = 1 if other == f else 0
        if count_copies(witness, other) != want:
            raise AssertionError("exa-prime witness re-verification failed")
    return OracleResult(objective, witness, explored, elapsed, True, member=f)


def triangle_free_nonbipartite_oracle(
    n: int, *, budget: float | None = None, allow_large: bool = False
) -> OracleResult:
    """Max edges over triangle-free graphs on n vertices that are not bipartite."""
    tri = labeled_copies(n, complete_graph(3))
    res = _search(
        n, [(tri, {0})], require_nonbip=True,
        deadline=_deadline(budget), allow_large=allow_large,
    )
    if res.witness is not None:
        if count_copies(res.witness, complete_graph(3)) != 0:
            raise AssertionError("witness re-verification failed: has a triangle")
        if check_bipartite(res.witness):
            raise AssertionError("witness re-verification failed: bipartite")
    return res


def zeta(f: Graph) -> int:
    """Largest z such that a new vertex with z edges into a copy of f leaves
    exactly one copy of f; 0 if every positive attachment creates another copy."""
    f = strip_isolated(f)
    if f.edge_count() == 0:
        raise ValueError("zeta needs a pattern with at least one edge")
    if f.n > ZETA_ORDER_CAP:
        raise ValueError(f"zeta search capped at {ZETA_ORDER_CAP} vertices")
    base = f.edges()
    for z in range(f.n, 0, -1):
        for attach in combinations(range(f.n), z):
            h = make_graph(f.n + 1, list(base) + [(v, f.n) for v in attach])
            if count_copies(h, f) == 1:
                return z
    return 0

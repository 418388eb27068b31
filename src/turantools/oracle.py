"""Exact maximization engines over all labeled graphs on n vertices.

Everything returns exact values.  Each family oracle states its search as a
list of (members, allowed) constraints: the total number of copies of the
member patterns must lie in the allowed count set.

  ex / exa_k / count set:  [(family members, allowed)]
  exa' for member F:       [((G,), {1} if G == F else {0}) for each member G]
  triangle-free non-bip.:  [((K3,), {0})], plus non-bipartiteness

`_search` turns each constraint into labeled placements and runs the
branch-and-bound search of `_bnb`: one exclude-first walk that certifies the
maximum by cutting only branches that cannot beat the best leaf so far or
that are lexicographically larger than their image under an adjacent vertex
transposition (every constraint here is invariant under relabeling).  Its
first optimal leaf, the witness, is the graph6-lexicographically smallest
optimal graph.  Before `_search` hands a witness back it re-counts the
witness against the same constraint list through the independent
embeddings-based copy counter; a member that counter cannot take (more than
`AUT_ORDER_CAP` vertices) is refused before the search starts.

`zeta`, the slope of the sandwich bound, is not a search over graphs: one
conditioned walk of f into f plus a vertex joined to all of it finds every
copy through the new vertex, and the largest attachment that contains none
of their neighbourhoods at that vertex is the answer.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from turantools._bnb import branch_and_bound
from turantools.counting import (
    AUT_ORDER_CAP,
    copy_maps,
    count_copies,
    labeled_copies,
    strip_isolated,
)
from turantools.families import GraphFamily
from turantools.graphs import (
    Graph,
    check_bipartite,
    check_order,
    complete_graph,
    encode_graph6,
    graph_from_mask,
    pair_count,
)

UNRESTRICTED_ORDER_CAP = 9
ZETA_ORDER_CAP = 8


class OracleResult(NamedTuple):
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
    check_order(n)
    if n > UNRESTRICTED_ORDER_CAP and not allow_large:
        raise ValueError(
            f"unrestricted search is guarded at n <= {UNRESTRICTED_ORDER_CAP}; "
            "pass allow_large=True to override"
        )


def _deadline(budget: float | None) -> float | None:
    return time.monotonic() + budget if budget is not None else None


def _search(
    n: int,
    constraints: list[tuple[tuple[Graph, ...], set[int]]],
    *,
    require_nonbip: bool = False,
    deadline: float | None = None,
    allow_large: bool = False,
) -> OracleResult:
    """Max edge count over labeled graphs meeting every (members, allowed)
    constraint: the total copy count of the members lies in the allowed set.
    With require_nonbip the graph must also be non-bipartite.

    The witness is the graph6-lexicographically smallest optimal graph and
    `explored` counts search nodes.  Every member's copies in the witness are
    counted again with `count_copies` (and non-bipartiteness with
    `check_bipartite`); a disagreement raises AssertionError.  A member that
    `count_copies` would refuse is refused before any placement is built.
    """
    _check_order(n, allow_large)
    # the members are stripped, so their order is the one count_copies caps
    largest = max((f.n for members, _ in constraints for f in members), default=0)
    if largest > AUT_ORDER_CAP:
        raise ValueError(f"witness re-count capped at members of {AUT_ORDER_CAP} vertices")
    t0 = time.monotonic()

    def nonbipartite(mask: int) -> bool:
        # breadth-first 2-colouring on bitsets: an edge inside one class closes an odd cycle
        adj = graph_from_mask(n, mask).adj
        uncoloured = (1 << n) - 1
        while uncoloured:
            frontier, c = uncoloured & -uncoloured, 0
            classes = [frontier, 0]
            while frontier:
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    reach |= adj[low.bit_length() - 1]
                    frontier ^= low
                if reach & classes[c]:
                    return True
                c ^= 1
                frontier = reach & ~classes[c]
                classes[c] |= frontier
            uncoloured &= ~(classes[0] | classes[1])
        return False

    res = branch_and_bound(
        pair_count(n),
        [
            (sum((labeled_copies(n, f) for f in members), ()), allowed)
            for members, allowed in constraints
        ],
        leaf_ok=nonbipartite if require_nonbip else None,
        relabel_order=n,
        deadline=deadline,
    )
    elapsed = time.monotonic() - t0
    if res.value is None:
        return OracleResult(None, None, res.nodes, elapsed, not res.timed_out)
    witness = graph_from_mask(n, res.mask)
    assert witness.edge_count() == res.value
    for members, allowed in constraints:
        total = sum(count_copies(witness, f) for f in members)
        if total not in allowed:
            raise AssertionError(
                f"witness re-verification failed: count {total} not in {sorted(allowed)}"
            )
    if require_nonbip and check_bipartite(witness):
        raise AssertionError("witness re-verification failed: bipartite")
    return OracleResult(res.value, witness, res.nodes, elapsed, True)


def ex_oracle(n: int, fam: GraphFamily, **kw) -> OracleResult:
    """Turan-type maximum: most edges with zero copies across the family."""
    return exa_set_oracle(n, {0}, fam, **kw)


def exa_oracle(n: int, k: int, fam: GraphFamily, **kw) -> OracleResult:
    """Most edges with exactly k copies across the family (None if impossible)."""
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
    constraints = [(fam.members(n), set(counts))]
    return _search(n, constraints, deadline=_deadline(budget), allow_large=allow_large)


def exa_prime_oracle(
    n: int,
    fam: GraphFamily,
    *,
    budget: float | None = None,
    allow_large: bool = False,
) -> OracleResult:
    """Max of |E(G)| - |E(F)| over G with exactly one copy of exactly one member.

    One search per member F: one copy of F, none of the others.  The witness
    is the graph6-lexicographically smallest optimal G; `member` carries the F
    it uniquely contains.  One budget covers all members; when it runs out
    the result is incomplete with no value.
    """
    members = fam.members(n)
    t0 = time.monotonic()
    deadline = _deadline(budget)
    explored = 0
    best = None  # ((-objective, witness graph6), search result, F)
    for f in members:
        constraints = [((g,), {1} if g == f else {0}) for g in members]
        res = _search(n, constraints, deadline=deadline, allow_large=allow_large)
        explored += res.explored
        if not res.complete:
            return OracleResult(None, None, explored, time.monotonic() - t0, False)
        if res.value is None:
            continue
        key = (f.edge_count() - res.value, encode_graph6(res.witness))
        if best is None or key < best[0]:
            best = (key, res, f)
    elapsed = time.monotonic() - t0
    if best is None:
        return OracleResult(None, None, explored, elapsed, True)
    (neg_objective, _), res, f = best
    return OracleResult(-neg_objective, res.witness, explored, elapsed, True, member=f)


def triangle_free_nonbipartite_oracle(
    n: int, *, budget: float | None = None, allow_large: bool = False
) -> OracleResult:
    """Max edges over triangle-free graphs on n vertices that are not bipartite."""
    return _search(
        n, [((complete_graph(3),), {0})], require_nonbip=True,
        deadline=_deadline(budget), allow_large=allow_large,
    )


def zeta(f: Graph) -> int:
    """Largest z such that a new vertex with z edges into a copy of f leaves
    exactly one copy of f; 0 if every positive attachment creates another copy.

    Let h_A be f plus a vertex w joined to A, a subset of V(f).  A copy of f
    in h_A that avoids w has |E(f)| edges inside E(f), so it is f itself;
    every other copy uses w, and its edges at w go to A.  So with T = f plus
    w joined to all of V(f), the copies of f in h_A other than f are the
    copies in T through w whose w-neighbourhood (the images of the pattern
    neighbours of the vertex sent to w) lies inside A.  One conditioned walk
    of f into T (`copy_maps`) finds these blocked sets, and z is the largest
    |A| that contains none of them.
    """
    f = strip_isolated(f)
    if f.edge_count() == 0:
        raise ValueError("zeta needs a pattern with at least one edge")
    if f.n > ZETA_ORDER_CAP:
        raise ValueError(f"zeta search capped at {ZETA_ORDER_CAP} vertices")
    n = f.n
    w = 1 << n
    joined = Graph(n + 1, tuple(row | w for row in f.adj) + (w - 1,))
    neighbours = [f.neighbors(p) for p in range(n)]
    blocked = set()
    for image in copy_maps(joined, f):
        if w in image:
            blocked.add(sum(image[q] for q in neighbours[image.index(w)]))
    return max(
        a.bit_count() for a in range(w) if all(b & ~a for b in blocked)
    )

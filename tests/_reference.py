"""Brute-force references the tests check the package against; none runs in it.

A "level" is the set of labeled graphs on n vertices with a fixed edge count
m.  The level scanner enumerates the smaller of the present/missing edge sides
as d-subsets of the M = C(n,2) edge slots in Gosper (colex-ascending) order
and tests each graph with a mask predicate.  `scan` walks the levels downward
from M and stops at the first level holding a feasible graph, so it certifies
a maximum by exhausting every denser level.  Scan modes: stop at the first
feasible graph, or sweep the whole level keeping the feasible graph whose
bit-reversed edge mask is smallest (the graph6-lexicographically smallest).

`zeta_by_recount` tries every attachment of a new vertex to f, largest
first, and re-counts the copies of f for each.

`count_copies_bruteforce` counts copies by enumerating edge subsets and
deciding isomorphism with networkx, so it shares no code with the package's
embeddings counter.  `count_embeddings` counts every embedding, with no
symmetry-breaking conditions; for a pattern into itself that is |Aut|.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from time import monotonic as _result_clock  # apart from `time`, which tests patch

import networkx as nx

from turantools.counting import count_copies, labeled_copies, strip_isolated
from turantools.game import consistent_placements
from turantools.graphs import graph_from_mask, make_graph, pair_count, slot_pairs
from turantools.oracle import ZETA_ORDER_CAP, OracleResult, _check_order, _deadline

# graphs between deadline checks: `max_edges_with` predicates that count
# copies cost about 0.15 ms a graph, so about 0.6 s between checks
POLL_EVERY = 1 << 12


def _bipartite(g: int, slot_u, slot_v, n: int) -> bool:
    adj = [0] * n
    gg = g
    while gg:
        s = (gg & -gg).bit_length() - 1
        u, v = slot_u[s], slot_v[s]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        gg &= gg - 1
    color = [-1] * n
    for root in range(n):
        if color[root] >= 0 or adj[root] == 0:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            au = adj[u]
            for w in range(n):
                if au >> w & 1:
                    if color[w] < 0:
                        color[w] = color[u] ^ 1
                        stack.append(w)
                    elif color[w] == color[u]:
                        return False
    return True


def constraint_test(
    n: int,
    constraints: list[tuple[tuple[int, ...], set[int]]],
    *,
    require_nonbip: bool = False,
):
    """Mask predicate for (placement masks, allowed count set) constraints,
    plus non-bipartiteness when asked."""
    slot_u = [u for u, _ in slot_pairs(n)]
    slot_v = [v for _, v in slot_pairs(n)]
    checks = [(masks, allowed, max(allowed)) for masks, allowed in constraints]

    def feasible(g: int) -> bool:
        for placements, allowed, cap in checks:
            cnt = 0
            for p in placements:
                if p & g == p:
                    cnt += 1
                    if cnt > cap:
                        break
            if cnt not in allowed:
                return False
        return not require_nonbip or not _bipartite(g, slot_u, slot_v, n)

    return feasible


def _reverse_bits(mask: int, width: int) -> int:
    rev = 0
    for s in range(width):
        if mask >> s & 1:
            rev |= 1 << (width - 1 - s)
    return rev


@dataclass
class LevelResult:
    found: bool
    mask: int | None
    explored: int
    timed_out: bool


def scan_level(
    m_slots: int,
    m_edges: int,
    feasible,
    *,
    collect_min: bool = False,
    deadline=None,
) -> LevelResult:
    """Scan one edge-count level; returns first or graph6-min feasible mask.

    The deadline is polled every POLL_EVERY graphs.
    """
    d_missing = m_slots - m_edges
    if d_missing <= m_edges:
        d, use_complement = d_missing, True
    else:
        d, use_complement = m_edges, False
    full = (1 << m_slots) - 1
    c = (1 << d) - 1
    last = c << (m_slots - d)
    explored = 0
    best_rev = best_mask = None

    while True:
        g = full ^ c if use_complement else c
        explored += 1
        if feasible(g):
            if not collect_min:
                return LevelResult(True, g, explored, False)
            rev = _reverse_bits(g, m_slots)
            if best_rev is None or rev < best_rev:
                best_rev, best_mask = rev, g

        if c == last:
            return LevelResult(best_mask is not None, best_mask, explored, False)
        lo = c & -c
        lz = c + lo
        c = lz | (((c ^ lz) >> 2) // lo)
        if (
            deadline is not None
            and explored % POLL_EVERY == 0
            and time.monotonic() > deadline
        ):
            return LevelResult(False, None, explored, True)


def scan(
    m_slots: int,
    feasible,
    *,
    collect_min: bool = False,
    deadline=None,
) -> LevelResult:
    """Scan levels downward from m_slots; stop at the first one with a feasible mask.

    The maximum is the found mask's edge count; `explored` counts every graph
    tested on every level.
    """
    explored = 0
    for m_edges in range(m_slots, -1, -1):
        if deadline is not None and time.monotonic() >= deadline:
            return LevelResult(False, None, explored, True)
        res = scan_level(
            m_slots, m_edges, feasible,
            collect_min=collect_min, deadline=deadline,
        )
        explored += res.explored
        if res.timed_out or res.found:
            return LevelResult(res.found, res.mask, explored, res.timed_out)
    return LevelResult(False, None, explored, False)


def scan_constraints(n, constraints, require_nonbip=False, collect_min=True):
    """The level scanner over the oracles' (members, allowed) constraints."""
    placed = [
        (tuple(p for f in members for p in labeled_copies(n, f)), allowed)
        for members, allowed in constraints
    ]
    feasible = constraint_test(n, placed, require_nonbip=require_nonbip)
    return scan(pair_count(n), feasible, collect_min=collect_min)


def max_edges_with(
    n: int,
    pred,
    *,
    budget: float | None = None,
    allow_large: bool = False,
) -> OracleResult:
    """Max edges over all graphs on n vertices with pred(G) true.

    Runs the level scanner: levels downward from C(n,2), the first feasible
    graph in Gosper order as the witness, and `explored` counting every
    graph tested.
    """
    _check_order(n, allow_large)
    t0 = _result_clock()
    res = scan(
        pair_count(n),
        lambda g: pred(graph_from_mask(n, g)),
        deadline=_deadline(budget),
    )
    elapsed = _result_clock() - t0
    if not res.found:
        return OracleResult(None, None, res.explored, elapsed, not res.timed_out)
    witness = graph_from_mask(n, res.mask)
    return OracleResult(witness.edge_count(), witness, res.explored, elapsed, True)


def to_networkx(g, *, keep_isolated: bool = True) -> nx.Graph:
    """g as a networkx graph on 0..n-1, or on its non-isolated vertices only."""
    h = nx.Graph()
    if keep_isolated:
        h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def count_copies_bruteforce(host, pattern) -> int:
    """Oracle twin of count_copies: enumerate edge subsets, test isomorphism
    with networkx."""
    f = to_networkx(pattern, keep_isolated=False)
    k = f.number_of_edges()
    if k == 0:
        return 1
    return sum(
        nx.is_isomorphic(nx.Graph(subset), f)
        for subset in combinations(host.edges(), k)
    )


def count_embeddings(host, pattern) -> int:
    """Injective maps pattern -> host sending pattern edges to host edges.

    Backtracking on the host's adjacency bitsets: the candidates of each
    pattern vertex are the unused host vertices of at least its degree that
    are adjacent to the images of its placed neighbours.
    """
    if pattern.n > host.n:
        return 0
    order = sorted(range(pattern.n), key=lambda v: (-pattern.degree(v), v))
    host_deg = host.degrees()
    fits = [
        sum(1 << w for w in range(host.n) if host_deg[w] >= pattern.degree(p))
        for p in order
    ]
    image = {}

    def extend(k: int, used: int) -> int:
        if k == pattern.n:
            return 1
        cand = fits[k] & ~used
        for j in range(k):
            if pattern.has_edge(order[k], order[j]):
                cand &= host.adj[image[j]]
        total = 0
        while cand:
            bit = cand & -cand
            image[k] = bit.bit_length() - 1
            total += extend(k + 1, used | bit)
            cand ^= bit
        return total

    return extend(0, 0)


def zeta_by_recount(f) -> int:
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


def matching_first_questioner(n: int):
    """Star-family questioner: query a matching, then one probe on a YES pair."""

    def questioner(state):
        cons = consistent_placements(state)
        if len(cons) == 1:
            return None
        asked = state.asked()
        if not state.yes:
            for i in range(0, n - 1, 2):
                q = (i, i + 1)
                if q not in asked:
                    return q
        else:
            u, v = state.yes[0]
            for w in range(n):
                if w in (u, v):
                    continue
                q = (min(u, w), max(u, w))
                if q not in asked:
                    return q
        for q in slot_pairs(n):
            if q not in asked:
                return q
        raise AssertionError("all pairs asked yet multiple placements remain")

    return questioner

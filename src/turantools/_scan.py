"""Reference level scanner: the brute-force cross-check for the search engine.

A "level" is the set of labeled graphs on n vertices with a fixed edge count
m.  The scanner enumerates the smaller of the present/missing edge sides as
d-subsets of the M = C(n,2) edge slots in Gosper (colex-ascending) order and
tests each graph with a mask predicate.  `scan` walks the levels downward from
M and stops at the first level holding a feasible graph, so it certifies a
maximum by exhausting every denser level.

No production search runs here: the oracles use the branch-and-bound engine in
`_bnb`.  The scanner backs the predicate engine `oracle.max_edges_with` and the
tests that check the engine against it.

Scan modes: stop at the first feasible graph, or sweep the whole level
keeping the feasible graph whose bit-reversed edge mask is smallest (that is
the graph6-lexicographically smallest witness).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from turantools.graphs import slot_pairs

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
    constraints: list[tuple[tuple[int, ...], frozenset[int], int]],
    *,
    require_nonbip: bool = False,
):
    """Mask predicate for packed copy-count constraints (plus non-bipartiteness)."""
    slot_u = [u for u, _ in slot_pairs(n)]
    slot_v = [v for _, v in slot_pairs(n)]

    def feasible(g: int) -> bool:
        for placements, allowed, cap in constraints:
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

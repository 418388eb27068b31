"""Level scanner for the exhaustive oracles.

A "level" is the set of labeled graphs on n vertices with a fixed edge count
m.  The scanner enumerates the smaller of the present/missing edge sides as
d-subsets of the M = C(n,2) edge slots in Gosper (colex-ascending) order and
tests each graph against copy-count constraints, optionally plus
non-bipartiteness.

Scan modes: stop at the first feasible graph, or sweep the whole level
keeping the feasible graph whose bit-reversed edge mask is smallest (that is
the graph6-lexicographically smallest witness).
"""

from __future__ import annotations

from dataclasses import dataclass

# graphs between deadline checks: about 50 ms of scanning
POLL_EVERY = 1 << 16


def pack_constraints(
    constraints: list[tuple[tuple[int, ...], set[int]]],
) -> list[tuple[tuple[int, ...], frozenset[int], int]]:
    """(placement masks, allowed count set) pairs -> (masks, allowed, max allowed)."""
    packed = []
    for placements, allowed in constraints:
        if not allowed:
            raise ValueError("empty allowed-count set")
        if min(allowed) < 0:
            raise ValueError("copy counts are non-negative")
        packed.append((tuple(placements), frozenset(allowed), max(allowed)))
    return packed


def _bipartite(g: int, m_slots: int, slot_u, slot_v, n: int) -> bool:
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
    n: int,
    m_slots: int,
    m_edges: int,
    constraints: list[tuple[tuple[int, ...], frozenset[int], int]],
    slot_u,
    slot_v,
    *,
    require_nonbip: bool = False,
    collect_min: bool = False,
    deadline=None,
    clock=None,
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

        feasible = True
        for placements, allowed, cap in constraints:
            cnt = 0
            for p in placements:
                if p & g == p:
                    cnt += 1
                    if cnt > cap:
                        break
            if cnt not in allowed:
                feasible = False
                break

        if feasible and require_nonbip:
            feasible = not _bipartite(g, m_slots, slot_u, slot_v, n)

        if feasible:
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
        if deadline is not None and explored % POLL_EVERY == 0 and clock() > deadline:
            return LevelResult(False, None, explored, True)

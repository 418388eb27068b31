"""Exact branch-and-bound search over the labeled graphs on n vertices.

The search decides the edge slots 0..M-1 in order, depth first.  Its state is
the edge count, the current edge mask and two int bitsets over the placement
indices of all constraints: `alive` (placements with no excluded slot) and
`done` (alive placements whose slots are all included).  `contains[s]` holds
the placements that use slot s and `ends[s]` those whose highest slot is s, so
including s completes the alive placements in `ends[s]` and excluding s kills
those in `contains[s]`.

A child is entered only while its edges plus the undecided slots can beat the
best feasible leaf found so far, and not when a constraint would have more
completed placements than its largest allowed count or fewer alive ones than
its smallest.  Membership in the allowed sets and any extra predicate
(non-bipartiteness) are checked at the leaves.

One walk, exclude first, keeps the best feasible leaf and replaces it only by
one with strictly more edges.  Exclude first visits the leaves in graph6 order
(slot 0 is the first graph6 bit), so every leaf visited before G*, the
graph6-smallest optimum, is not optimal and the best count stays below m*
along G*'s whole path.  The cap, min and bound cuts are sound, so none cuts
that path: G* is the first optimal leaf reached, and nothing after it beats it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

# search nodes between deadline checks
POLL_EVERY = 1 << 16


@dataclass
class SearchResult:
    value: int | None
    mask: int | None
    nodes: int
    timed_out: bool


class _Timeout(Exception):
    pass


def branch_and_bound(
    m_slots: int,
    constraints: list[tuple[tuple[int, ...], set[int]]],
    *,
    leaf_ok=None,
    deadline: float | None = None,
    clock=time.monotonic,
) -> SearchResult:
    """Most edges over masks on m_slots slots meeting every constraint.

    A constraint is a (placement masks, allowed count set) pair: the number
    of placements inside the mask must lie in the set.  `leaf_ok(mask)` is an
    extra predicate checked on feasible leaves.  The returned mask is the
    graph6-smallest optimum; value None with timed_out False means no mask
    qualifies.
    """
    contains = [0] * m_slots
    ends = [0] * m_slots
    checks = []  # (bits of one constraint, allowed, max, min)
    done0 = bit = 0
    for placements, allowed in constraints:
        if not allowed:
            raise ValueError("empty allowed-count set")
        if min(allowed) < 0:
            raise ValueError("copy counts are non-negative")
        cbits = 0
        for p in placements:
            cbits |= 1 << bit
            if p:
                ends[p.bit_length() - 1] |= 1 << bit
            else:
                done0 |= 1 << bit
            while p:
                low = p & -p
                contains[low.bit_length() - 1] |= 1 << bit
                p ^= low
            bit += 1
        checks.append((cbits, allowed, max(allowed), min(allowed)))
    caps = [(c, cap) for c, _, cap, _ in checks if cap < c.bit_count()]
    mins = [(c, lo) for c, _, _, lo in checks if lo > 0]
    alive0 = (1 << bit) - 1

    nodes = 0
    best = -1  # edge count of `found`, the best feasible leaf so far
    found = None

    def feasible_leaf(done: int, mask: int) -> bool:
        for c, allowed, _, _ in checks:
            if (done & c).bit_count() not in allowed:
                return False
        return leaf_ok is None or leaf_ok(mask)

    def over_cap(done: int) -> bool:
        for c, cap in caps:
            if (done & c).bit_count() > cap:
                return True
        return False

    def under_min(alive: int) -> bool:
        for c, lo in mins:
            if (alive & c).bit_count() < lo:
                return True
        return False

    def walk(s: int, edges: int, alive: int, done: int, mask: int) -> None:
        nonlocal nodes, best, found
        nodes += 1
        if nodes % POLL_EVERY == 0 and deadline is not None and clock() > deadline:
            raise _Timeout
        if s == m_slots:
            if feasible_leaf(done, mask):
                best, found = edges, mask
            return
        if edges + m_slots - s - 1 > best:
            killed = alive & contains[s]
            if not (killed and mins and under_min(alive ^ killed)):
                walk(s + 1, edges, alive ^ killed, done, mask)
        if edges + m_slots - s > best:
            new = alive & ends[s]
            if not (new and caps and over_cap(done | new)):
                walk(s + 1, edges + 1, alive, done | new, mask | 1 << s)

    try:
        if deadline is not None and clock() >= deadline:
            raise _Timeout
        if not (over_cap(done0) or under_min(alive0)):
            walk(0, 0, alive0, done0, 0)
    except _Timeout:
        return SearchResult(None, None, nodes, True)
    return SearchResult(None if found is None else best, found, nodes, False)

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

When the caller declares the constraints and the leaf predicate invariant
under relabeling the vertices of a graph of order n (slot order as in
`graphs.slot_pairs`), the walk adds the lex-leader cuts G <= tau(G) for the
adjacent transpositions tau = (k k+1) (Codish, Miller, Prosser and Stuckey,
"Constraints for symmetry breaking in graph representation", Constraints 24,
2019).  tau swaps the slots of {k, x} and {k+1, x} for each other vertex x; in
each such (earlier, later) slot pair both members increase in slot order, so
the pairs of one tau are completed in the order they are compared.  A bitset
`tied` holds the transpositions whose completed pairs are all equal so far.
Deciding the later slot of a pair of a tied tau cuts the branch when the
earlier slot holds 1 and the later 0 (G > tau(G)), and unties tau when the
earlier holds 0 and the later 1 (G < tau(G)).  Each slot is the later member
of at most two pairs: {u-1, v} under (u-1 u) and {u, v-1} under (v-1 v).

The cuts keep the same witness and visit a subset of the plain walk's nodes.
G* <= pi(G*) for every relabeling pi, so no cut removes G*.  A cut leaf G has
a feasible relabeled copy, the graph6-smallest in its orbit, that no cut
removes, that has the same edge count and that comes earlier in graph6 order.
So the best count is the same at every point of both walks.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from turantools.graphs import pair_count, slot_index, slot_pairs

# search nodes, and placements while the bitsets are built, between deadline checks
POLL_EVERY = 1 << 16


class SearchResult(NamedTuple):
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
    relabel_order: int | None = None,
    deadline: float | None = None,
    clock=time.monotonic,
) -> SearchResult:
    """Most edges over masks on m_slots slots meeting every constraint.

    A constraint is a (placement masks, allowed count set) pair: the number
    of placements inside the mask must lie in the set.  `leaf_ok(mask)` is an
    extra predicate checked on feasible leaves.  The returned mask is the
    graph6-smallest optimum; value None with timed_out False means no mask
    qualifies.

    `relabel_order=n` declares that m_slots is the pair count of order n and
    that the constraints and `leaf_ok` are invariant under relabeling the n
    vertices; it turns the lex-leader cuts on.
    """
    def expired() -> bool:
        return deadline is not None and clock() >= deadline

    for _, allowed in constraints:
        if not allowed:
            raise ValueError("empty allowed-count set")
        if min(allowed) < 0:
            raise ValueError("copy counts are non-negative")
    if expired():
        return SearchResult(None, None, 0, True)
    contains = [0] * m_slots
    ends = [0] * m_slots
    checks = []  # (bits of one constraint, allowed, max, min)
    done0 = bit = 0
    for placements, allowed in constraints:
        cbits = 0
        for p in placements:
            if bit and bit % POLL_EVERY == 0 and expired():
                return SearchResult(None, None, 0, True)
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

    # later[s]: (bit of tau, bit of the earlier slot) for each pair whose later slot is s
    later = [()] * m_slots
    tied0 = 0
    if relabel_order is not None:
        n = relabel_order
        if m_slots != pair_count(n):
            raise ValueError(f"{m_slots} slots are not the pairs of {n} vertices")
        index = slot_index(n)
        for s, (u, v) in enumerate(slot_pairs(n)):
            later[s] = tuple(
                (1 << k, 1 << index[a, b])
                for k, a, b in ((u - 1, u - 1, v), (v - 1, u, v - 1))
                if 0 <= k and a < b
            )
        tied0 = (1 << max(n - 1, 0)) - 1

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

    def walk(s: int, edges: int, alive: int, done: int, mask: int, tied: int) -> None:
        nonlocal nodes, best, found
        nodes += 1
        if nodes % POLL_EVERY == 0 and expired():
            raise _Timeout
        if s == m_slots:
            if feasible_leaf(done, mask):
                best, found = edges, mask
            return
        pairs = later[s]
        if edges + m_slots - s - 1 > best:
            killed = alive & contains[s]
            if not (killed and mins and under_min(alive ^ killed)):
                for k, a in pairs:
                    if tied & k and mask & a:
                        break
                else:
                    walk(s + 1, edges, alive ^ killed, done, mask, tied)
        if edges + m_slots - s > best:
            new = alive & ends[s]
            if not (new and caps and over_cap(done | new)):
                for k, a in pairs:
                    if not mask & a:
                        tied &= ~k
                walk(s + 1, edges + 1, alive, done | new, mask | 1 << s, tied)

    try:
        if not (over_cap(done0) or under_min(alive0)):
            walk(0, 0, alive0, done0, 0, tied0)
    except _Timeout:
        return SearchResult(None, None, nodes, True)
    return SearchResult(None if found is None else best, found, nodes, False)

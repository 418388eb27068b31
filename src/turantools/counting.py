"""Exact counting of pattern copies: subgraphs of a host isomorphic to a pattern.

A "copy" is an edge subset of the host whose graph is isomorphic to the
pattern, after discarding the pattern's isolated vertices.  Copies are counted
as injective adjacency-preserving embeddings divided by the pattern's
automorphism count; the division must be exact and is asserted.

Embeddings are counted by backtracking on the host's adjacency bitsets: each
step takes its candidate host vertices as one bitset, already cut to vertices
of large enough degree, unused, and adjacent to the images of the placed
pattern neighbours, and the last step adds that bitset's popcount.

The labeled copies of a pattern inside K_n, and the isomorphism classes of
small patterns, are orbits of edge-slot masks under the relabelings of the
vertices (`graphs.slot_orbit`); neither uses the embeddings counter, so the
two routes check each other.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from turantools.graphs import Graph, graph_from_mask, make_graph, pair_count, slot_orbit

AUT_ORDER_CAP = 10


def strip_isolated(g: Graph) -> Graph:
    """Restrict to vertices of positive degree, relabeled in increasing order."""
    keep = [v for v in range(g.n) if g.adj[v]]
    pos = {v: i for i, v in enumerate(keep)}
    edges = [(pos[u], pos[v]) for u, v in g.edges()]
    return make_graph(len(keep), edges)


def _pattern_order(f: Graph) -> list[int]:
    """Pattern vertices by decreasing degree, ties by label.

    High-degree vertices are placed first, where the degree filter of
    `_count_embeddings` leaves them the fewest candidate host vertices.
    """
    return sorted(range(f.n), key=lambda v: (-f.degree(v), v))


def _count_embeddings(host: Graph, pattern: Graph) -> int:
    """Injective maps pattern -> host sending pattern edges to host edges.

    Pattern vertices are placed in `_pattern_order`.  The host vertices that
    can take the k-th one form one bitset: those of large enough degree
    (`fits[k]`), minus the used ones, ANDed with the host rows of the images
    of its earlier pattern neighbours (Ullmann's candidate refinement).  The
    walk visits only the set bits of that bitset, and at the last pattern
    vertex it adds the bitset's popcount instead of recursing.
    """
    if pattern.n > host.n:
        return 0
    if pattern.n == 0:
        return 1
    order = _pattern_order(pattern)
    # earlier[k] = steps of the pattern neighbours of order[k] placed before it
    earlier = [
        [j for j in range(k) if pattern.has_edge(p, order[j])]
        for k, p in enumerate(order)
    ]
    host_deg = host.degrees()
    fits = []
    for p in order:
        d = pattern.degree(p)
        fits.append(sum(1 << w for w in range(host.n) if host_deg[w] >= d))
    adj = host.adj
    rows = [0] * pattern.n  # rows[j] = host row of the image of order[j]
    last = pattern.n - 1

    def extend(k: int, used: int) -> int:
        cand = fits[k] & ~used
        for j in earlier[k]:
            cand &= rows[j]
        if k == last:
            return cand.bit_count()
        total = 0
        while cand:
            bit = cand & -cand
            rows[k] = adj[bit.bit_length() - 1]
            total += extend(k + 1, used | bit)
            cand ^= bit
        return total

    return extend(0, 0)


@lru_cache(maxsize=None)
def automorphism_count(f: Graph) -> int:
    """|Aut(f)| by pruned backtracking over label permutations."""
    if f.n > AUT_ORDER_CAP:
        raise ValueError(f"automorphism search capped at {AUT_ORDER_CAP} vertices")
    if f.n == 0:
        return 1
    # An injective self-map preserving edges is an automorphism once edge
    # counts agree, which they do for a self-embedding.
    return _count_embeddings(f, f)


def count_copies(host: Graph, pattern: Graph) -> int:
    """Number of subgraphs of host isomorphic to pattern (isolated vertices ignored)."""
    f = strip_isolated(pattern)
    if f.n == 0:
        return 1
    emb = _count_embeddings(host, f)
    aut = automorphism_count(f)
    copies, rem = divmod(emb, aut)
    if rem:
        raise AssertionError(
            f"embedding count {emb} not divisible by |Aut|={aut}"
        )
    return copies


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return _count_embeddings(h, g) > 0


def count_family(host: Graph, fam) -> int:
    """Total copies over a family; members must be pairwise non-isomorphic.

    `fam` is either a GraphFamily (instantiated at the host's order) or a
    plain iterable of pattern graphs.
    """
    if hasattr(fam, "members"):
        members = fam.members(host.n)
    else:
        members = distinct_patterns(fam)
    return sum(count_copies(host, m) for m in members)


def distinct_patterns(graphs) -> tuple[Graph, ...]:
    """The graphs with isolated vertices stripped; ValueError if two are isomorphic."""
    stripped = tuple(strip_isolated(g) for g in graphs)
    for a, b in combinations(stripped, 2):
        if are_isomorphic(a, b):
            raise ValueError("family members must be pairwise non-isomorphic")
    return stripped


@lru_cache(maxsize=None)
def labeled_copies(n: int, pattern: Graph) -> tuple[int, ...]:
    """All copies of pattern inside K_n, as edge-slot masks, ascending.

    Each mask is one distinct edge subset of K_n isomorphic to the stripped
    pattern, so for any graph G on n vertices the number of masks contained
    in G's edge mask equals count_copies(G, pattern).  The copies are the
    orbit of the pattern's own mask (its vertices 0..f.n-1 keep their slots
    in K_n) under the relabelings of K_n.
    """
    f = strip_isolated(pattern)
    if f.n > n:
        return ()
    return tuple(sorted(slot_orbit(n, f.edge_mask())))


@lru_cache(maxsize=None)
def all_pattern_classes(max_order: int) -> tuple[Graph, ...]:
    """Non-isomorphic graphs with >= 1 edge and no isolated vertices, order <= max_order.

    Each class is represented by the first edge mask on max_order vertices,
    in ascending order, that yields it: the masks are walked in ascending
    order, and each one outside the orbits found so far starts a new class
    and adds its orbit.
    """
    found = []
    covered: set[int] = set()
    for mask in range(1, 1 << pair_count(max_order)):
        if mask not in covered:
            found.append(strip_isolated(graph_from_mask(max_order, mask)))
            covered |= slot_orbit(max_order, mask)
    found.sort(key=lambda g: (g.n, g.edge_count(), g.edge_mask()))
    return tuple(found)

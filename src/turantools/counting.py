"""Exact counting of pattern copies: subgraphs of a host isomorphic to a pattern.

A "copy" is an edge subset of the host whose graph is isomorphic to the
pattern, after discarding the pattern's isolated vertices.  Each copy is the
image of |Aut(f)| embeddings (injective adjacency-preserving maps); the walk
counts exactly one of them, so it returns the copy count with no division.
Its conditions come from a stabilizer chain of Aut(f) (Grochow and Kellis,
RECOMB 2007): the image of each pattern vertex must lie below the images of
the vertices it can still be swapped with, given the ones placed before it.
They are built once per pattern (`_plan`), which asserts that under them the
pattern's walk into itself finds exactly one map.

The walk backtracks on the host's adjacency bitsets: each step takes its
candidate host vertices as one bitset, already cut to vertices of large
enough degree, unused, adjacent to the images of the placed pattern
neighbours and above the images the conditions name, and the last step adds
that bitset's popcount.  `count_copies`, `automorphism_count` and
`are_isomorphic` all use it; `copy_maps` walks the same candidates and
yields each copy's map instead of counting it.

The labeled copies of a pattern inside K_n, and the isomorphism classes of
small patterns, are orbits of edge-slot masks under the relabelings of the
vertices (`graphs.slot_orbit`); neither uses the walk, so the two routes
check each other.  `orbit_firsts` is the one walk that picks a class's
representative: the first of its masks in a given order.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from turantools.graphs import Graph, graph_from_mask, make_graph, pair_count, slot_orbit

AUT_ORDER_CAP = 10


def strip_isolated(g: Graph) -> Graph:
    """Restrict to vertices of positive degree, relabeled in increasing order;
    g itself when it has no isolated vertex."""
    if all(g.adj):
        return g
    keep = [v for v in range(g.n) if g.adj[v]]
    pos = {v: i for i, v in enumerate(keep)}
    edges = [(pos[u], pos[v]) for u, v in g.edges()]
    return make_graph(len(keep), edges)


def _pattern_order(f: Graph) -> list[int]:
    """Pattern vertices by decreasing degree, ties by label.

    High-degree vertices are placed first, where the degree filter of
    `_walk` leaves them the fewest candidate host vertices.  Each vertex has
    the least label among the vertices of its degree placed after it, which
    the identity map's conditions in `_plan` rely on.
    """
    return sorted(range(f.n), key=lambda v: (-f.degree(v), v))


class _Plan(NamedTuple):
    """How to walk the embeddings of one pattern, step k placing order[k].

    `earlier[k]` are the steps of its pattern neighbours placed before it,
    `degree[k]` its degree, and `above[k]` the steps whose host images the
    image of step k must exceed; `aut` is |Aut(f)|.
    """

    order: tuple[int, ...]
    degree: tuple[int, ...]
    earlier: tuple[tuple[int, ...], ...]
    above: tuple[tuple[int, ...], ...]
    aut: int


def _walk(adj, fits, earlier, above) -> int:
    """Injective maps of a pattern into the host rows `adj` that send edges
    to edges, with step k's image in the bitset `fits[k]` and above the
    images of the steps in `above[k]`; `earlier` and `above` as in `_Plan`.

    The candidates of step k form one bitset: `fits[k]` minus the used
    vertices, ANDed with the host rows of the images of its earlier pattern
    neighbours (Ullmann's candidate refinement) and with -(bit << 1), the
    vertices above the image bit, of each step in `above[k]`.  The walk visits
    only the set bits, and at the last step it adds the popcount instead of
    recursing.
    """
    rows = [0] * len(fits)  # rows[j] = host row of the image of step j
    bits = [0] * len(fits)  # bits[j] = the image of step j, as one bit
    last = len(fits) - 1

    def extend(k: int, used: int) -> int:
        cand = fits[k] & ~used
        for j in earlier[k]:
            cand &= rows[j]
        for j in above[k]:
            cand &= -(bits[j] << 1)
        if k == last:
            return cand.bit_count()
        total = 0
        while cand:
            bit = cand & -cand
            rows[k] = adj[bit.bit_length() - 1]
            bits[k] = bit
            total += extend(k + 1, used | bit)
            cand ^= bit
        return total

    return extend(0, 0) if fits else 1


def _fits(host: Graph, degree: tuple[int, ...]) -> list[int]:
    """Per step, the host vertices of at least that step's `degree`."""
    host_deg = host.degrees()
    by_degree = {
        d: sum(1 << w for w in range(host.n) if host_deg[w] >= d) for d in set(degree)
    }
    return [by_degree[d] for d in degree]


@lru_cache(maxsize=None)
def _plan(f: Graph) -> _Plan:
    """The walk plan of f, with conditions under which each copy is found once.

    Let G_k be the automorphisms of f fixing order[0..k-1] and O_k the orbit
    of order[k] under G_k (a stabilizer chain).  Requiring the image of
    order[k] to lie below the image of every other member of O_k keeps
    exactly one map of each coset phi.Aut(f) (Grochow and Kellis, RECOMB
    2007), and |Aut(f)| is the product of the orbit sizes.  Members of O_k
    are placed after step k (the earlier steps are fixed), so the condition
    goes to their steps' `above` lists.

    O_k is found by walking f into itself with steps 0..k-1 pinned to the
    identity, under the conditions of the later levels, found first: those
    keep exactly one map of each coset sigma.G_{k+1}, so a walk with step k
    pinned to w finds one map when w is in O_k and none otherwise, and a
    walk with step k free counts |O_k|.  Only later vertices of order[k]'s
    degree with its neighbours among the pinned ones can be in O_k; each is
    walked alone only when the free walk finds some of them but not all.
    With every level's conditions, the walk of f into f must then find
    exactly one map, the identity; this is asserted.
    """
    order = tuple(_pattern_order(f))
    degree = tuple(f.degree(v) for v in order)
    earlier = tuple(
        tuple(j for j in range(k) if f.has_edge(p, order[j]))
        for k, p in enumerate(order)
    )
    fits = _fits(f, degree)
    above: list[tuple[int, ...]] = [()] * f.n
    aut = 1
    for k in range(f.n - 1, -1, -1):
        pinned = [1 << v for v in order[:k]]
        fixed = sum(pinned)
        near = f.adj[order[k]] & fixed
        others = [  # later steps that may hold a member of O_k
            j
            for j in range(k + 1, f.n)
            if degree[j] == degree[k] and f.adj[order[j]] & fixed == near
        ]
        if not others:
            continue
        free = sum(1 << order[j] for j in others) | 1 << order[k]
        size = _walk(f.adj, pinned + [free] + fits[k + 1:], earlier, above)
        if size == 1:
            continue
        if size <= len(others):
            others = [
                j
                for j in others
                if _walk(f.adj, pinned + [1 << order[j]] + fits[k + 1:], earlier, above)
            ]
        aut *= size
        for j in others:
            above[j] = (k,) + above[j]
    if _walk(f.adj, fits, earlier, above) != 1:
        raise AssertionError(f"the conditioned self-walk of {f} is not one map")
    return _Plan(order, degree, earlier, tuple(above), aut)


def automorphism_count(f: Graph) -> int:
    """|Aut(f)|: the product of the orbit sizes of the stabilizer chain."""
    if f.n > AUT_ORDER_CAP:
        raise ValueError(f"automorphism search capped at {AUT_ORDER_CAP} vertices")
    return _plan(f).aut


def _copies(host: Graph, f: Graph) -> int:
    """Copies of f (no isolated vertices) in host: its conditioned walk."""
    if f.n > host.n:
        return 0
    plan = _plan(f)
    return _walk(host.adj, _fits(host, plan.degree), plan.earlier, plan.above)


def copy_maps(host: Graph, f: Graph):
    """Each copy of f (no isolated vertices) in host once, as its map in f's
    vertex order: the image of vertex v, as one bit, at position v.

    The same candidate bitsets as `_walk` under f's plan, but the last step
    walks its set bits too and yields each map instead of adding a popcount.
    """
    plan = _plan(f)
    fits = _fits(host, plan.degree)
    adj, order, earlier = host.adj, plan.order, plan.earlier
    above = [[order[j] for j in steps] for steps in plan.above]  # as vertices
    image = [0] * f.n  # image[v] = the image of vertex v, as one bit
    rows = [0] * f.n  # rows[k] = host row of the image of step k
    last = f.n - 1

    def extend(k: int, used: int):
        cand = fits[k] & ~used
        for j in earlier[k]:
            cand &= rows[j]
        for v in above[k]:
            cand &= -(image[v] << 1)
        while cand:
            bit = cand & -cand
            image[order[k]] = bit
            if k == last:
                yield tuple(image)
            else:
                rows[k] = adj[bit.bit_length() - 1]
                yield from extend(k + 1, used | bit)
            cand ^= bit

    yield from extend(0, 0) if fits else [()]


def count_copies(host: Graph, pattern: Graph) -> int:
    """Number of subgraphs of host isomorphic to pattern (isolated vertices ignored)."""
    f = strip_isolated(pattern)
    if f.n > AUT_ORDER_CAP:
        raise ValueError(f"automorphism search capped at {AUT_ORDER_CAP} vertices")
    return _copies(host, f)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return _copies(h, g) > 0


def count_family(host: Graph, fam) -> int:
    """Total copies over a GraphFamily's members at the host's order."""
    return sum(count_copies(host, m) for m in fam.members(host.n))


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


def orbit_firsts(n: int, masks) -> list[Graph]:
    """The graph on n vertices of each mask outside the orbits of the masks
    before it: one per class the masks meet, the first of it in their order.

    Each class is covered by `labeled_copies`, so the orbits are built once
    and cached for the placements of the classes found.
    """
    firsts: list[Graph] = []
    covered: set[int] = set()
    for mask in masks:
        if mask not in covered:
            firsts.append(graph_from_mask(n, mask))
            covered.update(labeled_copies(n, firsts[-1]))
    return firsts


@lru_cache(maxsize=None)
def all_pattern_classes(max_order: int) -> tuple[Graph, ...]:
    """Non-isomorphic graphs with >= 1 edge and no isolated vertices, order <= max_order.

    Each class is represented by the first edge mask on max_order vertices,
    in ascending order, that yields it (`orbit_firsts`), stripped; the
    classes are sorted by order, edge count and edge mask.
    """
    if max_order < 0:
        raise ValueError(f"pattern order must be non-negative, got {max_order}")
    found = [
        strip_isolated(g)
        for g in orbit_firsts(max_order, range(1, 1 << pair_count(max_order)))
    ]
    found.sort(key=lambda g: (g.n, g.edge_count(), g.edge_mask()))
    return tuple(found)

"""Finite graph families: explicit pattern sets or named generators over n.

A family yields its members (pairwise non-isomorphic patterns, isolated
vertices stripped) for a given ambient order, plus the full list of labeled
placements inside K_n used by the oracles and the query game.  The trees are
grown a leaf at a time from the classes one order down, and each class is
represented by the first of its grown masks (`counting.orbit_firsts`).
"""

from __future__ import annotations

from functools import lru_cache

from turantools.counting import distinct_patterns, labeled_copies, orbit_firsts
from turantools.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    clique_minus_edge,
    cycle_graph,
    decode_graph6,
    make_graph,
    matching_graph,
    pair_count,
    star_graph,
)

TREES_ORDER_CAP = 7


@lru_cache(maxsize=None)
def tree_classes(n: int) -> tuple[Graph, ...]:
    """Non-isomorphic trees on n vertices, one per class.

    Every tree on n >= 2 vertices is a tree on n - 1 vertices plus a leaf, so
    joining vertex n - 1 to each vertex of each class on n - 1 vertices meets
    every class.  The grown masks are sorted, and each outside the orbits
    found so far starts a class (`orbit_firsts`).
    """
    if n < 1:
        raise ValueError(f"a tree needs at least one vertex, got n={n}")
    if n > TREES_ORDER_CAP:
        raise ValueError(f"tree enumeration capped at {TREES_ORDER_CAP} vertices")
    if n == 1:
        return (make_graph(1, []),)
    leaf = 1 << pair_count(n - 1)  # slot (0, n-1); slot (v, n-1) is leaf << v
    grown = {t.edge_mask() | leaf << v for t in tree_classes(n - 1) for v in range(n - 1)}
    return tuple(orbit_firsts(n, sorted(grown)))


class GraphFamily:
    """A finite set of patterns, explicit or generated from the ambient order."""

    def __init__(self, spec: str, graphs: tuple[Graph, ...] | None = None):
        self.spec = spec
        self._graphs = graphs

    def __repr__(self) -> str:
        return f"GraphFamily({self.spec!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, GraphFamily) and self.spec == other.spec and (
            self._graphs == other._graphs
        )

    def __hash__(self) -> int:
        return hash((self.spec, self._graphs))

    @classmethod
    def explicit(cls, graphs, label: str = "explicit") -> "GraphFamily":
        return cls(label, tuple(graphs))

    def members(self, n: int) -> tuple[Graph, ...]:
        """Stripped, pairwise non-isomorphic members for ambient order n.

        A member larger than the ambient order is allowed; it simply has no
        placements there.
        """
        return distinct_patterns(self._raw_members(n))

    def _raw_members(self, n: int) -> tuple[Graph, ...]:
        if self._graphs is not None:
            return self._graphs
        out: tuple[Graph, ...] = ()
        for piece in self.spec.split("+"):
            out = out + _generate(piece.strip(), n)
        return out

    @lru_cache(maxsize=None)
    def placements(self, n: int) -> tuple[int, ...]:
        """All labeled copies of all members in K_n, as edge-slot masks,
        ascending; memoized per (family, n)."""
        masks: list[int] = []
        for m in self.members(n):
            masks.extend(labeled_copies(n, m))
        return tuple(sorted(masks))

    def uniform_edge_count(self, n: int) -> int | None:
        """Common member edge count, or None if members differ."""
        counts = {m.edge_count() for m in self.members(n)}
        if len(counts) == 1:
            return counts.pop()
        return None


def _generate(spec: str, n: int) -> tuple[Graph, ...]:
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    if name == "star":
        if n < 2:
            raise ValueError("spanning star needs n >= 2")
        return (star_graph(n - 1),)
    if name == "trees":
        return tree_classes(n)
    if name == "clique":
        r = int(arg)
        if r < 2:
            raise ValueError(f"clique size must be at least 2, got {r}")
        return (complete_graph(r),)
    if name == "matching":
        l = int(arg)
        if l % 2 or l < 2:
            raise ValueError(f"matching order must be even and >= 2, got {l}")
        return (matching_graph(l),)
    if name == "hamcycle":
        if n < 3:
            raise ValueError("hamiltonian cycle needs n >= 3")
        return (cycle_graph(n),)
    if name == "perfmatching":
        if n % 2:
            raise ValueError("perfect matching needs even n")
        return (matching_graph(n),)
    if name == "kminus":
        if n < 3:
            raise ValueError("K_n minus an edge needs n >= 3")
        return (clique_minus_edge(n),)
    if name == "bipartite":
        a_str, _, b_str = arg.partition(",")
        a, b = int(a_str), int(b_str)
        if a < 1 or b < 1 or a + b != n:
            raise ValueError(f"bipartite parts {a},{b} must sum to n={n}")
        return (complete_bipartite(a, b),)
    raise ValueError(f"unknown family spec {spec!r}")


def parse_family(spec: str) -> GraphFamily:
    """Parse a CLI family spec.

    Named generators: star, trees, clique:R, matching:L, hamcycle,
    perfmatching, kminus, bipartite:A,B; join alternatives with '+'.
    '@file' reads one graph6 pattern per line.
    """
    spec = spec.strip()
    if spec.startswith("@"):
        path = spec[1:]
        with open(path, "r", encoding="ascii") as fh:
            graphs = tuple(
                decode_graph6(line) for line in fh if line.strip()
            )
        if not graphs:
            raise ValueError(f"no graph6 patterns in {path}")
        return GraphFamily.explicit(graphs, label=spec)
    return GraphFamily(spec)

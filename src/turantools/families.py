"""Finite graph families: explicit pattern sets or named generators over n.

A family yields its members (pairwise non-isomorphic patterns, isolated
vertices stripped) for a given ambient order, plus the full list of labeled
placements inside K_n used by the oracles and the query game.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from itertools import product

from turantools.counting import are_isomorphic, labeled_copies, strip_isolated
from turantools.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    clique_minus_edge,
    cycle_graph,
    decode_graph6,
    make_graph,
    matching_graph,
    star_graph,
)

TREES_ORDER_CAP = 7


def _labeled_trees(n: int):
    """Edge lists of all labeled trees on n vertices, in Prufer-sequence order."""
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(0, 1)]
        return
    for seq in product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        edges = []
        leaves = [v for v in range(n) if degree[v] == 1]
        heapq.heapify(leaves)
        for v in seq:
            leaf = heapq.heappop(leaves)
            edges.append((leaf, v))
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(leaves, v)
        u = heapq.heappop(leaves)
        v = heapq.heappop(leaves)
        edges.append((u, v))
        yield edges


def _tree_code(n: int, edges) -> str:
    """Canonical code of a tree: the AHU string rooted at its centre.

    A bicentral tree joins the sorted codes of the two halves, so two trees
    share a code exactly when they are isomorphic.
    """
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    degree = [len(a) for a in nbrs]
    layer = [v for v in range(n) if degree[v] <= 1]
    left = n
    while left > 2:  # peel leaves until the centre (one or two vertices) remains
        left -= len(layer)
        nxt = []
        for leaf in layer:
            for w in nbrs[leaf]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        layer = nxt

    def code(v: int, parent: int) -> str:
        return "(" + "".join(sorted(code(w, v) for w in nbrs[v] if w != parent)) + ")"

    if len(layer) == 1:
        return code(layer[0], -1)
    a, b = layer
    return "".join(sorted((code(a, b), code(b, a))))


@lru_cache(maxsize=None)
def tree_classes(n: int) -> tuple[Graph, ...]:
    """Non-isomorphic trees on n vertices: the first labeled tree of each class."""
    if n > TREES_ORDER_CAP:
        raise ValueError(f"tree enumeration capped at {TREES_ORDER_CAP} vertices")
    reps: dict[str, Graph] = {}
    for edges in _labeled_trees(n):
        key = _tree_code(n, edges)
        if key not in reps:
            reps[key] = make_graph(n, edges)
    return tuple(reps.values())


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
        raw = self._raw_members(n)
        stripped = [strip_isolated(g) for g in raw]
        for i, a in enumerate(stripped):
            for b in stripped[i + 1:]:
                if are_isomorphic(a, b):
                    raise ValueError("family members must be pairwise non-isomorphic")
        return tuple(stripped)

    def _raw_members(self, n: int) -> tuple[Graph, ...]:
        if self._graphs is not None:
            return self._graphs
        out: tuple[Graph, ...] = ()
        for piece in self.spec.split("+"):
            out = out + _generate(piece.strip(), n)
        return out

    def placements(self, n: int) -> tuple[int, ...]:
        """All labeled copies of all members in K_n, as edge-slot masks."""
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

"""Explicit extremal graphs with machine-checked contracts.

Each builder returns a ConstructionReport: the graph, its contracted edge and
copy counts, and the actually measured ones.  Copy counts are always measured
with the generic counter, never assumed from the construction.
"""

from __future__ import annotations

from typing import NamedTuple

from turantools.counting import count_copies
from turantools.graphs import (
    Graph,
    complement,
    complete_bipartite,
    complete_graph,
    encode_graph6,
    make_graph,
    path_forest,
    star_graph,
    turan_graph,
)
from turantools.partitions import PartitionPair, is_unique_partition


class ConstructionReport(NamedTuple):
    graph: Graph
    expected_edges: int
    actual_edges: int
    expected_copies: int
    actual_copies: int

    @property
    def ok(self) -> bool:
        return (
            self.expected_edges == self.actual_edges
            and self.expected_copies == self.actual_copies
        )

    def to_json(self) -> dict:
        return {
            "graph6": encode_graph6(self.graph),
            "expected_edges": self.expected_edges,
            "actual_edges": self.actual_edges,
            "expected_copies": self.expected_copies,
            "actual_copies": self.actual_copies,
            "ok": self.ok,
        }


def _report(graph: Graph, pattern: Graph, expected_edges: int, expected_copies: int) -> ConstructionReport:
    return ConstructionReport(
        graph=graph,
        expected_edges=expected_edges,
        actual_edges=graph.edge_count(),
        expected_copies=expected_copies,
        actual_copies=count_copies(graph, pattern),
    )


def build_klikk(n: int, r: int) -> ConstructionReport:
    """Max-edge graph with a single r-clique.

    A K_r on labels 0..r-1, a balanced complete (r-1)-partite graph on the
    remaining n-r labels with classes V_1..V_{r-1}, and every vertex of V_i
    joined to the whole K_r except clique vertices i-1 and i (1-based: v_i
    and v_{i+1}).  Contract: exactly one K_r and
    C(r,2) + (r-2)(n-r) + |E(T(n-r, r-1))| edges.
    """
    if r < 3:
        raise ValueError("clique size must be at least 3")
    if r > n:
        raise ValueError(f"need r <= n, got r={r}, n={n}")
    edges = list(complete_graph(r).edges())
    rest = n - r
    if rest:
        # classes V_1..V_{r-1}; with rest < r-1 the trailing classes are empty
        tur = turan_graph(rest, min(rest, r - 1))
        edges.extend((r + u, r + v) for u, v in tur.edges())
        base, extra = divmod(rest, r - 1)
        sizes = [base + 1] * extra + [base] * (r - 1 - extra)
        cls = []
        for idx, s in enumerate(sizes, start=1):
            cls.extend([idx] * s)
        for u in range(rest):
            i = cls[u]
            for w in range(r):
                if w not in (i - 1, i):  # skip v_i and v_{i+1} (0-based labels)
                    edges.append((w, r + u))
    g = make_graph(n, edges)
    expected = r * (r - 1) // 2 + (r - 2) * (n - r)
    if rest:
        expected += turan_graph(rest, min(rest, r - 1)).edge_count()
    return _report(g, complete_graph(r), expected, 1)


def build_triangle_k(n: int, k: int) -> ConstructionReport:
    """Max-edge graph with exactly k triangles (for large enough n).

    Balanced complete bipartite graph on n-1 vertices plus an apex joined to
    one vertex of the smaller class and k vertices of the larger class.
    Contract: exactly k triangles and floor((n-1)^2/4) + k + 1 edges.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if n < k + 2:
        raise ValueError(f"need n >= k + 2, got n={n}, k={k}")
    small = (n - 1) // 2
    large = n - 1 - small
    if k > large:
        raise ValueError(f"class of size {large} cannot host {k} apex edges")
    # labels: 0..small-1 small class, small..n-2 large class, n-1 apex
    edges = [(i, small + j) for i in range(small) for j in range(large)]
    apex = n - 1
    edges.append((0, apex))
    edges.extend((small + j, apex) for j in range(k))
    g = make_graph(n, edges)
    expected = (n - 1) ** 2 // 4 + k + 1
    return _report(g, complete_graph(3), expected, k)


def build_unique_kab(a_sum: int, b_sum: int, pp: PartitionPair) -> ConstructionReport:
    """Max-edge graph with a single spanning K_{A,B}, from a unique partition.

    The complement of a path forest with one path per part.  Contract:
    exactly one spanning complete bipartite copy and
    C(A+B,2) - A - B + (a+b) edges.
    """
    if not is_unique_partition(a_sum, b_sum, pp):
        raise ValueError(f"{pp} is not a unique partition of ({a_sum}, {b_sum})")
    parts = list(pp.parts_a) + list(pp.parts_b)
    g = complement(path_forest(parts))
    n = a_sum + b_sum
    expected = n * (n - 1) // 2 - n + len(parts)
    return _report(g, complete_bipartite(a_sum, b_sum), expected, 1)


def build_star_k(n: int, r: int, k: int) -> ConstructionReport:
    """Graph with exactly k stars of r leaves and n(r-1)/2 + k/2 edges.

    n/r disjoint K_r components, then k/2 extra edges between distinct
    component pairs with all endpoints previously untouched: each extra edge
    raises exactly two vertices to degree r, each centering one star.
    Needs r | n, k even, and k <= 2*floor(n/(2r)).
    """
    if r < 2:
        raise ValueError("star size must be at least 2")
    if n % r:
        raise ValueError(f"need r | n, got n={n}, r={r}")
    if k % 2:
        raise ValueError("copy count must be even")
    comps = n // r
    if k > 2 * (comps // 2):
        raise ValueError(
            f"need k <= 2*floor(n/(2r)) = {2 * (comps // 2)}, got k={k}"
        )
    edges = []
    for c in range(comps):
        base = c * r
        edges.extend(
            (base + u, base + v) for u in range(r) for v in range(u + 1, r)
        )
    for i in range(k // 2):
        edges.append((2 * i * r, (2 * i + 1) * r))
    g = make_graph(n, edges)
    expected = n * (r - 1) // 2 + k // 2
    return _report(g, star_graph(r), expected, k)

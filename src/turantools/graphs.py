"""Labeled simple graphs on at most 32 vertices, stored as per-vertex bitmasks.

Vertices are labels 0..n-1.  Every operation is pure; Graph values are
immutable and hashable.

Edge "slots" index the unordered pairs in graph6 bit order: (0,1), (0,2),
(1,2), (0,3), (1,3), (2,3), ...  Edge-set bitmasks over these slots are the
interchange currency between this module, the copy counters, the exhaustive
oracles and the game solver.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

MAX_VERTICES = 32

Edge = tuple[int, int]


@lru_cache(maxsize=None)
def slot_pairs(n: int) -> tuple[Edge, ...]:
    """All unordered pairs on 0..n-1 in graph6 bit order (slot index order)."""
    return tuple((i, j) for j in range(1, n) for i in range(j))


@lru_cache(maxsize=None)
def slot_index(n: int) -> dict[Edge, int]:
    """Map (u, v) with u < v to its slot index for ambient order n."""
    return {pair: s for s, pair in enumerate(slot_pairs(n))}


@lru_cache(maxsize=None)
def _transposition_swaps(n: int) -> tuple[tuple[int, int, int], ...]:
    """(far, k, near) delta-swap masks of each adjacent transposition (k k+1).

    It exchanges slot {x,k} with {x,k+1}, k slots later, for x < k (`far`
    holds the lower slots) and {k,y} with {k+1,y}, the next slot, for y > k+1
    (`near`).
    """
    idx = slot_index(n)
    return tuple(
        (sum(1 << idx[x, k] for x in range(k)), k, sum(1 << idx[k, y] for y in range(k + 2, n)))
        for k in range(n - 1)
    )


def slot_orbit(n: int, mask: int) -> set[int]:
    """Orbit of an edge-slot mask under relabeling the n vertices: a closure
    under the adjacent transpositions, which generate S_n, each applied as two
    masked delta swaps (Knuth, TAOCP 4A 7.1.3)."""
    gens = _transposition_swaps(n)
    orbit = {mask}
    todo = [mask]
    while todo:
        m = todo.pop()
        for far, k, near in gens:
            t = ((m >> k) ^ m) & far
            g = m ^ t ^ (t << k)
            t = ((g >> 1) ^ g) & near
            g ^= t ^ (t << 1)
            if g not in orbit:
                orbit.add(g)
                todo.append(g)
    return orbit


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


class Graph:
    """Immutable labeled simple graph; adjacency as one bitmask per vertex."""

    __slots__ = ("n", "adj", "_hash")

    def __init__(self, n: int, adj: tuple[int, ...]):
        self.n = n
        self.adj = adj
        self._hash = hash((n, adj))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges())})"

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(a.bit_count() for a in self.adj)

    def min_degree(self) -> int:
        return min(self.degrees(), default=0)

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def edges(self) -> tuple[Edge, ...]:
        """Edges as (u, v) with u < v, sorted."""
        return tuple(
            (u, v) for u in range(self.n) for v in range(u + 1, self.n)
            if self.adj[u] >> v & 1
        )

    def neighbors(self, v: int) -> tuple[int, ...]:
        a = self.adj[v]
        return tuple(u for u in range(self.n) if a >> u & 1)

    def edge_mask(self) -> int:
        """Edge set as a bitmask over the ambient slot order."""
        mask = 0
        for s, (u, v) in enumerate(slot_pairs(self.n)):
            if self.adj[u] >> v & 1:
                mask |= 1 << s
        return mask

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Image under the vertex permutation v -> perm[v]."""
        adj = [0] * self.n
        for u in range(self.n):
            a = self.adj[u]
            pu = perm[u]
            row = 0
            for v in range(self.n):
                if a >> v & 1:
                    row |= 1 << perm[v]
            adj[pu] = row
        return Graph(self.n, tuple(adj))

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            v = 0
            f = frontier
            while f:
                if f & 1:
                    nxt |= self.adj[v]
                f >>= 1
                v += 1
            frontier = nxt & ~seen
            seen |= frontier
        return seen == (1 << self.n) - 1


def check_order(n: int) -> None:
    """Reject an order outside 0..MAX_VERTICES, the word cap of every engine."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in 0..{MAX_VERTICES}, got {n}")


def make_graph(n: int, edges: Iterable[Edge]) -> Graph:
    """Build a graph on n labeled vertices with exactly the given edges.

    Rejects loops, out-of-range endpoints and orders above the word cap.
    """
    check_order(n)
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def graph_from_mask(n: int, mask: int) -> Graph:
    """Graph from an edge-slot bitmask (ambient slot order for n)."""
    adj = [0] * n
    pairs = slot_pairs(n)
    m = mask
    while m:
        s = (m & -m).bit_length() - 1
        u, v = pairs[s]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        m &= m - 1
    return Graph(n, tuple(adj))


def mask_from_edges(n: int, edges: Iterable[Edge]) -> int:
    idx = slot_index(n)
    mask = 0
    for u, v in edges:
        if u > v:
            u, v = v, u
        mask |= 1 << idx[(u, v)]
    return mask


def empty_graph(n: int) -> Graph:
    check_order(n)
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    check_order(n)
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def complement(g: Graph) -> Graph:
    """Edge present iff absent in g (no loops)."""
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full ^ a ^ (1 << v)) for v, a in enumerate(g.adj)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Blockwise relabeled union; h's vertices are shifted past g's."""
    n = g.n + h.n
    check_order(n)
    adj = list(g.adj) + [a << g.n for a in h.adj]
    return Graph(n, tuple(adj))


def turan_graph(n: int, r: int) -> Graph:
    """Balanced complete r-partite graph on n vertices; part sizes differ by <= 1."""
    check_order(n)
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    base, extra = divmod(n, r)
    sizes = [base + 1] * extra + [base] * (r - extra)
    part_mask = []
    start = 0
    for s in sizes:
        part_mask.append(((1 << s) - 1) << start)
        start += s
    full = (1 << n) - 1
    adj = []
    for pm, s in zip(part_mask, sizes):
        for _ in range(s):
            adj.append(full ^ pm)
    return Graph(n, tuple(adj))


def path_graph(k: int) -> Graph:
    """Path on k vertices, 0-1-2-...-(k-1)."""
    return make_graph(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return make_graph(k, [(i, (i + 1) % k) for i in range(k)])


def star_graph(leaves: int) -> Graph:
    """Star with the given number of leaves: K_{1,leaves}, center 0."""
    return make_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def matching_graph(k: int) -> Graph:
    """Perfect matching on k vertices (k even): edges (0,1), (2,3), ..."""
    if k % 2:
        raise ValueError("matching needs an even vertex count")
    return make_graph(k, [(i, i + 1) for i in range(0, k, 2)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: part {0..a-1} against part {a..a+b-1}."""
    return make_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def clique_minus_edge(n: int) -> Graph:
    """K_n with the edge (0,1) removed."""
    if n < 2:
        raise ValueError("need n >= 2")
    g = complete_graph(n)
    adj = list(g.adj)
    adj[0] ^= 1 << 1
    adj[1] ^= 1 << 0
    return Graph(n, tuple(adj))


def path_forest(sizes: Sequence[int]) -> Graph:
    """Disjoint union of paths, one per size; total edges sum(s_i - 1)."""
    if any(s < 1 for s in sizes):
        raise ValueError("path sizes must be positive")
    n = sum(sizes)
    check_order(n)
    edges = []
    start = 0
    for s in sizes:
        edges.extend((start + i, start + i + 1) for i in range(s - 1))
        start += s
    return make_graph(n, edges)


# -- graph6 ------------------------------------------------------------------
#
# De-facto standard: one size byte chr(n+63) for n < 63, then the upper
# triangle x(0,1) x(0,2) x(1,2) x(0,3) ... packed big-endian 6 bits per
# character, each offset by 63.  Our slot order equals the bit order, so the
# body is just the edge mask read MSB-first.

_G6_HEADER = ">>graph6<<"


def encode_graph6(g: Graph) -> str:
    if g.n >= 63:
        raise ValueError("graph6 single-byte size requires n < 63")
    m = pair_count(g.n)
    mask = g.edge_mask()
    chars = [chr(63 + g.n)]
    for group in range(0, m, 6):
        word = 0
        for b in range(6):
            s = group + b
            word <<= 1
            if s < m and mask >> s & 1:
                word |= 1
        chars.append(chr(63 + word))
    return "".join(chars)


def decode_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise ValueError("empty graph6 string")
    n = ord(s[0]) - 63
    if not 0 <= n < 63:
        raise ValueError(f"unsupported graph6 size byte {s[0]!r}")
    if n > MAX_VERTICES:
        raise ValueError(f"graph6 order {n} exceeds the {MAX_VERTICES}-vertex cap")
    m = pair_count(n)
    body = s[1:]
    expected = (m + 5) // 6
    if len(body) != expected:
        raise ValueError(
            f"graph6 body length {len(body)} != {expected} for n={n}"
        )
    mask = 0
    bit = 0
    for ch in body:
        word = ord(ch) - 63
        if not 0 <= word < 64:
            raise ValueError(f"invalid graph6 character {ch!r}")
        for b in range(5, -1, -1):
            if bit < m:
                if word >> b & 1:
                    mask |= 1 << bit
            elif word >> b & 1:
                raise ValueError("nonzero padding bits in graph6 body")
            bit += 1
    return graph_from_mask(n, mask)


# -- bipartiteness -----------------------------------------------------------


class BipartiteResult(NamedTuple):
    """Either a 2-coloring (parts) or an odd-cycle witness, never both."""

    parts: tuple[tuple[int, ...], tuple[int, ...]] | None
    odd_cycle: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.parts is not None


def check_bipartite(g: Graph) -> BipartiteResult:
    """2-color g if possible, else return an odd cycle as a vertex sequence."""
    color = [-1] * g.n
    parent = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            u = queue.pop()
            for v in g.neighbors(u):
                if color[v] == -1:
                    color[v] = color[u] ^ 1
                    parent[v] = u
                    queue.append(v)
                elif color[v] == color[u]:
                    return BipartiteResult(None, _odd_cycle(parent, u, v))
    side0 = tuple(v for v in range(g.n) if color[v] == 0)
    side1 = tuple(v for v in range(g.n) if color[v] == 1)
    return BipartiteResult((side0, side1), None)


def _odd_cycle(parent: list[int], u: int, v: int) -> tuple[int, ...]:
    """Close the cycle through the tree paths of u and v up to their meeting."""
    path_u = [u]
    path_v = [v]
    seen = {u: 0}
    x = u
    while parent[x] != -1:
        x = parent[x]
        seen[x] = len(path_u)
        path_u.append(x)
    x = v
    while x not in seen:
        x = parent[x]
        path_v.append(x)
    cut = seen[x]
    cycle = path_u[:cut + 1] + path_v[-2::-1]
    return tuple(cycle)

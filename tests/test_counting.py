import random
from itertools import combinations, permutations
from math import comb, factorial

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from _reference import count_copies_bruteforce, count_embeddings, to_networkx

from turantools import counting
from turantools.counting import (
    _fits,
    _plan,
    _walk,
    all_pattern_classes,
    are_isomorphic,
    automorphism_count,
    copy_maps,
    count_copies,
    count_family,
    labeled_copies,
    orbit_firsts,
    strip_isolated,
)
from turantools.families import GraphFamily, tree_classes
from turantools.graphs import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    encode_graph6,
    graph_from_mask,
    make_graph,
    mask_from_edges,
    matching_graph,
    pair_count,
    path_graph,
    slot_orbit,
    star_graph,
)


@st.composite
def graphs(draw, min_n=0, max_n=6):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << pair_count(n)) - 1))
    return graph_from_mask(n, mask)


def test_strip_isolated():
    g = disjoint_union(complete_graph(3), empty_graph(2))
    assert strip_isolated(g) == complete_graph(3)
    assert strip_isolated(empty_graph(5)) == empty_graph(0)
    assert strip_isolated(path_graph(3)) == path_graph(3)
    # the same values as relabeling the non-isolated vertices in order, and
    # the graph itself when none is isolated
    for mask in range(1 << pair_count(5)):
        g = graph_from_mask(5, mask)
        keep = [v for v in range(5) if g.adj[v]]
        want = make_graph(len(keep), [(keep.index(u), keep.index(v)) for u, v in g.edges()])
        assert strip_isolated(g) == want
        assert (strip_isolated(g) is g) == (len(keep) == 5)
    g = empty_graph(0)
    assert strip_isolated(g) is g


def test_automorphism_counts():
    assert automorphism_count(complete_graph(3)) == 6
    assert automorphism_count(path_graph(3)) == 2
    assert automorphism_count(cycle_graph(4)) == 8
    assert automorphism_count(matching_graph(4)) == 8
    assert automorphism_count(star_graph(4)) == 24


def test_automorphism_order_cap():
    with pytest.raises(ValueError):
        automorphism_count(empty_graph(11))


def test_count_copies_examples():
    assert count_copies(complete_graph(4), complete_graph(3)) == 4
    assert count_copies(complete_graph(5), complete_graph(3)) == 10
    assert count_copies(cycle_graph(4), path_graph(3)) == 4
    tri_pendant = make_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert count_copies(tri_pendant, matching_graph(4)) == 1


def test_count_copies_larger_pattern_is_zero():
    assert count_copies(complete_graph(3), complete_graph(4)) == 0


def test_count_copies_k2_is_edge_count():
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    assert count_copies(g, complete_graph(2)) == g.edge_count()


def test_count_copies_self_is_one():
    for g in (complete_graph(4), cycle_graph(5), path_graph(4)):
        assert count_copies(g, g) == 1


def test_count_family_examples():
    k4 = complete_graph(4)
    assert count_family(k4, GraphFamily.explicit([complete_graph(3), cycle_graph(4)])) == 7
    assert count_family(path_graph(4), GraphFamily.explicit(tree_classes(4))) == 1
    assert count_family(empty_graph(5), GraphFamily.explicit([complete_graph(3)])) == 0


def test_count_family_rejects_duplicates():
    fam = GraphFamily.explicit([path_graph(3), star_graph(2)])
    with pytest.raises(ValueError, match="non-isomorphic"):
        count_family(complete_graph(4), fam)


@given(graphs(max_n=6), st.sampled_from(range(10)))
@settings(max_examples=200, deadline=None)
def test_bruteforce_equivalence(host, pattern_idx):
    patterns = [p for p in all_pattern_classes(4)]
    pattern = patterns[pattern_idx % len(patterns)]
    assert count_copies(host, pattern) == count_copies_bruteforce(host, pattern)


def test_bruteforce_equivalence_exhaustive_small():
    # every host on 4 vertices against every pattern class on <= 4 vertices
    patterns = all_pattern_classes(4)
    for mask in range(1 << pair_count(4)):
        host = graph_from_mask(4, mask)
        for pattern in patterns:
            assert count_copies(host, pattern) == count_copies_bruteforce(
                host, pattern
            )


@given(graphs(min_n=1, max_n=6))
@settings(max_examples=100, deadline=None)
def test_count_invariant_under_relabeling(host):
    pattern = path_graph(3)
    base = count_copies(host, pattern)
    for perm in list(permutations(range(host.n)))[:12]:
        assert count_copies(host.relabel(perm), pattern) == base


def test_labeled_copies_match_counts():
    # containment counting over placements equals the embeddings route
    tri = complete_graph(3)
    masks = labeled_copies(5, tri)
    assert len(masks) == 10
    host = make_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    hmask = host.edge_mask()
    assert sum(1 for p in masks if p & hmask == p) == count_copies(host, tri)


def _labeled_copies_by_all_permutations(n, pattern):
    """Reference: map every permutation of every vertex subset of K_n."""
    f = strip_isolated(pattern)
    if f.n > n:
        return ()
    if f.n == 0:
        return (0,)
    masks = set()
    for sub in combinations(range(n), f.n):
        for img in permutations(sub):
            masks.add(mask_from_edges(n, [(img[u], img[v]) for u, v in f.edges()]))
    return tuple(sorted(masks))


def _named_specs(n):
    specs = ["trees"] + [f"clique:{r}" for r in range(2, n + 2)]
    specs += [f"matching:{l}" for l in range(2, n + 1, 2)]
    specs += [f"bipartite:{a},{n - a}" for a in range(1, n)]
    if n >= 2:
        specs.append("star")
    if n >= 3:
        specs += ["hamcycle", "kminus"]
    if n % 2 == 0:
        specs.append("perfmatching")
    return specs


def test_labeled_copies_match_all_permutations_build():
    for n in range(1, 8):
        for spec in _named_specs(n):
            for m in GraphFamily(spec).members(n):
                want = _labeled_copies_by_all_permutations(n, m)
                assert labeled_copies(n, m) == want, (n, spec)


def test_orbit_size_times_automorphisms_is_n_factorial():
    # orbit-stabiliser: the labeled copies come from the slot-mask orbit, the
    # automorphism count from the embeddings counter; the two share no code
    patterns = [*all_pattern_classes(5), *tree_classes(7), cycle_graph(8), matching_graph(8)]
    for f in patterns:
        assert automorphism_count(f) * len(labeled_copies(f.n, f)) == factorial(f.n), f


def test_labeled_copies_empty_pattern():
    assert labeled_copies(4, empty_graph(3)) == (0,)


def test_each_class_orbit_is_built_once(monkeypatch):
    # orbit_firsts covers K2, P3 and K3 under graphs on 4 vertices, the
    # placements look them up stripped: one cache entry serves both
    built = []

    def counted_orbit(n, mask):
        built.append(mask)
        return slot_orbit(n, mask)

    monkeypatch.setattr(counting, "slot_orbit", counted_orbit)
    counting._copy_orbit.cache_clear()
    classes = [strip_isolated(g) for g in orbit_firsts(4, range(1, 1 << pair_count(4)))]
    for f in classes:
        labeled_copies(4, f)
    assert len(classes) == len(built) == 10


def test_are_isomorphic():
    assert are_isomorphic(cycle_graph(3), complete_graph(3))
    assert not are_isomorphic(path_graph(4), star_graph(3))
    assert are_isomorphic(empty_graph(0), empty_graph(0))


def test_pattern_classes_small():
    # connected and disconnected patterns on <= 4 vertices, no isolated vertices
    classes = all_pattern_classes(4)
    assert len(classes) == 10
    assert all(g.min_degree() >= 1 for g in classes)


@given(graphs(max_n=8))
@settings(max_examples=40, deadline=None)
def test_count_copies_matches_containment_and_networkx_up_to_order_8(host):
    # two references that never call the embeddings counter: containment in
    # the permutation-built labeled copies, and networkx's monomorphisms
    # divided by |Aut(F)|
    hmask = host.edge_mask()
    nx_host = to_networkx(host)
    for f in all_pattern_classes(5):
        got = count_copies(host, f)
        assert got == sum(p & hmask == p for p in labeled_copies(host.n, f)), f
        matcher = GraphMatcher(nx_host, to_networkx(f))
        monos = sum(1 for _ in matcher.subgraph_monomorphisms_iter())
        assert monos == got * automorphism_count(f), f


def test_automorphism_count_is_the_edge_set_stabiliser():
    for f in all_pattern_classes(5):
        edges = set(f.edges())
        fixing = sum(
            {(min(p[u], p[v]), max(p[u], p[v])) for u, v in edges} == edges
            for p in permutations(range(f.n))
        )
        assert automorphism_count(f) == fixing, f


def _pattern_classes_by_linear_scan(max_order):
    """Reference: compare each new graph with every class found so far."""
    found = []
    for mask in range(1, 1 << pair_count(max_order)):
        g = to_networkx(graph_from_mask(max_order, mask), keep_isolated=False)
        if not any(nx.is_isomorphic(g, h) for h in found):
            found.append(g)
    graphs = []
    for g in found:
        g = nx.convert_node_labels_to_integers(g, ordering="sorted")
        graphs.append(make_graph(g.number_of_nodes(), g.edges()))
    graphs.sort(key=lambda g: (g.n, g.edge_count(), g.edge_mask()))
    return [encode_graph6(g) for g in graphs]


@pytest.mark.parametrize("k, size", [(2, 1), (3, 3), (4, 10), (5, 33)])
def test_pattern_classes_match_a_linear_networkx_scan(k, size):
    classes = all_pattern_classes(k)
    assert len(classes) == size
    assert [encode_graph6(g) for g in classes] == _pattern_classes_by_linear_scan(k)


def _named_patterns():
    """K_3..K_5, K_{a,b} with a + b <= 8 (the stars among them), matchings
    and C_4..C_6."""
    pats = [complete_graph(r) for r in range(3, 6)]
    pats += [complete_bipartite(a, b) for a in range(1, 5) for b in range(a, 9 - a)]
    pats += [matching_graph(2 * m) for m in range(1, 5)]
    pats += [cycle_graph(r) for r in range(4, 7)]
    return pats


def _random_host(rng, f, max_subsets=400):
    """A random host of order f.n..8 holding a relabeled copy of f plus random
    edges, as many as keep C(edges, |E(f)|) within max_subsets."""
    n = rng.randint(f.n, 8)
    img = rng.sample(range(n), f.n)
    edges = {tuple(sorted((img[u], img[v]))) for u, v in f.edges()}
    others = [e for e in combinations(range(n), 2) if e not in edges]
    rng.shuffle(others)
    for e in others:
        if comb(len(edges) + 1, f.edge_count()) > max_subsets:
            break
        edges.add(e)
    return make_graph(n, sorted(edges))


def test_count_copies_matches_the_networkx_reference_on_random_hosts():
    rng = random.Random(12)
    for f in [*_named_patterns(), *all_pattern_classes(5)]:
        for _ in range(2):
            host = _random_host(rng, f)
            assert count_copies(host, f) == count_copies_bruteforce(host, f), (f, host)
        host = graph_from_mask(8, rng.getrandbits(pair_count(8)) & rng.getrandbits(pair_count(8)))
        if comb(host.edge_count(), f.edge_count()) <= 2000:
            assert count_copies(host, f) == count_copies_bruteforce(host, f), (f, host)


def test_automorphism_count_is_the_unconditioned_self_embedding_count():
    extra = [complete_bipartite(4, 4), star_graph(7), matching_graph(10)]
    for f in [*all_pattern_classes(6), *extra]:
        assert automorphism_count(f) == count_embeddings(f, f), f


def _closure(plan):
    """(j, k) pairs, j < k, with step k's image above step j's implied by the
    plan's conditions."""
    below = [set() for _ in plan.order]
    for k, above in enumerate(plan.above):
        for j in above:
            below[k] |= {j} | below[j]
    return {(j, k) for k in range(len(below)) for j in below[k]}


def _with_above(plan, k, above):
    return plan._replace(above=plan.above[:k] + (above,) + plan.above[k + 1:])


def _mutations(plan):
    """Copies of the plan with one condition dropped or added, each one that
    the other conditions do not imply."""
    closure = _closure(plan)
    for k, above in enumerate(plan.above):
        for j in above:
            cut = _with_above(plan, k, tuple(i for i in above if i != j))
            if (j, k) not in _closure(cut):
                yield cut
        for j in range(k):
            if (j, k) not in closure:
                yield _with_above(plan, k, above + (j,))


def _walk_under(plan, host):
    return _walk(host.adj, _fits(host, plan.degree), plan.earlier, plan.above)


def test_mutated_conditions_are_caught():
    # the self-walk assertion of `_plan`, or a relabeled copy of f, on which
    # the reference counts one copy, catches every non-redundant change
    seen = 0
    for f in all_pattern_classes(5):
        hosts = [f.relabel(p) for p in permutations(range(f.n))]
        for mutated in _mutations(_plan(f)):
            seen += 1
            if _walk_under(mutated, f) != 1:
                continue
            assert any(
                _walk_under(mutated, h) != count_copies_bruteforce(h, f) for h in hosts
            ), (f, mutated)
    assert seen > 100


def _copy_mask(f, host, image):
    """Host edge mask of the copy that the map `image` (one bit per vertex of f) makes."""
    at = [b.bit_length() - 1 for b in image]
    return mask_from_edges(host.n, [(at[u], at[v]) for u, v in f.edges()])


def test_copy_maps_yield_each_copy_once_on_random_hosts():
    rng = random.Random(15)
    for f in all_pattern_classes(5):
        for _ in range(3):
            host = _random_host(rng, f)
            maps = list(copy_maps(host, f))
            masks = {_copy_mask(f, host, image) for image in maps}
            assert all(m & ~host.edge_mask() == 0 for m in masks), (f, host)
            assert len(masks) == len(maps) == count_copies(host, f), (f, host)
            assert len(maps) == count_copies_bruteforce(host, f), (f, host)

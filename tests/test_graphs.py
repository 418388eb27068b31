import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from turantools.graphs import (
    check_bipartite,
    complement,
    complete_graph,
    cycle_graph,
    decode_graph6,
    disjoint_union,
    empty_graph,
    encode_graph6,
    graph_from_mask,
    make_graph,
    pair_count,
    path_forest,
    path_graph,
    turan_graph,
)


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << pair_count(n)) - 1))
    return graph_from_mask(n, mask)


def test_make_graph_k3():
    g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.edge_count() == 3
    assert g == complete_graph(3)


def test_make_graph_empty():
    assert make_graph(4, []).edge_count() == 0


def test_make_graph_rejects_loop():
    with pytest.raises(ValueError, match="loop"):
        make_graph(3, [(0, 0)])


def test_make_graph_rejects_out_of_range():
    with pytest.raises(ValueError):
        make_graph(3, [(0, 3)])


def test_make_graph_rejects_oversize():
    with pytest.raises(ValueError):
        make_graph(33, [])


def test_edge_count_is_half_degree_sum():
    g = make_graph(5, [(0, 1), (1, 2), (3, 4), (0, 4)])
    assert sum(g.degrees()) == 2 * g.edge_count()


def test_complement_k4():
    assert complement(complete_graph(4)) == empty_graph(4)
    assert complement(empty_graph(3)) == complete_graph(3)


def test_complement_p3():
    g = complement(path_graph(3))
    assert g.edge_count() == 1
    assert g.has_edge(0, 2)


@given(graphs())
def test_complement_involution(g):
    assert complement(complement(g)) == g


def test_disjoint_union():
    two_k2 = disjoint_union(complete_graph(2), complete_graph(2))
    assert two_k2.n == 4 and two_k2.edge_count() == 2
    g = make_graph(3, [(0, 1)])
    assert disjoint_union(g, empty_graph(0)) == g
    two_k3 = disjoint_union(complete_graph(3), complete_graph(3))
    assert two_k3.n == 6 and two_k3.edge_count() == 6


def test_disjoint_union_overflow():
    with pytest.raises(ValueError):
        disjoint_union(empty_graph(20), empty_graph(20))


def test_disjoint_union_associative_up_to_counts():
    a, b, c = path_graph(3), cycle_graph(4), complete_graph(3)
    left = disjoint_union(disjoint_union(a, b), c)
    right = disjoint_union(a, disjoint_union(b, c))
    assert left.edge_count() == right.edge_count()
    assert sorted(left.degrees()) == sorted(right.degrees())


def test_turan_examples():
    assert turan_graph(4, 2).edge_count() == 4
    assert turan_graph(5, 2).edge_count() == 6  # floor(25/4)
    assert turan_graph(6, 3).edge_count() == 12


@pytest.mark.parametrize("n", range(1, 13))
def test_turan_balanced_parts(n):
    for r in range(1, n + 1):
        g = turan_graph(n, r)
        base, extra = divmod(n, r)
        sizes = [base + 1] * extra + [base] * (r - extra)
        expected = sum(
            a * b for i, a in enumerate(sizes) for b in sizes[i + 1:]
        )
        assert g.edge_count() == expected
    assert turan_graph(n, n) == complete_graph(n)
    assert turan_graph(n, 1) == empty_graph(n)


def test_turan_rejects_bad_parts():
    with pytest.raises(ValueError):
        turan_graph(3, 4)
    with pytest.raises(ValueError):
        turan_graph(3, 0)


def test_path_forest():
    assert path_forest([3]).edge_count() == 2
    assert path_forest([1, 1, 1]).edge_count() == 0
    g = path_forest([2, 3])
    assert g.n == 5 and g.edge_count() == 3
    with pytest.raises(ValueError):
        path_forest([0, 2])
    with pytest.raises(ValueError):
        path_forest([30, 10])


def test_graph6_fixed_strings():
    assert encode_graph6(complete_graph(2)) == "A_"
    assert encode_graph6(empty_graph(2)) == "A?"


def test_graph6_rejects_malformed():
    with pytest.raises(ValueError):
        decode_graph6("")
    with pytest.raises(ValueError):
        decode_graph6("B")  # truncated body
    with pytest.raises(ValueError):
        decode_graph6("A??")  # overlong body


def test_graph6_header_stripped():
    assert decode_graph6(">>graph6<<A_") == complete_graph(2)


@given(graphs())
@settings(max_examples=300)
def test_graph6_roundtrip(g):
    assert decode_graph6(encode_graph6(g)) == g


def test_graph6_roundtrip_seeded_up_to_12():
    import random

    rng = random.Random(0)
    for _ in range(1000):
        n = rng.randint(0, 12)
        mask = rng.getrandbits(pair_count(n))
        g = graph_from_mask(n, mask)
        assert decode_graph6(encode_graph6(g)) == g


@given(graphs(max_n=8))
@settings(max_examples=150)
def test_graph6_matches_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    assert encode_graph6(g) == nx.to_graph6_bytes(h, header=False).strip().decode()
    back = nx.from_graph6_bytes(encode_graph6(g).encode())
    assert {tuple(sorted(e)) for e in back.edges()} == set(g.edges())


def test_bipartite_c4():
    res = check_bipartite(cycle_graph(4))
    assert res and res.parts == ((0, 2), (1, 3))


def test_bipartite_c5_witness():
    res = check_bipartite(cycle_graph(5))
    assert not res and res.parts is None
    cyc = res.odd_cycle
    assert len(cyc) % 2 == 1 and len(cyc) >= 3
    g = cycle_graph(5)
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        assert g.has_edge(a, b)


def test_bipartite_empty():
    res = check_bipartite(empty_graph(4))
    assert res and res.parts == ((0, 1, 2, 3), ())


@given(graphs(max_n=8))
@settings(max_examples=200)
def test_bipartite_witnesses_are_sound(g):
    res = check_bipartite(g)
    if res:
        side0, side1 = res.parts
        for u, v in g.edges():
            assert (u in side0) != (v in side0)
    else:
        cyc = res.odd_cycle
        assert len(cyc) % 2 == 1
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert g.has_edge(a, b)


def test_graph_hashable_and_value_equal():
    g = complete_graph(3)
    assert {g: 1}[complete_graph(3)] == 1
    assert g == make_graph(3, [(0, 1), (0, 2), (1, 2)])
    assert g != complete_graph(4)
    with pytest.raises(AttributeError):
        g.some_new_field = 5  # no instance dict

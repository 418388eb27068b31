import pytest

from turantools.counting import are_isomorphic, labeled_copies
from turantools.families import GraphFamily, parse_family, tree_classes
from turantools.graphs import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    encode_graph6,
    graph_from_mask,
    matching_graph,
    star_graph,
)


@pytest.mark.parametrize(
    "n,count", [(1, 1), (2, 1), (3, 1), (4, 2), (5, 3), (6, 6), (7, 11)]
)
def test_tree_class_counts(n, count):
    assert len(tree_classes(n)) == count


def test_tree_classes_pairwise_noniso():
    trees = tree_classes(6)
    for i, a in enumerate(trees):
        for b in trees[i + 1:]:
            assert not are_isomorphic(a, b)


@pytest.mark.parametrize("n", range(1, 8))
def test_tree_classes_cover_the_labeled_trees_once(n):
    classes = tree_classes(n)
    masks = [t.edge_mask() for t in classes]
    assert masks == sorted(masks)
    orbits = [set(labeled_copies(n, t)) for t in classes]
    covered = set().union(*orbits)
    # pairwise disjoint orbits whose union is all n^(n-2) labeled trees (Cayley)
    assert sum(map(len, orbits)) == len(covered) == n ** (n - 2)
    for mask in covered:
        g = graph_from_mask(n, mask)
        assert g.edge_count() == n - 1 and g.is_connected()


def test_star_family():
    fam = parse_family("star")
    (member,) = fam.members(5)
    assert are_isomorphic(member, star_graph(4))
    assert len(fam.placements(5)) == 5  # one star per center


def test_trees_family_placements_cayley():
    fam = parse_family("trees")
    for n in range(2, 8):
        assert len(fam.placements(n)) == n ** (n - 2)


def test_placements_are_memoized_per_family_and_order():
    fam = parse_family("trees+clique:3")
    first = fam.placements(5)
    assert parse_family("trees+clique:3").placements(5) is first
    assert first == tuple(sorted(m for g in fam.members(5) for m in labeled_copies(5, g)))
    assert len(fam.placements(4)) == 16 + 4


def test_clique_and_matching_families():
    assert parse_family("clique:3").members(5) == (complete_graph(3),)
    (m,) = parse_family("matching:4").members(6)
    assert are_isomorphic(m, matching_graph(4))


def test_spanning_families():
    assert parse_family("hamcycle").members(5) == (cycle_graph(5),)
    (pm,) = parse_family("perfmatching").members(4)
    assert are_isomorphic(pm, matching_graph(4))
    (kab,) = parse_family("bipartite:2,3").members(5)
    assert are_isomorphic(kab, complete_bipartite(2, 3))
    (km,) = parse_family("kminus").members(4)
    assert km.edge_count() == 5


def test_family_union_spec():
    fam = parse_family("trees+clique:3")
    members = fam.members(4)
    assert len(members) == 3  # path, star, triangle
    assert fam.uniform_edge_count(4) == 3


def test_bipartite_spec_must_sum():
    with pytest.raises(ValueError):
        parse_family("bipartite:2,2").members(5)


def test_unknown_spec_rejected():
    with pytest.raises(ValueError):
        parse_family("frobnicate").members(4)


def test_oversized_member_has_no_placements():
    fam = parse_family("clique:5")
    assert fam.members(3) == (complete_graph(5),)
    assert fam.placements(3) == ()


def test_explicit_family_rejects_isomorphic_members():
    fam = GraphFamily.explicit((cycle_graph(3), complete_graph(3)))
    with pytest.raises(ValueError, match="non-isomorphic"):
        fam.members(4)


def test_graph6_file_family(tmp_path):
    path = tmp_path / "patterns.g6"
    path.write_text(
        encode_graph6(complete_graph(3)) + "\n" + encode_graph6(cycle_graph(4)) + "\n"
    )
    fam = parse_family(f"@{path}")
    assert len(fam.members(5)) == 2

import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from turantools import _scan, oracle
from turantools._bnb import POLL_EVERY, branch_and_bound, pack_constraints
from turantools._scan import constraint_test, scan
from turantools.counting import all_pattern_classes, count_copies, labeled_copies
from turantools.families import GraphFamily, parse_family
from turantools.graphs import (
    check_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    graph_from_mask,
    pair_count,
    path_graph,
    star_graph,
    turan_graph,
)
from turantools.oracle import (
    OracleResult,
    _search,
    ex_oracle,
    exa_oracle,
    exa_prime_oracle,
    exa_set_oracle,
    max_edges_with,
    triangle_free_nonbipartite_oracle,
    zeta,
)


def test_engine_nonexistent_level():
    res = max_edges_with(3, lambda g: g.edge_count() == 5)
    assert res.value is None and res.complete


def test_engine_triangle_free_small():
    res = max_edges_with(4, lambda g: count_copies(g, complete_graph(3)) == 0)
    assert res.value == 4
    assert count_copies(res.witness, complete_graph(3)) == 0


def test_engine_brouwer_n5():
    res = max_edges_with(
        5,
        lambda g: count_copies(g, complete_graph(3)) == 0 and not check_bipartite(g),
    )
    assert res.value == 5


def test_engine_guard():
    with pytest.raises(ValueError, match="guarded"):
        ex_oracle(9, GraphFamily("clique:3"))
    # override accepted (tiny instance)
    res = ex_oracle(9, GraphFamily("clique:8"), allow_large=True, budget=60)
    assert res.value == turan_graph(9, 7).edge_count()


def test_engine_budget_expiry():
    res = ex_oracle(8, GraphFamily("clique:3"), budget=0.0)
    assert not res.complete and res.value is None
    assert res.elapsed < 1.0


def test_search_polls_its_deadline_every_poll_interval():
    polls = []

    def clock():  # one time unit per poll
        polls.append(None)
        return float(len(polls))

    pack = pack_constraints([(GraphFamily("clique:3").placements(8), {1})])
    res = branch_and_bound(pair_count(8), pack, deadline=2.5, clock=clock)
    # polled before the search (1.0), after 2^16 nodes (2.0) and 2^17 (3.0)
    assert res.timed_out and res.value is None
    assert len(polls) == 3 and res.nodes == 2 * POLL_EVERY


def test_predicate_engine_polls_its_deadline_every_poll_interval(monkeypatch):
    polls = []

    def monotonic():  # the deadline passes at the seventh poll
        polls.append(None)
        return time.monotonic() if len(polls) < 7 else float("inf")

    monkeypatch.setattr(_scan, "time", SimpleNamespace(monotonic=monotonic))
    res = max_edges_with(8, lambda g: False, budget=60)
    # one poll before each of the levels 28..24 (1, 28, 378, 3276 and 20475
    # graphs), then polls after 4096 and 8192 graphs of level 24
    assert not res.complete and res.value is None
    assert len(polls) == 7
    assert res.explored == 1 + 28 + 378 + 3276 + 2 * _scan.POLL_EVERY


def test_ex_examples():
    assert ex_oracle(5, GraphFamily("clique:3")).value == 6
    assert ex_oracle(6, GraphFamily("clique:4")).value == 12
    s3 = GraphFamily.explicit((star_graph(3),), label="S3")
    assert ex_oracle(5, s3).value == 5


def test_exa_examples():
    assert exa_oracle(5, 1, GraphFamily("clique:3")).value == 6
    assert exa_oracle(6, 1, GraphFamily("matching:4")).value == 4
    assert exa_oracle(3, 5, GraphFamily("clique:2")).value is None
    assert exa_oracle(4, 1, GraphFamily("perfmatching")).value == 4
    assert exa_oracle(4, 1, GraphFamily("hamcycle")).value == 5


def test_exa_zero_equals_ex():
    for spec in ("clique:3", "clique:4", "matching:4"):
        fam = GraphFamily(spec)
        for n in range(3, 7):
            assert exa_oracle(n, 0, fam).value == ex_oracle(n, fam).value


def test_exa_set_examples():
    assert exa_set_oracle(5, {0, 1}, GraphFamily("clique:3")).value == 6
    assert exa_set_oracle(4, {0}, GraphFamily("clique:3")).value == 4
    assert exa_set_oracle(4, {0, 1, 2, 3}, GraphFamily("clique:3")).value == 5


def test_exa_set_equals_max_of_singles():
    fam = GraphFamily("clique:3")
    for n in (4, 5):
        for counts in ({0, 1}, {1, 2}, {0, 2, 4}):
            combined = exa_set_oracle(n, counts, fam).value
            singles = [exa_oracle(n, k, fam).value for k in counts]
            best = max((v for v in singles if v is not None), default=None)
            assert combined == best


def test_exa_prime_examples():
    assert exa_prime_oracle(4, parse_family("trees+clique:3")).value == 0
    assert exa_prime_oracle(4, GraphFamily("kminus")).value == 0
    assert exa_prime_oracle(4, GraphFamily("clique:2")).value == 0


def test_exa_prime_reports_member():
    res = exa_prime_oracle(4, parse_family("trees+clique:3"))
    assert res.member is not None
    assert count_copies(res.witness, res.member) == 1


def test_exa_prime_witness_is_graph6_minimal():
    # all optimal witnesses collected by a slow direct sweep must compare >=
    from turantools.graphs import encode_graph6

    fam = GraphFamily("kminus")
    res = exa_prime_oracle(4, fam)
    (member,) = fam.members(4)
    best = None
    for mask in range(1 << pair_count(4)):
        g = graph_from_mask(4, mask)
        if count_copies(g, member) == 1:
            obj = g.edge_count() - member.edge_count()
            key = (-obj, encode_graph6(g))
            if best is None or key < best:
                best = key
    assert best is not None
    assert -best[0] == res.value
    assert best[1] == encode_graph6(res.witness)


def test_witnesses_verify():
    res = exa_oracle(6, 2, GraphFamily("clique:3"))
    assert count_copies(res.witness, complete_graph(3)) == 2
    assert res.witness.edge_count() == res.value


def _reference(n, constraints, require_nonbip=False, collect_min=True):
    """The brute-force level scanner over the same packed constraints."""
    feasible = constraint_test(
        n, pack_constraints(constraints), require_nonbip=require_nonbip
    )
    return scan(pair_count(n), feasible, collect_min=collect_min)


def test_python_and_compiled_paths_agree():
    # the reference scanner's placement test against the predicate engine's
    # embeddings counter: same order, same first hit, same graphs tested
    fam = GraphFamily("clique:3")
    for n in (4, 5):
        for k in (0, 1, 2):
            ref = _reference(n, [(fam.placements(n), {k})], collect_min=False)
            pred = max_edges_with(n, lambda g: count_copies(g, complete_graph(3)) == k)
            assert ref.found and ref.mask.bit_count() == pred.value
            assert graph_from_mask(n, ref.mask) == pred.witness
            assert ref.explored == pred.explored


_PATTERNS = all_pattern_classes(4)


@given(
    n=st.integers(min_value=0, max_value=6),
    picks=st.lists(
        st.integers(min_value=0, max_value=len(_PATTERNS) - 1),
        min_size=1, max_size=3, unique=True,
    ),
    allowed=st.lists(
        st.frozensets(st.integers(min_value=0, max_value=4), min_size=1),
        min_size=3, max_size=3,
    ),
    per_member=st.booleans(),
    require_nonbip=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_engine_matches_reference_scanner(n, picks, allowed, per_member, require_nonbip):
    members = [_PATTERNS[i] for i in picks]
    if per_member:  # exa'-style: one constraint per member
        constraints = [
            (labeled_copies(n, f), set(a)) for f, a in zip(members, allowed)
        ]
    else:
        placements = sorted(p for f in members for p in labeled_copies(n, f))
        constraints = [(tuple(placements), set(allowed[0]))]
    got = _search(n, constraints, require_nonbip=require_nonbip)
    ref = _reference(n, constraints, require_nonbip)
    assert got.complete and not ref.timed_out
    if not ref.found:
        assert got.value is None and got.witness is None
    else:
        assert got.value == ref.mask.bit_count()
        assert got.witness == graph_from_mask(n, ref.mask)


def test_engine_matches_reference_on_exa_prime_members():
    # the exact constraint lists exa' builds, one search per member
    fam = parse_family("star+clique:3")
    for n in (4, 5):
        copies = [labeled_copies(n, f) for f in fam.members(n)]
        for i in range(len(copies)):
            constraints = [
                (c, {1} if j == i else {0}) for j, c in enumerate(copies)
            ]
            got = _search(n, constraints)
            ref = _reference(n, constraints)
            assert got.value == ref.mask.bit_count()
            assert got.witness == graph_from_mask(n, ref.mask)


def test_exa_prime_shares_one_deadline(monkeypatch):
    fam = parse_family("trees+clique:3")
    calls = []

    def recording_search(complete):
        def fake(n, constraints, *, deadline=None, allow_large=False):
            calls.append(deadline)
            return OracleResult(None, None, 1, 0.0, complete)
        return fake

    monkeypatch.setattr(oracle, "_search", recording_search(True))
    res = exa_prime_oracle(4, fam, budget=5.0)
    assert res.complete and len(calls) == len(fam.members(4)) == 3
    assert len(set(calls)) == 1 and calls[0] is not None

    calls.clear()
    monkeypatch.setattr(oracle, "_search", recording_search(False))
    res = exa_prime_oracle(4, fam, budget=5.0)
    assert len(calls) == 1
    assert not res.complete and res.value is None


def test_generic_engine_agrees_with_scanner():
    fam = GraphFamily("hamcycle")
    for n in (4, 5):
        via_pred = max_edges_with(
            n, lambda g: count_copies(g, cycle_graph(n)) == 1
        )
        via_scan = exa_oracle(n, 1, fam)
        assert via_pred.value == via_scan.value


def test_brouwer_oracle_small():
    assert triangle_free_nonbipartite_oracle(5).value == 5
    assert triangle_free_nonbipartite_oracle(6).value == 7


def test_zeta_examples():
    assert zeta(complete_graph(3)) == 1
    assert zeta(complete_graph(4)) == 2
    assert zeta(complete_graph(5)) == 3
    assert zeta(path_graph(3)) == 0
    assert zeta(cycle_graph(4)) == 2


def test_zeta_rejects_edgeless_and_oversize():
    with pytest.raises(ValueError):
        zeta(empty_graph(3))
    with pytest.raises(ValueError):
        zeta(complete_graph(9))


@given(st.integers(min_value=0, max_value=32))
@settings(max_examples=40, deadline=None)
def test_zeta_min_degree_bound(idx):
    classes = all_pattern_classes(5)
    f = classes[idx % len(classes)]
    assert zeta(f) >= f.min_degree() - 1


def test_nonexistent_exact_count():
    # no 5-vertex graph holds exactly 3 pentagons
    assert exa_oracle(5, 3, GraphFamily("hamcycle")).value is None


def test_explored_counts_whole_space_when_nonexistent():
    # the reference scanner tests every labeled graph before reporting none
    res = _reference(3, [(GraphFamily("clique:2").placements(3), {5})])
    assert not res.found and res.explored == 2 ** pair_count(3)
    assert exa_oracle(3, 5, GraphFamily("clique:2")).value is None


def test_order_zero_and_one():
    assert ex_oracle(0, GraphFamily("clique:3")).value == 0
    assert ex_oracle(1, GraphFamily("clique:3")).value == 0
    assert ex_oracle(2, GraphFamily("clique:3")).value == 1

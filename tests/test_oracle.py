import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import _reference
from _reference import max_edges_with, scan_constraints
from turantools import oracle
from turantools._bnb import POLL_EVERY, branch_and_bound
from turantools.counting import all_pattern_classes, count_copies, labeled_copies
from turantools.families import GraphFamily, parse_family
from turantools.graphs import (
    check_bipartite,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    graph_from_mask,
    matching_graph,
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
        ex_oracle(10, GraphFamily("clique:3"))
    # override accepted (the lex-leader cuts make this instance small)
    res = ex_oracle(10, GraphFamily("clique:3"), allow_large=True, budget=60)
    assert res.value == turan_graph(10, 2).edge_count()


def test_engine_budget_expiry():
    res = ex_oracle(8, GraphFamily("clique:3"), budget=0.0)
    assert not res.complete and res.value is None
    assert res.elapsed < 1.0


def test_budget_holds_past_the_order_guard():
    # the 945 perfect matchings of K_10 are built well inside the budget, so
    # the search reaches its polls and stops near the deadline
    t0 = time.monotonic()
    res = exa_oracle(10, 1, GraphFamily("perfmatching"), budget=0.5, allow_large=True)
    assert not res.complete and res.value is None
    assert time.monotonic() - t0 < 2.0


def test_search_polls_its_deadline_every_poll_interval():
    polls = []

    def clock():  # one time unit per poll
        polls.append(None)
        return float(len(polls))

    constraints = [(GraphFamily("clique:3").placements(8), {1})]
    res = branch_and_bound(pair_count(8), constraints, deadline=2.5, clock=clock)
    # polled before the search (1.0), after 2^16 nodes (2.0) and 2^17 (3.0)
    assert res.timed_out and res.value is None
    assert len(polls) == 3 and res.nodes == 2 * POLL_EVERY


def _counted(masks, taken):
    for p in masks:
        taken.append(p)
        yield p


def test_an_expired_deadline_stops_before_the_placement_bitsets_are_built():
    taken = []
    constraints = [(_counted(range(1, 3 * POLL_EVERY), taken), {1})]
    res = branch_and_bound(pair_count(8), constraints, deadline=0.0, clock=lambda: 1.0)
    assert res.timed_out and res.value is None and res.nodes == 0
    assert taken == []


def test_bitset_build_polls_its_deadline_every_poll_interval():
    polls = []

    def clock():  # the deadline passes at the second poll
        polls.append(None)
        return float(len(polls))

    taken = []
    constraints = [(_counted(range(1, 3 * POLL_EVERY), taken), {1})]
    res = branch_and_bound(pair_count(8), constraints, deadline=1.5, clock=clock)
    # polled before the build (1.0), then after 2^16 placements (2.0)
    assert res.timed_out and res.value is None and res.nodes == 0
    assert len(polls) == 2 and len(taken) == POLL_EVERY + 1


def test_predicate_engine_polls_its_deadline_every_poll_interval(monkeypatch):
    polls = []

    def monotonic():  # the deadline passes at the seventh poll
        polls.append(None)
        return time.monotonic() if len(polls) < 7 else float("inf")

    monkeypatch.setattr(_reference, "time", SimpleNamespace(monotonic=monotonic))
    res = max_edges_with(8, lambda g: False, budget=60)
    # one poll before each of the levels 28..24 (1, 28, 378, 3276 and 20475
    # graphs), then polls after 4096 and 8192 graphs of level 24
    assert not res.complete and res.value is None
    assert len(polls) == 7
    assert res.explored == 1 + 28 + 378 + 3276 + 2 * _reference.POLL_EVERY


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


@pytest.mark.parametrize(
    "run",
    [
        lambda: ex_oracle(5, GraphFamily("clique:3")),
        lambda: exa_set_oracle(5, {0, 1}, GraphFamily("clique:3")),
        lambda: exa_prime_oracle(4, parse_family("trees+clique:3")),
        lambda: triangle_free_nonbipartite_oracle(5),
    ],
    ids=["ex", "set", "prime", "nonbip"],
)
def test_every_oracle_recounts_its_witness(monkeypatch, run):
    # a counter that disagrees with the search must stop the result
    monkeypatch.setattr(oracle, "count_copies", lambda host, pattern: 99)
    with pytest.raises(AssertionError, match="^witness re-verification failed"):
        run()


@pytest.mark.parametrize("spec", ["star", "kminus"])
def test_a_member_the_recount_cannot_take_is_refused_before_the_search(monkeypatch, spec):
    def no_search(*args, **kw):
        raise AssertionError("search started")

    monkeypatch.setattr(oracle, "labeled_copies", no_search)
    monkeypatch.setattr(oracle, "branch_and_bound", no_search)
    with pytest.raises(ValueError, match="capped at members of 10 vertices"):
        exa_oracle(11, 1, GraphFamily(spec), allow_large=True)


def test_bad_count_sets_are_rejected():
    fam = GraphFamily("clique:3")
    with pytest.raises(ValueError, match="non-negative"):
        exa_oracle(4, -1, fam)
    with pytest.raises(ValueError, match="empty"):
        exa_set_oracle(4, set(), fam)


def test_witnesses_verify():
    res = exa_oracle(6, 2, GraphFamily("clique:3"))
    assert count_copies(res.witness, complete_graph(3)) == 2
    assert res.witness.edge_count() == res.value


def test_python_and_compiled_paths_agree():
    # the reference scanner's placement test against the predicate engine's
    # embeddings counter: same order, same first hit, same graphs tested
    fam = GraphFamily("clique:3")
    for n in (4, 5):
        for k in (0, 1, 2):
            ref = scan_constraints(n, [(fam.members(n), {k})], collect_min=False)
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
        constraints = [((f,), set(a)) for f, a in zip(members, allowed)]
    else:
        constraints = [(tuple(members), set(allowed[0]))]
    got = _search(n, constraints, require_nonbip=require_nonbip)
    ref = scan_constraints(n, constraints, require_nonbip)
    assert got.complete and not ref.timed_out
    if not ref.found:
        assert got.value is None and got.witness is None
    else:
        assert got.value == ref.mask.bit_count()
        assert got.witness == graph_from_mask(n, ref.mask)


@st.composite
def _placement_constraints(draw):
    m = draw(st.integers(min_value=0, max_value=9))
    # the empty placement 0 lies inside every mask; repeats count twice
    placement = st.one_of(st.just(0), st.integers(min_value=0, max_value=(1 << m) - 1))
    allowed = st.sets(st.integers(min_value=0, max_value=6), min_size=1)
    constraints = draw(
        st.lists(st.tuples(st.lists(placement, max_size=6), allowed), min_size=1, max_size=3)
    )
    return m, constraints


@given(_placement_constraints())
@settings(max_examples=200, deadline=None)
def test_search_matches_brute_force_over_placement_masks(case):
    m, constraints = case
    feasible = [
        mask
        for mask in range(1 << m)
        if all(
            sum(p & mask == p for p in placements) in allowed
            for placements, allowed in constraints
        )
    ]
    res = branch_and_bound(m, constraints)
    assert not res.timed_out
    if not feasible:
        assert res.value is None and res.mask is None
        return
    best = max(mask.bit_count() for mask in feasible)
    # slot 0 decides first, so slot order compares slot 0, then slot 1, ...
    first = min(
        (mask for mask in feasible if mask.bit_count() == best),
        key=lambda mask: [mask >> i & 1 for i in range(m)],
    )
    assert res.value == best and res.mask == first


@given(
    n=st.integers(min_value=3, max_value=7),
    picks=st.lists(
        st.integers(min_value=0, max_value=len(_PATTERNS) - 1),
        min_size=1, max_size=3, unique=True,
    ),
    allowed=st.lists(
        st.frozensets(st.integers(min_value=0, max_value=4), min_size=1),
        min_size=3, max_size=3,
    ),
    per_member=st.booleans(),
    require_nonbip=st.integers(min_value=0, max_value=3).map(lambda i: i == 0),
)
@settings(max_examples=60, deadline=None)
def test_lex_leader_cuts_keep_value_and_witness(n, picks, allowed, per_member, require_nonbip):
    members = [_PATTERNS[i] for i in picks]
    if per_member:
        constraints = [((f,), set(a)) for f, a in zip(members, allowed)]
    else:
        constraints = [(tuple(members), set(allowed[0]))]
    placements = [
        (sum((labeled_copies(n, f) for f in fs), ()), a) for fs, a in constraints
    ]

    def nonbipartite(mask):
        return not check_bipartite(graph_from_mask(n, mask))

    leaf_ok = nonbipartite if require_nonbip else None
    plain = branch_and_bound(pair_count(n), placements, leaf_ok=leaf_ok)
    cut = branch_and_bound(pair_count(n), placements, leaf_ok=leaf_ok, relabel_order=n)
    assert (cut.value, cut.mask) == (plain.value, plain.mask)
    assert cut.nodes <= plain.nodes


def test_relabel_order_must_match_the_slots():
    with pytest.raises(ValueError, match="not the pairs of 3 vertices"):
        branch_and_bound(5, [], relabel_order=3)


K3, K4 = GraphFamily("clique:3"), GraphFamily("clique:4")


@pytest.mark.parametrize(
    "run, formula",
    [
        # Turan: ex(n, K3) = t(n, 2)
        (lambda: ex_oracle(9, K3, allow_large=True), turan_graph(9, 2).edge_count()),
        # triangles: exa_k(n, K3) = floor((n-1)^2 / 4) + k + 1
        (lambda: exa_oracle(9, 1, K3, allow_large=True), (9 - 1) ** 2 // 4 + 1 + 1),
        (lambda: exa_oracle(9, 2, K3, allow_large=True), (9 - 1) ** 2 // 4 + 2 + 1),
        (lambda: exa_oracle(10, 1, K3, allow_large=True), (10 - 1) ** 2 // 4 + 1 + 1),
        # klikk: exa_1(n, K_r) = C(r, 2) + (r-2)(n-r) + ex(n-r, K_r), ex(5, K4) = t(5, 3)
        (
            lambda: exa_oracle(9, 1, K4, allow_large=True),
            6 + (4 - 2) * (9 - 4) + turan_graph(5, 3).edge_count(),
        ),
        # Brouwer: triangle-free and not bipartite: floor((n-1)^2 / 4) + 1
        (lambda: triangle_free_nonbipartite_oracle(9, allow_large=True), (9 - 1) ** 2 // 4 + 1),
        # Sheehan: exa_1(n, hamcycle) = floor(n^2 / 4) + 1
        (lambda: exa_oracle(8, 1, GraphFamily("hamcycle")), 8 * 8 // 4 + 1),
        # Hetyei: exa_1(n, perfmatching) = n^2 / 4 for even n
        (lambda: exa_oracle(8, 1, GraphFamily("perfmatching")), 8 * 8 // 4),
    ],
    ids=["ex9K3", "exa1_9K3", "exa2_9K3", "exa1_10K3", "klikk9K4", "brouwer9", "sheehan8", "hetyei8"],
)
def test_closed_forms_at_orders_8_to_10(run, formula):
    res = run()
    assert res.complete and res.value == formula


def test_engine_matches_reference_on_exa_prime_members():
    # the exact constraint lists exa' builds, one search per member
    fam = parse_family("star+clique:3")
    for n in (4, 5):
        members = fam.members(n)
        for f in members:
            constraints = [((g,), {1} if g == f else {0}) for g in members]
            got = _search(n, constraints)
            ref = scan_constraints(n, constraints)
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


def test_zeta_matches_the_recount_reference():
    extra = [
        complete_graph(7),
        complete_graph(8),
        cycle_graph(8),
        path_graph(8),
        complete_bipartite(4, 4),
        complete_bipartite(3, 5),
        complete_bipartite(1, 7),
        matching_graph(4),
    ]
    for f in [*all_pattern_classes(6), *extra]:
        assert zeta(f) == _reference.zeta_by_recount(f), f


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
    res = scan_constraints(3, [(GraphFamily("clique:2").members(3), {5})])
    assert not res.found and res.explored == 2 ** pair_count(3)
    assert exa_oracle(3, 5, GraphFamily("clique:2")).value is None


def test_order_zero_and_one():
    for n in (0, 1):  # the single leaf is the whole search
        res = ex_oracle(n, GraphFamily("clique:3"))
        assert res.value == 0 and res.explored == 1
    assert ex_oracle(2, GraphFamily("clique:3")).value == 1

import json
import random
from itertools import combinations, permutations
from math import comb

import pytest

from _reference import matching_first_questioner
from turantools import cli
from turantools.constructions import build_klikk
from turantools.counting import all_pattern_classes
from turantools.errors import AdversaryError
from turantools.families import GraphFamily, parse_family
from turantools.game import (
    POLL_EVERY,
    GameState,
    _slot_orbits,
    _Solver,
    adversary_no_first,
    consistent_placements,
    placements,
    questioner_extremal_strategy,
    simulate,
    solve_L,
    solve_x,
    solve_x_prime,
    solver_questioner,
    strategy_worst_case,
    sweep_patterns,
)
from turantools.graphs import complete_graph, encode_graph6, make_graph, slot_pairs
from turantools.oracle import exa_oracle, exa_prime_oracle

K3 = GraphFamily("clique:3")
STAR = GraphFamily("star")
TREES = GraphFamily("trees")
KMINUS = GraphFamily("kminus")


def test_placement_counts():
    assert len(placements(4, K3)) == 4
    assert len(placements(4, STAR)) == 4
    assert len(placements(4, TREES)) == 16


def test_consistent_placements_fresh():
    st = GameState(4, K3)
    assert len(consistent_placements(st)) == 4


def test_consistent_placements_after_no():
    st = GameState(4, K3, no=((0, 1),))
    cons = consistent_placements(st)
    assert len(cons) == 2
    assert all((0, 1) not in p for p in cons)


def test_consistent_placements_after_full_yes():
    st = GameState(4, K3, yes=((0, 1), (0, 2), (1, 2)))
    cons = consistent_placements(st)
    assert cons == [((0, 1), (0, 2), (1, 2))]


def test_adversary_no_first_fresh_says_no():
    st = GameState(4, K3)
    for q in ((0, 1), (2, 3), (1, 3)):
        assert adversary_no_first(st, q) is False


def test_adversary_no_first_forced_yes():
    st = GameState(4, K3, no=((0, 1), (0, 2), (0, 3)))
    assert adversary_no_first(st, (1, 2)) is True


def test_adversary_rejects_repeated_query():
    st = GameState(4, K3, no=((0, 1),))
    with pytest.raises(ValueError, match="already"):
        adversary_no_first(st, (0, 1))


@pytest.mark.parametrize("query", [(0, 1), (0, 7), (2, 2)], ids=["repeated", "0-7", "2-2"])
@pytest.mark.parametrize(
    "play",
    [
        lambda q: simulate(4, K3, lambda state: q, adversary_no_first),
        lambda q: strategy_worst_case(4, K3, lambda state: q),
        lambda q: adversary_no_first(GameState(4, K3, no=((0, 1),)), q),
    ],
    ids=["simulate", "strategy_worst_case", "adversary_no_first"],
)
def test_bad_pairs_raise_value_error(play, query):
    # the questioners ask `query` every turn, so (0, 1) repeats on turn two;
    # the adversary's state has (0, 1) asked already
    with pytest.raises(ValueError, match="already asked|not a pair"):
        play(query)


def test_solver_values_stars():
    assert solve_L(4, STAR).value == 2
    assert solve_L(5, STAR).value == 3
    assert solve_x(4, STAR).value == 2
    assert solve_x(5, STAR).value == 2
    assert solve_x_prime(4, STAR).value == 5


def test_solver_values_trees_and_cliques():
    assert solve_L(4, TREES).value == 5
    assert solve_x(4, TREES).value == 3
    assert solve_L(4, KMINUS).value == 5
    assert solve_x(4, KMINUS).value == 1
    exa1 = exa_oracle(4, 1, K3).value
    assert solve_L(4, K3).value == comb(4, 2) - exa1


def test_family_union_games():
    fam = parse_family("trees+clique:3")
    assert solve_x_prime(4, fam).value == comb(4, 2)
    assert solve_x(4, fam).value == 3


def test_chain_inequalities():
    for n, fam in ((4, K3), (4, STAR), (5, STAR), (4, TREES), (4, KMINUS)):
        total = comb(n, 2)
        x = solve_x(n, fam).value
        L = solve_L(n, fam).value
        xp = solve_x_prime(n, fam).value
        exa1 = exa_oracle(n, 1, fam).value
        exap = exa_prime_oracle(n, fam).value
        assert total - exa1 <= x <= L <= xp
        assert total - exap <= xp


def test_uniform_edge_identity():
    for n, fam in ((4, K3), (4, STAR), (5, STAR), (4, TREES), (4, KMINUS)):
        e = fam.uniform_edge_count(n)
        assert e is not None
        assert solve_x(n, fam).value + e == solve_x_prime(n, fam).value


def test_solver_deterministic():
    a = solve_L(4, TREES)
    b = solve_L(4, TREES)
    assert a.value == b.value and a.first_moves == b.first_moves


def test_solver_order_cap():
    with pytest.raises(ValueError, match="capped"):
        solve_L(8, STAR)


def test_solver_order_7_meets_the_exa1_bound():
    # L(7, K3) equals C(7,2) - exa_1(7, K3), with exa_1(n, K3) = floor((n-1)^2/4) + 2
    assert solve_L(7, K3).value == comb(7, 2) - ((7 - 1) ** 2 // 4 + 2)


def test_x_at_order_7_meets_the_exa1_bound():
    # x >= C(n,2) - exa_1(n,F) holds with equality for K3 (exa_1(7,K3) =
    # floor(6^2/4) + 2 = 11) and for Hamiltonian cycles (Sheehan:
    # exa_1(7,hamcycle) = floor(7^2/4) + 1 = 13)
    for fam, x in ((K3, 10), (GraphFamily("hamcycle"), 8)):
        assert solve_x(7, fam).value == comb(7, 2) - exa_oracle(7, 1, fam).value == x


def test_x_and_xprime_of_trees_at_order_6():
    # the paper's bound C(n,2) - exa_1(n, trees), exa_1(n, trees) = n - 1, is met
    x = solve_x(6, TREES).value
    assert x == comb(6, 2) - (6 - 1) == 10
    # uniform-edge identity: every tree on 6 vertices has 5 edges
    assert solve_x_prime(6, TREES).value == x + 5 == 15


def test_solver_polls_its_deadline_every_poll_interval():
    polls = []

    def clock():  # one time unit per call
        polls.append(None)
        return float(len(polls))

    res = solve_L(6, TREES, budget=2.5, clock=clock)
    # deadline 1.0 + 2.5; polled before the search (2.0), then after 4096 new
    # states (3.0) and after 8192 (4.0)
    assert not res.complete and res.value is None and res.first_moves == ()
    assert len(polls) == 4 and res.states_explored == 2 * POLL_EVERY


def test_a_deadline_has_passed_when_the_clock_reaches_it():
    # budget 0 on a frozen clock: the poll before the search sees clock == deadline
    res = solve_L(5, TREES, budget=0, clock=lambda: 1.0)
    assert not res.complete and res.value is None and res.states_explored == 0


def test_state_ceiling_reports_unsolved():
    res = solve_L(5, TREES, state_cap=10)
    assert not res.complete and res.value is None


def test_first_moves_cover_root_optimum():
    res = solve_L(4, K3)
    assert res.first_moves  # at least one optimal opening
    assert all(len(q) == 2 for q in res.first_moves)


def test_simulate_solver_vs_no_first():
    tr = simulate(4, K3, solver_questioner(4, K3, "L"), adversary_no_first)
    assert tr.total == solve_L(4, K3).value
    # bookkeeping: YES answers are exactly the asked part of the placement
    yes_pairs = {q for q, a in tr.queries if a}
    asked = {q for q, _ in tr.queries}
    assert yes_pairs == set(tr.final_placement) & asked
    assert (tr.yes_count, tr.no_count) == (len(yes_pairs), tr.total - len(yes_pairs))


def test_simulate_no_count_bound():
    for n, fam in ((4, K3), (4, STAR), (5, STAR), (4, TREES)):
        exa1 = exa_oracle(n, 1, fam).value
        for cost in ("L", "x"):
            tr = simulate(n, fam, solver_questioner(n, fam, cost), adversary_no_first)
            assert tr.no_count >= comb(n, 2) - exa1


def test_simulate_xprime_asks_all_copy_edges():
    tr = simulate(4, STAR, solver_questioner(4, STAR, "xprime"), adversary_no_first)
    asked = {q for q, _ in tr.queries}
    assert set(tr.final_placement) <= asked
    assert tr.total == solve_x_prime(4, STAR).value


def test_xprime_first_moves_list_only_informative_pairs(capsys):
    # one placement of K4 at n = 4: no pair is informative, so first_moves is
    # empty, yet x' still asks all six edges, starting with (0, 1)
    k4 = GraphFamily("clique:4")
    args = ["--json", "game", "xprime", "--n", "4", "--family", "clique:4"]
    assert cli.main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == 6 and doc["first_moves"] == []
    assert solver_questioner(4, k4, "xprime")(GameState(4, k4)) == (0, 1)
    tr = simulate(4, k4, solver_questioner(4, k4, "xprime"), adversary_no_first)
    assert [q for q, _ in tr.queries] == list(slot_pairs(4))


def test_matching_first_questioner():
    tr = simulate(4, STAR, matching_first_questioner(4), adversary_no_first)
    assert tr.no_count == 2


def test_terminal_no_mass_under_no_first():
    # when the NO-first adversary is beaten, NOs cover all pairs off E_y u E_0
    for n, fam in ((4, K3), (4, TREES)):
        exa1 = exa_oracle(n, 1, fam).value
        tr = simulate(n, fam, solver_questioner(n, fam, "L"), adversary_no_first)
        assert tr.no_count >= comb(n, 2) - exa1


def test_extremal_strategy_exact_query_count():
    g = build_klikk(5, 3).graph
    strat = questioner_extremal_strategy(5, complete_graph(3), g)
    tr = simulate(5, K3, strat, adversary_no_first)
    assert tr.total == comb(5, 2) - g.edge_count() == 4
    assert (tr.yes_count, tr.no_count) == (0, 4)


def test_extremal_strategy_worst_case_capped():
    g = build_klikk(5, 3).graph
    strat = questioner_extremal_strategy(5, complete_graph(3), g)
    assert strategy_worst_case(5, K3, strat) <= comb(5, 2)


def test_extremal_strategy_survives_eager_yes():
    g = build_klikk(5, 3).graph
    strat = questioner_extremal_strategy(5, complete_graph(3), g)

    def eager_yes(state, query):
        # YES whenever some consistent placement contains the pair
        q = (min(query), max(query))
        return any(q in p for p in consistent_placements(state))

    tr = simulate(5, K3, strat, eager_yes)
    assert tr.total <= comb(5, 2)


def test_extremal_strategy_validates_inputs():
    with pytest.raises(ValueError, match="exactly one"):
        questioner_extremal_strategy(4, complete_graph(3), complete_graph(4))
    with pytest.raises(ValueError, match="connected"):
        questioner_extremal_strategy(4, make_graph(4, [(0, 1), (2, 3)]),
                                     make_graph(4, [(0, 1), (2, 3)]))


def test_simulate_flags_bad_adversary():
    # answering NO to both matching pairs leaves no star placement at all
    def stubborn_no(state, query):
        return False

    with pytest.raises(AdversaryError):
        simulate(4, STAR, matching_first_questioner(4), stubborn_no)


def _unpruned_reference(n, fam, cost):
    """Reference minimax over (YES, NO) states: every unasked pair is a move,
    no endgame shortcut.  Returns value(yes, no) and optimal(yes, no): the
    informative slots (some but not every consistent placement uses them)
    whose move value is the state's value, or, once one placement is left,
    every slot whose move value is the state's value."""
    masks = fam.placements(n)
    memo = {}

    def consistent(yes, no):
        return [p for p in masks if p & no == 0 and yes & ~p == 0]

    def move_value(yes, no, s):
        b = 1 << s
        cons = consistent(yes, no)
        opts = []
        if any(p & b for p in cons):
            opts.append((0 if cost == "x" else 1) + value(yes | b, no))
        if any(not (p & b) for p in cons):
            opts.append(1 + value(yes, no | b))
        return max(opts)

    def value(yes, no):
        if (yes, no) in memo:
            return memo[yes, no]
        cons = consistent(yes, no)
        if len(cons) == 1 and (cost != "xprime" or yes == cons[0]):
            best = 0
        else:
            best = min(
                move_value(yes, no, s)
                for s in range(len(slot_pairs(n)))
                if not (yes | no) >> s & 1
            )
        memo[yes, no] = best
        return best

    def optimal(yes, no):
        cons = consistent(yes, no)
        v = value(yes, no)
        return [
            s
            for s in range(len(slot_pairs(n)))
            if not (yes | no) >> s & 1
            and (len(cons) == 1 or 0 < sum(p >> s & 1 for p in cons) < len(cons))
            and move_value(yes, no, s) == v
        ]

    return value, optimal


def _unpruned_minimax(n, fam, cost):
    """Root value and optimal informative first pairs of the unpruned reference."""
    value, optimal = _unpruned_reference(n, fam, cost)
    root = value(0, 0)
    if len(fam.placements(n)) == 1:  # no pair is informative
        return root, ()
    return root, tuple(sorted(slot_pairs(n)[s] for s in optimal(0, 0)))


def test_solver_matches_unpruned_minimax():
    solvers = {"L": solve_L, "x": solve_x, "xprime": solve_x_prime}
    grid = [(4, K3), (4, STAR), (4, TREES), (4, KMINUS)]
    grid += [(5, K3), (5, STAR), (5, GraphFamily("hamcycle"))]
    classes = {
        encode_graph6(f): GraphFamily.explicit((f,), label=encode_graph6(f))
        for f in all_pattern_classes(4)
    }
    grid += [(4, fam) for fam in classes.values()]
    grid += [(5, classes["CK"]), (5, classes["C]"])]  # 2K2 and C4
    grid += [(4, parse_family("trees+clique:3"))]
    for n, fam in grid:
        for cost, cost_solve in solvers.items():
            res = cost_solve(n, fam)
            want = _unpruned_minimax(n, fam, cost)
            assert (res.value, res.first_moves) == want, (n, fam, cost)


def test_solver_questioner_plays_the_first_optimal_slot():
    # every state the solver questioner reaches, against either answer
    for n, fam in ((4, K3), (4, TREES), (5, STAR)):
        for cost in ("L", "x", "xprime"):
            value, optimal = _unpruned_reference(n, fam, cost)
            ask = solver_questioner(n, fam, cost)
            stack, seen = [GameState(n, fam)], 0
            while stack:
                state = stack.pop()
                seen += 1
                yes, no = state.yes_mask(), state.no_mask()
                q = ask(state)
                if q is None:
                    assert value(yes, no) == 0, (n, fam, cost, state)
                    continue
                assert q == slot_pairs(n)[optimal(yes, no)[0]], (n, fam, cost, state)
                for is_yes in (False, True):
                    nxt = state.answer(q, is_yes)
                    if consistent_placements(nxt):
                        stack.append(nxt)
            assert seen > 1


def _stabilizer_orbits(n, asked):
    """Orbits of the unasked slots under every permutation of 0..n-1 that
    maps each asked pair to itself, by brute force."""
    pairs = slot_pairs(n)
    fixed = [pairs[s] for s in range(len(pairs)) if asked >> s & 1]
    group = [
        p for p in permutations(range(n))
        if all({p[u], p[v]} == {u, v} for u, v in fixed)
    ]
    orbits = {
        frozenset(pairs.index(tuple(sorted((p[u], p[v])))) for p in group)
        for s, (u, v) in enumerate(pairs)
        if not asked >> s & 1
    }
    return sorted(sorted(o) for o in orbits)


def test_slot_orbits_match_a_brute_force_stabilizer():
    rng = random.Random(13)
    for n in (4, 5):
        m = comb(n, 2)
        masks = [
            sum(1 << s for s in c) for k in range(3) for c in combinations(range(m), k)
        ]
        masks += [rng.getrandbits(m) for _ in range(30)]
        solver = _Solver(n, K3, "x")
        for asked in masks:
            orbits = _slot_orbits(n, asked)
            assert orbits == _stabilizer_orbits(n, asked), (n, asked)
            # the solver tries the smallest slot of each orbit, or every slot
            # (asked mask -1) once each orbit is a single slot
            moves, child_asked = solver._moves(asked)
            if all(len(o) == 1 for o in orbits):
                assert child_asked == -1
                assert [b for b, _ in moves] == [1 << s for s in range(m)]
            else:
                assert child_asked == asked
                assert [b for b, _ in moves] == [1 << o[0] for o in orbits]
            assert all(c == solver.contains[b.bit_length() - 1] for b, c in moves)


def test_sweep_smoke():
    rep = sweep_patterns(4, max_pattern_order=3)
    assert rep["rows"]
    for row in rep["rows"]:
        if row["gap_x"] is not None:
            assert row["gap_x"] >= 0
        if row["gap_xprime"] is not None:
            assert row["gap_xprime"] >= 0

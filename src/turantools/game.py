"""The Questioner/Adversary edge-query identification game, solved exactly.

A hidden placement of some family member sits on n labeled vertices.  The
Questioner asks vertex pairs; the Adversary answers adaptively, constrained
only to keep at least one placement consistent with all answers.  The game
ends when a single consistent placement remains (for the checked variant,
additionally every edge of it must have been asked).  Exact minimax values:

  L  - total queries,
  x  - queries answered NO,
  x' - total queries with the checked endgame.

The solver memoizes on the set of surviving placements, the only thing the
values depend on.  It never solves a child exactly: it asks bounded questions
"is value(S) <= t?", keeps the lower and upper bounds each answer proves for
S, and raises t from a floor that every game with two or more survivors
meets (see `_Solver`).  It tries one pair per orbit of the relabelings that
fix every asked pair: such a relabeling maps the survivors to themselves, so
all pairs of one orbit have the same move value.  `budget=` seconds bound a
solve; when they run out, the result is incomplete with value None, as when
the state cap is reached.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from turantools.counting import all_pattern_classes, count_copies
from turantools.errors import AdversaryError, UnsolvedError
from turantools.families import GraphFamily
from turantools.graphs import (
    Edge,
    Graph,
    check_order,
    complement,
    encode_graph6,
    graph_from_mask,
    mask_from_edges,
    pair_count,
    slot_index,
    slot_pairs,
)
from turantools.oracle import exa_oracle, exa_prime_oracle

SOLVER_ORDER_CAP = 7
DEFAULT_STATE_CAP = 5_000_000
# new states between deadline polls
POLL_EVERY = 4096


class GameState(NamedTuple):
    """Answered-YES and answered-NO pair sets; everything else is unasked."""

    n: int
    fam: GraphFamily
    yes: tuple[Edge, ...] = ()
    no: tuple[Edge, ...] = ()

    def yes_mask(self) -> int:
        return mask_from_edges(self.n, self.yes)

    def no_mask(self) -> int:
        return mask_from_edges(self.n, self.no)

    def asked(self) -> frozenset[Edge]:
        return frozenset(self.yes) | frozenset(self.no)

    def checked(self, query: Edge) -> Edge:
        """The query as (low, high); ValueError unless it is an unasked pair of 0..n-1."""
        q = (min(query), max(query))
        if q not in slot_index(self.n):
            raise ValueError(f"{tuple(query)} is not a pair of vertices 0..{self.n - 1}")
        if q in self.asked():
            raise ValueError(f"pair {q} was already asked")
        return q

    def survivors(self) -> list[int]:
        """Placement masks holding every YES pair and missing every NO pair."""
        yes, no = self.yes_mask(), self.no_mask()
        return [p for p in self.fam.placements(self.n) if p & no == 0 and yes & ~p == 0]

    def answer(self, query: Edge, is_yes: bool) -> "GameState":
        q = self.checked(query)
        if is_yes:
            return GameState(self.n, self.fam, self.yes + (q,), self.no)
        return GameState(self.n, self.fam, self.yes, self.no + (q,))


class GameValue(NamedTuple):
    """A solved game value and the optimal first queries.

    `first_moves` lists the informative optimal pairs: pairs some but not
    every consistent placement uses.  The relabelings of the vertices map the
    placements to themselves, so with two or more placements every pair is
    informative and optimal, and `first_moves` is every pair.  With one
    placement it is empty, even for x', whose questioner still has to ask the
    placement's edges: `solver_questioner` then opens with the lowest of
    them, and `value` counts them.
    """

    value: int | None
    first_moves: tuple[Edge, ...]
    states_explored: int
    complete: bool

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "first_moves": [list(q) for q in self.first_moves],
            "states_explored": self.states_explored,
            "complete": self.complete,
        }


def placements(n: int, fam: GraphFamily) -> list[tuple[Edge, ...]]:
    """All labeled copies of family members on 0..n-1, as sorted edge tuples."""
    return sorted(graph_from_mask(n, p).edges() for p in fam.placements(n))


def consistent_placements(state: GameState) -> list[tuple[Edge, ...]]:
    """Placements containing every YES pair and avoiding every NO pair."""
    if state.yes_mask() & state.no_mask():
        raise ValueError("a pair cannot be answered both YES and NO")
    return sorted(graph_from_mask(state.n, p).edges() for p in state.survivors())


def adversary_no_first(state: GameState, query: Edge) -> bool:
    """NO whenever some consistent placement excludes the query, else YES."""
    qbit = 1 << slot_index(state.n)[state.checked(query)]
    cons = state.survivors()
    if not cons:
        raise AdversaryError("no consistent placement remains")
    return all(p & qbit for p in cons)


def _slot_orbits(n: int, asked: int) -> list[list[int]]:
    """Orbits of the unasked slots under the relabelings fixing each asked pair.

    `asked` is a slot mask.  A vertex's type is the set of asked slots that
    contain it.  The relabelings that map every asked pair to itself are the
    free permutations of each class of vertices of one type: the vertices no
    asked pair touches, and the two ends of an asked pair that meets no other
    one.  So unasked slots {u, v} and {u', v'} share an orbit exactly when
    {type(u), type(v)} = {type(u'), type(v')}.  Each orbit is ascending, and
    the orbits come in the order of their smallest slots.
    """
    pairs = slot_pairs(n)
    types = [0] * n
    for s, (u, v) in enumerate(pairs):
        if asked >> s & 1:
            types[u] |= 1 << s
            types[v] |= 1 << s
    orbits: dict[tuple[int, int], list[int]] = {}
    for s, (u, v) in enumerate(pairs):
        if not asked >> s & 1:
            tu, tv = types[u], types[v]
            orbits.setdefault((min(tu, tv), max(tu, tv)), []).append(s)
    return list(orbits.values())


class _Solver:
    """Memoized exact minimax over surviving sets of placements, by bounded tests.

    A surviving set S is an int bitset over indices into `masks`.  Every asked
    pair lies in all or in none of the survivors, so L and x depend on S
    alone; x' memoizes g(S) = x' + |YES|, which depends on S alone too.

    Every family's placements are unions of orbits under relabeling the
    vertices, so the survivors S after asking the pair set A, whatever the
    answers, are mapped to themselves by every relabeling σ that fixes each
    pair of A.  σ maps the children of S through slot s to those through
    σ(s), so all slots of one orbit (`_slot_orbits`) have the same move
    value, and each state tries only the smallest slot of each orbit.  Once
    every orbit of unasked slots is a single slot, it stays so below, since
    asking more pairs only shrinks the group: such states carry A = -1 and
    try every slot.  The memo stays keyed on S: a bound proven for S holds
    whatever A led there.

    `_at_most(S, t)` answers "is value(S) <= t?" and memoizes the bounds
    (lo, hi) it proves for S.  A slot passes when its NO child passes at
    t - 1 and its YES child at t - cost_yes; the first slot that passes
    proves value(S) <= t, and no passing slot proves value(S) >= t + 1.  The
    exact value raises t from the stored lo until the test holds: the MTD(f)
    scheme of Plaat, Schaeffer, Pijls and de Bruin, "Best-first fixed-depth
    minimax algorithms", Artificial Intelligence 87 (1996).  A test below a
    floor fails at once, without a search.  The floors, for |S| >= 2:

      L  - ceil(log2 |S|): each answer at best halves the survivors;
      x  - 1: every split has a NO branch, and a NO costs 1;
      g  - 1 + the fewest edges of any placement: a single survivor p costs
           |p|, so by induction the NO branch of every split costs at least
           that much, plus 1 for the NO.

    A per-S floor for g (the fewest edges among the survivors) is sharper
    but costs more to compute than it saves.
    """

    def __init__(
        self,
        n: int,
        fam: GraphFamily,
        cost: str,
        state_cap: int = DEFAULT_STATE_CAP,
        budget: float | None = None,
        clock=time.monotonic,
    ):
        check_order(n)
        if n > SOLVER_ORDER_CAP:
            raise ValueError(f"game solver capped at n <= {SOLVER_ORDER_CAP}")
        if cost not in ("L", "x", "xprime"):
            raise ValueError(f"unknown cost functional {cost!r}")
        self.n = n
        self.cost = cost
        self.masks = fam.placements(n)
        if not self.masks:
            raise ValueError("family has no placements at this order")
        self.state_cap = state_cap
        self.clock = clock
        self.deadline = clock() + budget if budget is not None else None
        # a YES costs one query in L; in x, and in g = x' + |YES|, it is free
        self.cost_yes = 1 if cost == "L" else 0
        # a single survivor p: x' still has to ask the rest of p
        self.leaf = [p.bit_count() if cost == "xprime" else 0 for p in self.masks]
        # floors for |S| >= 2 (see above): L's depends on |S|, x's and g's do not
        self.halving = cost == "L"
        self.floor = 1 + min(self.leaf)
        # contains[s]: the placements that use slot s
        self.contains = [
            sum(1 << i for i, p in enumerate(self.masks) if p >> s & 1)
            for s in range(pair_count(n))
        ]
        # S -> (lo, hi): proven bounds on its value, hi None while unknown
        self.bounds: dict[int, tuple[int, int | None]] = {}
        # asked mask A -> (moves, A'): (slot bit, contains) of the smallest
        # slot of each orbit, and the mask the children extend; A' = -1, with
        # every slot a move, once every orbit is a single slot
        every = [(1 << s, c) for s, c in enumerate(self.contains)]
        self.moves: dict[int, tuple[list[tuple[int, int]], int]] = {-1: (every, -1)}

    def _moves(self, A: int) -> tuple[list[tuple[int, int]], int]:
        """The moves to try after asking A, and the mask the children extend."""
        entry = self.moves.get(A)
        if entry is None:
            orbits = _slot_orbits(self.n, A)
            if all(len(o) == 1 for o in orbits):
                entry = self.moves[-1]
            else:
                entry = [(1 << o[0], self.contains[o[0]]) for o in orbits], A
            self.moves[A] = entry
        return entry

    def _poll(self) -> None:
        if self.deadline is not None and self.clock() >= self.deadline:
            raise UnsolvedError("game budget ran out")

    def _at_most(self, S: int, t: int, A: int) -> bool:
        """Whether value(S) <= t, where S is reached by asking A; memoizes
        the bound this proves for S."""
        if S & (S - 1) == 0:
            return self.leaf[S.bit_length() - 1] <= t
        floor = (S.bit_count() - 1).bit_length() if self.halving else self.floor
        if t < floor:
            return False
        entry = self.bounds.get(S)
        if entry is None:
            if len(self.bounds) >= self.state_cap:
                raise UnsolvedError(f"state ceiling {self.state_cap} reached")
            lo, hi = floor, None
        else:
            lo, hi = entry
            if hi is not None and hi <= t:
                return True
            if t < lo:
                return False
        passed = self._passing_move(S, t, A) is not None
        self.bounds[S] = (lo, t) if passed else (t + 1, hi)
        if entry is None and len(self.bounds) % POLL_EVERY == 0:
            self._poll()
        return passed

    def _passing_move(self, S: int, t: int, A: int) -> int | None:
        """The first move after asking A whose children pass at t, as its
        slot; None if none does.

        The moves are the orbits' smallest slots, ascending, and every slot
        of an orbit passes with its representative: the first that passes is
        the smallest passing slot.
        """
        t_yes = t - self.cost_yes
        moves, A = self._moves(A)
        for b, c in moves:
            s_yes = S & c
            if (
                s_yes
                and s_yes != S
                and self._at_most(S ^ s_yes, t - 1, A | b)
                and self._at_most(s_yes, t_yes, A | b)
            ):
                return b.bit_length() - 1
        return None

    def value(self, S: int, A: int) -> int:
        """L or x of S, or g(S) = x' + |YES| for the checked variant."""
        t = self.bounds.get(S, (0, None))[0]
        while not self._at_most(S, t, A):
            t += 1
        return t

    def solve(self) -> GameValue:
        try:
            self._poll()
            v = self.value((1 << len(self.masks)) - 1, 0)
        except UnsolvedError:
            return GameValue(None, (), len(self.bounds), False)
        # the relabelings fix the root survivors: all pairs are one orbit, and
        # each is informative once two placements exist (see `GameValue`)
        moves = tuple(sorted(slot_pairs(self.n))) if len(self.masks) > 1 else ()
        return GameValue(v, moves, len(self.bounds), True)

    def best_query(self, state: GameState) -> int | None:
        """Lex-smallest optimal informative slot, None at terminal states."""
        live = set(state.survivors())
        S = sum(1 << i for i, p in enumerate(self.masks) if p in live)
        yes, no = state.yes_mask(), state.no_mask()
        if not S:
            raise AdversaryError("no consistent placement remains")
        if S & (S - 1) == 0:
            if self.cost == "xprime":
                remaining = self.masks[S.bit_length() - 1] & ~yes & ~no
                if remaining:
                    return (remaining & -remaining).bit_length() - 1
            return None
        slot = self._passing_move(S, self.value(S, yes | no), yes | no)
        if slot is None:
            raise AssertionError("a state of value v has a move passing at v")
        return slot


def solve_L(n: int, fam: GraphFamily, **kw) -> GameValue:
    """Worst-case total queries to pin the hidden placement, optimal play."""
    return _Solver(n, fam, "L", **kw).solve()


def solve_x(n: int, fam: GraphFamily, **kw) -> GameValue:
    """Worst-case NO answers to pin the hidden placement, optimal play."""
    return _Solver(n, fam, "x", **kw).solve()


def solve_x_prime(n: int, fam: GraphFamily, **kw) -> GameValue:
    """Worst-case total queries when every edge of the copy must be asked."""
    return _Solver(n, fam, "xprime", **kw).solve()


def solver_questioner(n: int, fam: GraphFamily, cost: str = "L", **kw):
    """Deterministic optimal questioner: lex-smallest optimal query each turn."""
    solver = _Solver(n, fam, cost, **kw)
    pairs = slot_pairs(n)

    def questioner(state: GameState) -> Edge | None:
        s = solver.best_query(state)
        return pairs[s] if s is not None else None

    return questioner


class Transcript(NamedTuple):
    """Full record of one played game."""

    queries: tuple[tuple[Edge, bool], ...]
    final_placement: tuple[Edge, ...]

    @property
    def total(self) -> int:
        return len(self.queries)

    @property
    def yes_count(self) -> int:
        return sum(1 for _, a in self.queries if a)

    @property
    def no_count(self) -> int:
        return self.total - self.yes_count


def simulate(n: int, fam: GraphFamily, questioner, adversary) -> Transcript:
    """Play questioner vs adversary; validate consistency at every step.

    The questioner returns the next unasked pair or None to claim
    identification; the adversary returns True for YES.  Raises
    AdversaryError if an answer leaves no consistent placement.
    """
    state = GameState(n, fam)
    record: list[tuple[Edge, bool]] = []
    for _ in range(pair_count(n) + 1):
        q = questioner(state)
        if q is None:
            break
        q = state.checked(q)
        ans = bool(adversary(state, q))
        state = state.answer(q, ans)
        if not state.survivors():
            raise AdversaryError(f"answer {ans} on {q} left no consistent placement")
        record.append((q, ans))
    cons = state.survivors()
    if len(cons) != 1:
        raise ValueError(
            f"questioner stopped with {len(cons)} consistent placements"
        )
    final = cons[0]
    if state.yes_mask() & ~final:
        raise AdversaryError("YES answers are not a subset of the final placement")
    return Transcript(tuple(record), graph_from_mask(n, final).edges())


def questioner_extremal_strategy(n: int, pattern: Graph, g_ext: Graph):
    """Questioner built on an extremal graph with a unique pattern copy.

    Queries the non-edges of g_ext first; after any YES it expands around the
    endpoints of known YES pairs until the copy is pinned, falling back to
    the remaining pairs.  Total and correct against every valid adversary.
    """
    if g_ext.n != n:
        raise ValueError("extremal graph order must match the ambient order")
    if not pattern.is_connected() or pattern.edge_count() == 0:
        raise ValueError("pattern must be connected with at least one edge")
    if count_copies(g_ext, pattern) != 1:
        raise ValueError("extremal graph must contain exactly one pattern copy")
    non_edges = complement(g_ext).edges()

    def questioner(state: GameState) -> Edge | None:
        if len(state.survivors()) == 1:
            return None
        asked = state.asked()
        if not state.yes:
            for q in non_edges:
                if q not in asked:
                    return q
        else:
            frontier = {v for e in state.yes for v in e}
            for u in sorted(frontier):
                for w in range(n):
                    if w == u:
                        continue
                    q = (min(u, w), max(u, w))
                    if q not in asked:
                        return q
        for q in slot_pairs(n):
            if q not in asked:
                return q
        raise AssertionError("all pairs asked yet multiple placements remain")

    return questioner


def strategy_worst_case(n: int, fam: GraphFamily, questioner) -> int:
    """Max total queries of a deterministic questioner over all valid adversaries."""
    memo: dict[tuple[int, int], int] = {}

    def walk(state: GameState) -> int:
        key = (state.yes_mask(), state.no_mask())
        if key in memo:
            return memo[key]
        q = questioner(state)
        if q is None:
            if len(state.survivors()) != 1:
                raise ValueError("questioner stopped before identification")
            memo[key] = 0
            return 0
        best = None
        for ans in (False, True):
            nxt = state.answer(q, ans)
            if nxt.survivors():
                v = 1 + walk(nxt)
                if best is None or v > best:
                    best = v
        assert best is not None
        memo[key] = best
        return best

    return walk(GameState(n, fam))


def sweep_patterns(n: int, max_pattern_order: int = 4) -> dict:
    """Gap survey over all single-pattern families with small patterns.

    For every pattern class F with at most max_pattern_order vertices,
    reports x(n,F) against C(n,2) - exa_1(n,F) and x'(n,F) against
    C(n,2) - exa'_1(n,F); findings only, nothing asserted.
    """
    check_order(n)
    total_pairs = pair_count(n)
    rows = []
    for f in all_pattern_classes(max_pattern_order):
        if f.n > n:
            continue
        fam = GraphFamily.explicit((f,), label=f"pattern:{encode_graph6(f)}")
        # the games first: the solver's order cap is below the oracles' guard
        xv = solve_x(n, fam)
        xpv = solve_x_prime(n, fam)
        exa1 = exa_oracle(n, 1, fam)
        exap = exa_prime_oracle(n, fam)
        gap_x = (
            xv.value - (total_pairs - exa1.value)
            if exa1.value is not None and xv.value is not None
            else None
        )
        gap_xp = (
            xpv.value - (total_pairs - exap.value)
            if exap.value is not None and xpv.value is not None
            else None
        )
        rows.append(
            {
                "pattern_graph6": encode_graph6(f),
                "pattern_edges": f.edge_count(),
                "exa1": exa1.value,
                "x": xv.value,
                "gap_x": gap_x,
                "exa_prime1": exap.value,
                "xprime": xpv.value,
                "gap_xprime": gap_xp,
            }
        )
    return {
        "n": n,
        "max_pattern_order": max_pattern_order,
        "rows": rows,
        "strict_gap_x_found": any(r["gap_x"] not in (0, None) for r in rows),
        "strict_gap_xprime_found": any(r["gap_xprime"] not in (0, None) for r in rows),
    }

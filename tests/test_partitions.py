import pickle
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from turantools.errors import UnsolvedError
from turantools.families import GraphFamily
from turantools.oracle import exa_oracle
from turantools.partitions import (
    PartitionPair,
    _most_parts,
    _partitions_into,
    exa1_kab,
    is_unique_partition,
    mup,
    mup_series_check,
    smallest_nondivisor,
)


def test_smallest_nondivisor():
    assert smallest_nondivisor(1) == 2
    assert smallest_nondivisor(2) == 3
    assert smallest_nondivisor(6) == 4
    assert smallest_nondivisor(12) == 5
    with pytest.raises(ValueError):
        smallest_nondivisor(0)


def test_partition_pair_canonical_and_validated():
    pp = PartitionPair((1, 3, 2), (2,))
    assert pp.parts_a == (3, 2, 1) and pp.parts_b == (2,)
    assert PartitionPair([2], (1, 4)) == PartitionPair((2,), (4, 1))
    # unpickling goes through the subclass's own __new__, which must accept its fields
    back = pickle.loads(pickle.dumps(pp))
    assert back == pp and type(back) is PartitionPair and str(back) == "3,2,1/2"
    for parts_a, parts_b, message in (
        ((), (1,), "at least one part"),
        ((1,), (), "at least one part"),
        ((0, 1), (1,), "must be positive"),
        ((2,), (1, -3), "must be positive"),
    ):
        with pytest.raises(ValueError, match=message):
            PartitionPair(parts_a, parts_b)


def test_worked_uniqueness_examples():
    assert is_unique_partition(6, 53, PartitionPair((3, 3), (13, 13, 13, 13, 1)))
    assert not is_unique_partition(6, 53, PartitionPair((3, 3), (50, 3)))
    assert is_unique_partition(6, 6, PartitionPair((3, 3), (2, 2, 2)))
    assert not is_unique_partition(6, 6, PartitionPair((3, 3), (3, 3)))


def test_uniqueness_rejects_sum_mismatch():
    with pytest.raises(ValueError, match="sums"):
        is_unique_partition(5, 5, PartitionPair((3, 3), (2, 2, 2)))


def test_shared_value_never_unique():
    assert not is_unique_partition(4, 7, PartitionPair((2, 2), (5, 2)))
    assert not is_unique_partition(1, 1, PartitionPair((1,), (1,)))


def _unique_by_enumeration(a_sum: int, pp: PartitionPair) -> bool:
    """Independent oracle: enumerate index subsets directly."""
    if set(pp.parts_a) & set(pp.parts_b):
        return False
    items = list(pp.parts_a) + list(pp.parts_b)
    hits = 0
    for r in range(len(items) + 1):
        for sel in combinations(range(len(items)), r):
            if sum(items[i] for i in sel) == a_sum:
                hits += 1
    if a_sum == pp.sum_b():
        return hits == 2
    return hits == 1


@st.composite
def partition_pairs(draw):
    def one_side(total_max):
        total = draw(st.integers(min_value=1, max_value=total_max))
        parts = []
        left = total
        while left:
            p = draw(st.integers(min_value=1, max_value=left))
            parts.append(p)
            left -= p
        return tuple(parts)

    return PartitionPair(one_side(7), one_side(7))


@given(partition_pairs())
@settings(max_examples=150, deadline=None)
def test_uniqueness_matches_enumeration_oracle(pp):
    a, b = pp.sum_a(), pp.sum_b()
    assert is_unique_partition(a, b, pp) == _unique_by_enumeration(a, pp)


def _all_partitions(n: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    """Every partition of n, parts non-increasing, by direct recursion."""
    if n == 0:
        return [()]
    top = n if max_part is None else min(n, max_part)
    return [(p,) + r for p in range(top, 0, -1) for r in _all_partitions(n - p, p)]


def test_uniqueness_matches_enumeration_oracle_exhaustive():
    for a in range(1, 8):
        for b in range(1, 8):
            for pa in _all_partitions(a):
                for pb in _all_partitions(b):
                    pp = PartitionPair(pa, pb)
                    assert is_unique_partition(a, b, pp) == _unique_by_enumeration(
                        a, pp
                    ), pp


def test_partitions_into_without_pruning_yields_every_partition():
    for n in range(1, 13):
        for k in range(0, n + 2):
            want = [p for p in _all_partitions(n) if len(p) == k]
            assert list(_partitions_into(n, k, n)) == want, (n, k)


def test_partitions_into_prunes_by_forbidden_sums():
    for n in range(1, 13):
        for k in range(1, n + 1):
            for forbidden in (0b10, 0b1000, 0b100100, 0b1010010000):
                want = [
                    p
                    for p in _all_partitions(n)
                    if len(p) == k
                    and not any(
                        forbidden >> sum(sel) & 1
                        for r in range(1, k + 1)
                        for sel in combinations(p, r)
                    )
                ]
                assert list(_partitions_into(n, k, n, forbidden)) == want, (n, k)


def test_most_parts_is_the_largest_part_count_with_a_partition():
    for n in range(0, 15):
        for max_part in range(1, n + 2):
            for forbidden in (0, 0b10, 0b1000, 0b100100, 0b1010010000):
                want = max(
                    (k for k in range(n + 1)
                     if next(_partitions_into(n, k, max_part, forbidden), None) is not None),
                    default=-1,
                )
                assert _most_parts(n, max_part, forbidden) == want, (n, max_part, forbidden)


def _reference_mup(a_sum: int, b_sum: int):
    """Double loop over all partition pairs, judged by the enumeration oracle."""
    for total in range(a_sum + b_sum, 1, -1):
        winners = [
            (pa, pb)
            for pa in _all_partitions(a_sum)
            for pb in _all_partitions(b_sum)
            if len(pa) + len(pb) == total
            and _unique_by_enumeration(a_sum, PartitionPair(pa, pb))
        ]
        if winners:
            return total, PartitionPair(*min(winners))


def test_mup_matches_reference():
    for a in range(1, 16):
        for b in range(1, 17 - a):
            if (a, b) == (1, 1):
                continue
            res = mup(a, b)
            assert (res.value, res.witness) == _reference_mup(a, b), (a, b)


def test_mup_at_the_budget_edge():
    # 15 also comes out of an exhaustive search that counts the assignments
    # of every partition pair with a subset-sum DP
    fwd, rev = mup(6, 54), mup(54, 6)
    assert fwd.value == rev.value == 15
    assert str(fwd.witness) == "3,3/5,5,4,4,4,4,4,4,4,4,4,4,4"
    assert str(rev.witness) == "5,5,4,4,4,4,4,4,4,4,4,4,4/3,3"
    assert is_unique_partition(6, 54, fwd.witness)
    assert is_unique_partition(54, 6, rev.witness)
    assert _unique_by_enumeration(6, fwd.witness)
    assert _unique_by_enumeration(54, rev.witness)


def test_mup_base_case():
    res = mup(1, 1)
    assert res.value == 2 and res.witness is None


def test_mup_small_values():
    res = mup(2, 2)
    assert res.value == 3
    assert res.witness == PartitionPair((1, 1), (2,))
    assert mup(1, 2).value == 2
    assert mup(3, 3).value == 4  # e.g. 1+1+1 / 3


def test_mup_witness_is_unique_partition():
    for a in range(1, 7):
        for b in range(a, 7):
            if (a, b) == (1, 1):
                continue
            res = mup(a, b)
            assert is_unique_partition(a, b, res.witness)
            assert res.witness.total_parts() == res.value


def test_mup_is_actually_maximal():
    # nothing with more parts passes the uniqueness check; exhaustive A+B <= 14
    for a_sum in range(1, 14):
        for b_sum in range(a_sum, 15 - a_sum):
            if (a_sum, b_sum) == (1, 1):
                continue
            best = mup(a_sum, b_sum).value
            for total in range(best + 1, a_sum + b_sum + 1):
                for a_parts in range(1, min(a_sum, total - 1) + 1):
                    b_parts = total - a_parts
                    if b_parts < 1 or b_parts > b_sum:
                        continue
                    for pa in _partitions_into(a_sum, a_parts, a_sum):
                        for pb in _partitions_into(b_sum, b_parts, b_sum):
                            assert not is_unique_partition(
                                a_sum, b_sum, PartitionPair(pa, pb)
                            )


def test_mup_symmetry():
    for a in range(1, 8):
        for b in range(1, 8):
            assert mup(a, b).value == mup(b, a).value


def test_mup_trivial_bounds():
    for a in range(2, 11):
        for b in range(a, 11):
            val = mup(a, b).value
            assert a + 1 <= val <= a + b


def test_mup_budget():
    with pytest.raises(UnsolvedError):
        mup(40, 40)


def test_exa1_kab_values():
    assert exa1_kab(1, 2) == 2
    assert exa1_kab(2, 2) == 5
    assert exa1_kab(1, 1) == 1


def test_exa1_kab_matches_oracle():
    for a in range(1, 7):
        for b in range(a, 7):
            if a + b > 7:
                continue
            got = exa_oracle(a + b, 1, GraphFamily(f"bipartite:{a},{b}")).value
            assert exa1_kab(a, b) == got, (a, b)


def test_series_check_structure():
    rep = mup_series_check(2, 20)
    assert rep["nu"] == 3
    assert rep["divisor_property_all"]
    ns = [r["n"] for r in rep["rows"]]
    assert ns == list(range(3, 21))
    # steps of nu eventually add exactly one part
    assert rep["last_step_failure"] <= 6


def test_series_check_budget():
    with pytest.raises(UnsolvedError):
        mup_series_check(7, 10)
    with pytest.raises(UnsolvedError):
        mup_series_check(2, 59)

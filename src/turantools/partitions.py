"""Unique multiset partitions of two targets, and the mup maximum.

A pair of partitions of A and B is *unique* when the combined indexed parts
admit exactly one side-assignment reaching the sums (A, B).  Assignments are
index subsets, so repeated values on one side do not multiply the count, but
a value shared between the two sides always yields a second assignment by
swapping, hence such pairs are never unique.  When A = B an assignment and
its side-swap count once.

Any other assignment reaching A is the A-side minus X plus Y, for non-empty
X from the A-side and Y from the B-side with sum(X) = sum(Y).  So a
value-disjoint pair is unique exactly when the two sides' sub-multiset sums
meet only in 0, and in A when A = B (the swap).  Adding a part only adds
sums, so `mup` cuts every partition that extends a failing one.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from turantools.errors import UnsolvedError

MUP_BUDGET = 60  # largest A+B the exhaustive search accepts
SERIES_C_CAP = 6


class _Parts(NamedTuple):
    parts_a: tuple[int, ...]
    parts_b: tuple[int, ...]


class PartitionPair(_Parts):
    """Two multisets of positive integers, canonically non-increasing."""

    __slots__ = ()

    # a NamedTuple class may not define __new__, so the check lives on a subclass
    def __new__(cls, parts_a, parts_b):
        parts_a = tuple(sorted(parts_a, reverse=True))
        parts_b = tuple(sorted(parts_b, reverse=True))
        if not parts_a or not parts_b:
            raise ValueError("both sides need at least one part")
        if min(parts_a + parts_b) < 1:
            raise ValueError("parts must be positive")
        return super().__new__(cls, parts_a, parts_b)

    def sum_a(self) -> int:
        return sum(self.parts_a)

    def sum_b(self) -> int:
        return sum(self.parts_b)

    def total_parts(self) -> int:
        return len(self.parts_a) + len(self.parts_b)

    def __str__(self) -> str:
        return "{}/{}".format(
            ",".join(map(str, self.parts_a)), ",".join(map(str, self.parts_b))
        )


class MupResult(NamedTuple):
    value: int
    witness: PartitionPair | None

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "witness": str(self.witness) if self.witness else None,
        }


def smallest_nondivisor(c: int) -> int:
    """Least nu >= 2 that does not divide c."""
    if c < 1:
        raise ValueError("need a positive integer")
    nu = 2
    while c % nu == 0:
        nu += 1
    return nu


def _subset_sums(parts: tuple[int, ...]) -> int:
    """Bitset of all sub-multiset sums of parts (bit s set when s is a sum)."""
    sums = 1
    for p in parts:
        sums |= sums << p
    return sums


def is_unique_partition(a_sum: int, b_sum: int, pp: PartitionPair) -> bool:
    """Exactly one side-assignment of the combined parts reaches (A, B).

    Side-swapped assignments are identified when A = B; any part value
    appearing on both sides disqualifies the pair outright.  Otherwise the
    sides' sub-multiset sums may meet only in 0, and in A when A = B: any
    other common sum s swaps parts worth s of one side for the other's.
    """
    if pp.sum_a() != a_sum or pp.sum_b() != b_sum:
        raise ValueError(
            f"partition sums ({pp.sum_a()}, {pp.sum_b()}) != targets ({a_sum}, {b_sum})"
        )
    if set(pp.parts_a) & set(pp.parts_b):
        return False
    shared = 1 | (a_sum == b_sum) << a_sum
    return not _subset_sums(pp.parts_a) & _subset_sums(pp.parts_b) & ~shared


def _partitions_into(n: int, k: int, max_part: int, forbidden: int = 0):
    """Partitions of n into exactly k parts, each <= max_part, non-increasing.

    Yields only those whose sub-multiset sums miss the bitset `forbidden`
    (bit 0 clear; 0 yields every partition).  A partition (p, *rest) does
    when p is not forbidden and rest misses every forbidden f and f - p, so
    a forbidden part cuts its whole subtree.
    """
    if k == 0 or n < k:
        if n == k:  # n = k = 0: the empty partition
            yield ()
        return
    least = (~forbidden & (forbidden + 2)).bit_length() - 1  # least part allowed
    for first in range(min(max_part, n - (k - 1) * least), (n + k - 1) // k - 1, -1):
        if not forbidden >> first & 1:
            rest_forbidden = forbidden | forbidden >> first
            for rest in _partitions_into(n - first, k - 1, first, rest_forbidden):
                yield (first,) + rest


def _most_parts(n: int, max_part: int, forbidden: int) -> int:
    """Most parts k for which `_partitions_into(n, k, max_part, forbidden)`
    yields something; -1 if it yields nothing for any k.

    Sub-multiset sums of a partition of n are at most n, so only the bits
    0..n of `forbidden` matter, and the memo is keyed on those alone.
    """
    return _most_parts_memo(n, min(max_part, n), forbidden & ((2 << n) - 1))


@lru_cache(maxsize=1 << 16)  # every mup at A + B = 60 in turn would make 230k entries
def _most_parts_memo(n: int, max_part: int, forbidden: int) -> int:
    if n == 0:
        return 0
    best = -1
    # first part ascending: the bound 1 + (n - first) of a first part falls
    for first in range(1, max_part + 1):
        if best >= 1 + n - first:
            break
        if not forbidden >> first & 1:
            rest = _most_parts(n - first, first, forbidden | forbidden >> first)
            if rest >= 0:
                best = max(best, 1 + rest)
    return best


@lru_cache(maxsize=None)
def mup(a_sum: int, b_sum: int) -> MupResult:
    """Exact maximum total part count over unique partitions of (A, B).

    Each partition of the smaller target fixes the sums the larger side's
    partitions must miss.  Its reach, its part count plus the most parts of
    a larger-side partition that misses them (`_most_parts`, exact), is the
    largest total it takes part in, so the value is the largest reach.  The
    witness is the least (A-side, B-side) pair at that total, drawn from the
    smaller-side partitions that reach it.  mup(1,1) is 2 by definition and
    carries no witness (no pair of one-part partitions of 1 and 1 is
    value-disjoint).
    """
    if a_sum < 1 or b_sum < 1:
        raise ValueError("targets must be positive")
    if a_sum == 1 and b_sum == 1:
        return MupResult(2, None)
    if a_sum + b_sum > MUP_BUDGET:
        raise UnsolvedError(
            f"mup search budget is A+B <= {MUP_BUDGET}, got {a_sum + b_sum}"
        )
    swap = b_sum < a_sum
    small, big = (b_sum, a_sum) if swap else (a_sum, b_sum)
    # A shared part value is a shared sum, hence forbidden, save for (A)/(B)
    # when A = B; that pair never wins, (1,...,1)/(B) has total A + 1.
    shared = 1 | (a_sum == b_sum) << a_sum
    sides = []  # the smaller side's partitions: (parts, forbidden, reach)
    for k in range(1, small + 1):
        for ps in _partitions_into(small, k, small):
            forbidden = _subset_sums(ps) & ~shared
            sides.append((ps, forbidden, k + _most_parts(big, big, forbidden)))
    value = max(reach for _, _, reach in sides)
    pa, pb = min(
        (pl, ps) if swap else (ps, pl)
        for ps, forbidden, reach in sides
        if reach == value
        for pl in _partitions_into(big, value - len(ps), big, forbidden)
    )
    return MupResult(value, PartitionPair(pa, pb))


def exa1_kab(a_sum: int, b_sum: int) -> int:
    """Max edges of an (A+B)-vertex graph with one spanning K_{A,B}: via mup."""
    n = a_sum + b_sum
    return n * (n - 1) // 2 - n + mup(a_sum, b_sum).value


def mup_series_check(c: int, n_max: int) -> dict:
    """Tabulate mup(n, c) for c < n <= n_max and report structural checks.

    Per row: the witness respects the divisor cap (at most c/d combined parts
    of size d for each divisor d of c), the offset against the n//nu trend,
    and the fraction of witness parts equal to nu.  The summary reports the
    last n where mup(n+nu, c) - mup(n, c) = 1 fails (0 when it never does).
    """
    if c > SERIES_C_CAP:
        raise UnsolvedError(f"series check capped at c <= {SERIES_C_CAP}")
    if n_max > MUP_BUDGET - c:
        raise UnsolvedError(
            f"series check capped at n <= {MUP_BUDGET - c} for c={c}"
        )
    nu = smallest_nondivisor(c)
    divisors = [d for d in range(1, c + 1) if c % d == 0]
    rows = []
    values: dict[int, int] = {}
    for n in range(c + 1, n_max + 1):
        res = mup(n, c)
        values[n] = res.value
        parts = res.witness.parts_a + res.witness.parts_b
        divisor_ok = all(
            sum(1 for p in parts if p == d) <= c // d for d in divisors
        )
        nu_parts = sum(1 for p in parts if p == nu)
        rows.append(
            {
                "n": n,
                "c": c,
                "mup": res.value,
                "witness": str(res.witness),
                "delta_vs_formula": res.value - n // nu,
                "divisor_ok": divisor_ok,
                "nu_part_fraction": f"{nu_parts}/{len(parts)}",
            }
        )
    last_bad = 0
    for n in range(c + 1, n_max - nu + 1):
        if values[n + nu] - values[n] != 1:
            last_bad = n
    return {
        "c": c,
        "nu": nu,
        "n_max": n_max,
        "rows": rows,
        "divisor_property_all": all(r["divisor_ok"] for r in rows),
        "last_step_failure": last_bad,
    }

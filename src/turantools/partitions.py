"""Unique multiset partitions of two targets, and the mup maximum.

A pair of partitions of A and B is *unique* when the combined indexed parts
admit exactly one side-assignment reaching the sums (A, B).  Assignments are
index subsets, so repeated values on one side do not multiply the count, but
a value shared between the two sides always yields a second assignment by
swapping, hence such pairs are never unique.  When A = B an assignment and
its side-swap count once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from turantools.errors import UnsolvedError

MUP_BUDGET = 60  # largest A+B the exhaustive search accepts
SERIES_C_CAP = 6
SERIES_N_CAP = 60


@dataclass(frozen=True)
class PartitionPair:
    """Two multisets of positive integers, canonically non-increasing."""

    parts_a: tuple[int, ...]
    parts_b: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts_a", tuple(sorted(self.parts_a, reverse=True)))
        object.__setattr__(self, "parts_b", tuple(sorted(self.parts_b, reverse=True)))
        if not self.parts_a or not self.parts_b:
            raise ValueError("both sides need at least one part")
        if min(self.parts_a + self.parts_b) < 1:
            raise ValueError("parts must be positive")

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


@dataclass(frozen=True)
class MupResult:
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


def _assignment_count(parts: tuple[int, ...], target: int, cap: int = 3) -> int:
    """Index subsets of the multiset summing to target, clipped at cap."""
    coeff = [0] * (target + 1)
    coeff[0] = 1
    mult: dict[int, int] = {}
    for p in parts:
        mult[p] = mult.get(p, 0) + 1
    for value, m in mult.items():
        nxt = [0] * (target + 1)
        for taken in range(m + 1):
            add = value * taken
            if add > target:
                break
            ways = comb(m, taken)
            for s in range(target - add + 1):
                if coeff[s]:
                    nxt[s + add] = min(cap, nxt[s + add] + ways * coeff[s])
        coeff = nxt
    return coeff[target]


def is_unique_partition(a_sum: int, b_sum: int, pp: PartitionPair) -> bool:
    """Exactly one side-assignment of the combined parts reaches (A, B).

    Side-swapped assignments are identified when A = B; any part value
    appearing on both sides disqualifies the pair outright.
    """
    if pp.sum_a() != a_sum or pp.sum_b() != b_sum:
        raise ValueError(
            f"partition sums ({pp.sum_a()}, {pp.sum_b()}) != targets ({a_sum}, {b_sum})"
        )
    if set(pp.parts_a) & set(pp.parts_b):
        return False
    count = _assignment_count(pp.parts_a + pp.parts_b, a_sum)
    if a_sum == b_sum:
        return count == 2
    return count == 1


def _partitions_into(n: int, k: int, max_part: int) -> list[tuple[int, ...]]:
    """Partitions of n into exactly k parts, each <= max_part, non-increasing."""
    if k == 0:
        return [()] if n == 0 else []
    if n < k:
        return []
    out = []
    lo = (n + k - 1) // k
    hi = min(max_part, n - k + 1)
    for first in range(hi, lo - 1, -1):
        for rest in _partitions_into(n - first, k - 1, first):
            out.append((first,) + rest)
    return out


def mup(a_sum: int, b_sum: int) -> MupResult:
    """Exact maximum total part count over unique partitions of (A, B).

    mup(1,1) is 2 by definition and carries no witness (no pair of
    one-part partitions of 1 and 1 is value-disjoint).
    """
    if a_sum < 1 or b_sum < 1:
        raise ValueError("targets must be positive")
    if a_sum == 1 and b_sum == 1:
        return MupResult(2, None)
    if a_sum + b_sum > MUP_BUDGET:
        raise UnsolvedError(
            f"mup search budget is A+B <= {MUP_BUDGET}, got {a_sum + b_sum}"
        )
    for total in range(a_sum + b_sum, 1, -1):
        winners = []
        for a_parts in range(max(1, total - b_sum), min(a_sum, total - 1) + 1):
            b_parts = total - a_parts
            for pa in _partitions_into(a_sum, a_parts, a_sum):
                set_a = set(pa)
                for pb in _partitions_into(b_sum, b_parts, b_sum):
                    if set_a & set(pb):
                        continue
                    pp = PartitionPair(pa, pb)
                    if is_unique_partition(a_sum, b_sum, pp):
                        winners.append((pa, pb))
        if winners:
            pa, pb = min(winners)
            return MupResult(total, PartitionPair(pa, pb))
    raise AssertionError("unreachable: the all-ones-vs-single split is unique")


@lru_cache(maxsize=None)
def _mup_cached(a_sum: int, b_sum: int) -> MupResult:
    return mup(a_sum, b_sum)


def exa1_kab(a_sum: int, b_sum: int) -> int:
    """Max edges of an (A+B)-vertex graph with one spanning K_{A,B}: via mup."""
    n = a_sum + b_sum
    return n * (n - 1) // 2 - n + _mup_cached(a_sum, b_sum).value


def _divisors(c: int) -> list[int]:
    return [d for d in range(1, c + 1) if c % d == 0]


def mup_series_check(c: int, n_max: int) -> dict:
    """Tabulate mup(n, c) for c < n <= n_max and report structural checks.

    Per row: the witness respects the divisor cap (at most c/d combined parts
    of size d for each divisor d of c), the offset against the n//nu trend,
    and the fraction of witness parts equal to nu.  The summary reports the
    last n where mup(n+nu, c) - mup(n, c) = 1 fails (0 when it never does).
    """
    if c > SERIES_C_CAP:
        raise UnsolvedError(f"series check capped at c <= {SERIES_C_CAP}")
    if n_max > SERIES_N_CAP - c:
        raise UnsolvedError(
            f"series check capped at n <= {SERIES_N_CAP - c} for c={c}"
        )
    nu = smallest_nondivisor(c)
    divisors = _divisors(c)
    rows = []
    values: dict[int, int] = {}
    for n in range(c + 1, n_max + 1):
        res = _mup_cached(n, c)
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

"""Multi-index algebra and symmetric-function sums.

Multi-indices are n-tuples of non-negative integers; index positions are
1-based in all support-set arguments, matching the usual k = 1..n labelling
of the summands.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = [
    "MultiIndex",
    "enumerate_indices",
    "count_compositions",
    "count_support_compositions",
    "count_no_singleton_compositions",
    "multinomial",
    "elementary_symmetric",
]


@dataclass(frozen=True)
class MultiIndex:
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))
        if any(e < 0 for e in self.entries):
            raise ValueError("multi-index entries must be non-negative")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    @property
    def total(self) -> int:
        """|alpha| = sum of entries."""
        return sum(self.entries)

    def prefix_total(self, i: int) -> int:
        """|alpha|_i = sum of the first i entries."""
        return sum(self.entries[:i])

    @property
    def factorial(self) -> int:
        """alpha! as an exact integer."""
        out = 1
        for e in self.entries:
            out *= math.factorial(e)
        return out

    @property
    def support(self) -> frozenset[int]:
        """s(alpha): 1-based positions with a nonzero entry."""
        return frozenset(k + 1 for k, e in enumerate(self.entries) if e != 0)

    @property
    def singletons(self) -> frozenset[int]:
        """sing(alpha): 1-based positions with entry exactly 1."""
        return frozenset(k + 1 for k, e in enumerate(self.entries) if e == 1)

    def doubled(self) -> "MultiIndex":
        return MultiIndex(tuple(2 * e for e in self.entries))


def _compositions(n: int, total: int, least: int, zeros: bool) -> Iterator[tuple[int, ...]]:
    # First entry descending, recursively; every part >= least, or 0 if
    # zeros.  Without zeros the first entry leaves at least `least` for
    # each later part, so no branch ends empty.
    if n == 0:
        if total == 0:
            yield ()
        return
    top = total if zeros else total - least * (n - 1)
    for c in range(top, -1, -1) if n > 1 else (total,):
        if c >= least or (zeros and c == 0):
            for rest in _compositions(n - 1, total - c, least, zeros):
                yield (c,) + rest


def enumerate_indices(
    n: int,
    total: int,
    *,
    support: Iterable[int] | None = None,
    support_size: int | None = None,
    no_singletons: bool = False,
) -> Iterator[MultiIndex]:
    """All n-dimensional multi-indices with |alpha| = total, streamed.

    Optional constraints: ``support`` fixes s(alpha) exactly (1-based
    positions, each receiving a nonzero entry); ``support_size`` fixes
    |s(alpha)|; ``no_singletons`` forces every nonzero entry >= 2.
    Unsatisfiable constraints yield an empty stream.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if total < 0:
        raise ValueError("total must be non-negative")
    min_nz = 2 if no_singletons else 1
    if support is not None:
        positions = sorted(set(support))
        if any(not 1 <= k <= n for k in positions):
            raise ValueError("support positions must lie in 1..n")
        if support_size is not None and support_size != len(positions):
            return
        for parts in _compositions(len(positions), total, min_nz, zeros=False):
            entries = [0] * n
            for k, p in zip(positions, parts):
                entries[k - 1] = p
            yield MultiIndex(tuple(entries))
        return
    for parts in _compositions(n, total, min_nz, zeros=True):
        if support_size is not None and sum(1 for p in parts if p) != support_size:
            continue
        yield MultiIndex(parts)


def count_compositions(total: int, parts: int, least: int = 1) -> int:
    """Number of ordered ways to write total as `parts` parts, each at
    least `least`, by the recurrence c_j(t) = sum_{s <= t - least} c_{j-1}(s)
    with running sums: O(parts * total), no enumeration."""
    if parts < 0 or total < 0 or least < 0:
        raise ValueError("total, parts and least must be non-negative")
    ways = [1] + [0] * total  # no parts: only the empty sum, 0
    for _ in range(parts):
        new, run = [0] * (total + 1), 0
        for t in range(least, total + 1):
            run += ways[t - least]
            new[t] = run
        ways = new
    return ways[total]


def count_support_compositions(r: int, i: int) -> int:
    """Number of multi-indices with |alpha| = r and a fixed support of size i.

    Balls-in-urns: r indistinguishable balls in i urns, none empty, giving
    C(r-1, r-i).
    """
    if not 1 <= i <= r:
        raise ValueError("need 1 <= i <= r")
    return math.comb(r - 1, r - i)


def count_no_singleton_compositions(r: int, i: int) -> int:
    """Number of multi-indices with |alpha| = 2r, fixed support of size i,
    and every nonzero entry >= 2: C(2r - i - 1, 2(r - i))."""
    if not 1 <= i <= r:
        raise ValueError("need 1 <= i <= r")
    return math.comb(2 * r - i - 1, 2 * (r - i))


def multinomial(total: int, parts: Sequence[int] | MultiIndex) -> int:
    """total! / parts! as an exact integer; requires |parts| = total."""
    entries = tuple(parts)
    if sum(entries) != total:
        raise ValueError(f"parts sum to {sum(entries)}, expected {total}")
    out = math.factorial(total)
    for e in entries:
        out //= math.factorial(e)
    return out


def elementary_symmetric(values: Sequence[float], r: int) -> float:
    """e_r(values): sum over r-subsets of products of the chosen values.

    Computed by the stable column recurrence e_j += v * e_{j-1} in O(n r);
    never by subset enumeration.
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    n = len(values)
    if r > n:
        warnings.warn(
            f"elementary_symmetric with r={r} > n={n}: empty sum, returning 0",
            stacklevel=2,
        )
        return 0.0
    e = [0.0] * (r + 1)
    e[0] = 1.0
    for v in values:
        for j in range(r, 0, -1):
            e[j] += v * e[j - 1]
    return e[r]

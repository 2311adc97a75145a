"""Collections of flats: partition cost, minimizing-partition census, the
non-concentration (NC) predicate, minimality and minimal-subfamily search.

The cost of a collection is the minimum over set partitions of the index set
of the summed dimensions of the blockwise joins.  One least-partition search
over index bit masks computes it, with its census, from a per-block cost:
(3^m - 1) / 2 (subset, block) steps for m flats, under a cap on m.  Block
joins are memoized per index subset, each built on its cached prefix, so the
search joins each subset once, and minimality reads the same joins.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterator, Sequence

from .exactlin import BudgetExceeded
from .flats import AffineFlat, join

Partition = tuple[tuple[int, ...], ...]

PARTITION_CAP = 12  # most flats a least-partition search takes


class PartitionSpaceTooLarge(BudgetExceeded):
    pass


class NotNonConcentrated(ValueError):
    pass


def normalize_partition(blocks: Sequence[Sequence[int]], m: int) -> Partition:
    """Canonical form (sorted blocks of sorted indices); validates that the
    blocks are disjoint, nonempty and cover range(m)."""
    norm = tuple(sorted(tuple(sorted(b)) for b in blocks))
    seen: set[int] = set()
    for b in norm:
        if not b:
            raise ValueError("empty partition block")
        for i in b:
            if i in seen:
                raise ValueError(f"index {i} appears in two blocks")
            seen.add(i)
    if seen != set(range(m)):
        raise ValueError("blocks do not cover the index set")
    return norm


def bell_number(m: int) -> int:
    row = [1]
    for _ in range(m):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


class FlatCollection:
    """Indexed family of flats with a partition-cost cache."""

    def __init__(self, flats: Sequence[AffineFlat]):
        flats = list(flats)
        if flats:
            n = flats[0].ambient_dim
            if any(f.ambient_dim != n for f in flats):
                raise ValueError("ambient dimensions differ")
            self.ambient_dim = n
        else:
            self.ambient_dim = None
        self.flats = flats
        self._subset_joins: dict[frozenset[int], AffineFlat] = {}

    def subset_join(self, idx: Sequence[int]) -> AffineFlat:
        """The join of the flats at the indices, built once per index subset
        as the join of the subset less its largest index and that flat: the
        search asks for subsets in mask order, so that prefix is cached."""
        key = frozenset(idx)
        if not key:
            raise ValueError("empty index subset")
        got = self._subset_joins.get(key)
        if got is None:
            top = max(key)
            rest = key - {top}
            fs = [self.subset_join(rest), self.flats[top]] if rest else [self.flats[top]]
            got = self._subset_joins[key] = join(fs)
        return got

    def subset_join_dim(self, idx: Sequence[int]) -> int:
        return self.subset_join(idx).dim

    def check_cap(self) -> None:
        """Refuse, before any search, a collection over PARTITION_CAP flats;
        the message counts the Bell(m) partitions the search stands for."""
        m = len(self.flats)
        if m > PARTITION_CAP:
            raise PartitionSpaceTooLarge(
                f"{m} flats means Bell({m}) = {bell_number(m)} partitions; cap is {PARTITION_CAP}"
            )

    def _least_partitions(self, block_cost: Callable[[tuple[int, ...]], int]) -> tuple:
        """The least-partition search of the index set under a per-block
        cost, after the cap check.  Over index bit masks S, least(S) is the
        minimum over the blocks B of S that hold min S of block_cost(B) +
        least(S - B), and count(S) sums count(S - B) over the B that reach
        it: (3^m - 1) / 2 (S, B) steps, and one block_cost per nonempty index
        subset.  Returns least and count per mask and a function whose
        iterator walks back only the minimizing blocks of a mask (the index
        set by default), least block first, so it yields that mask's
        minimizing partitions in lexicographic order."""
        self.check_cap()
        m = len(self.flats)
        full = (1 << m) - 1
        blocks: list[tuple[int, ...]] = [()]  # the indices of each mask
        for i in range(m):
            blocks += [b + (i,) for b in blocks]
        cost = [0] + [block_cost(b) for b in blocks[1:]]
        least, count, ties = [0] * (full + 1), [1] * (full + 1), [()] * (full + 1)
        for s in range(1, full + 1):
            low = s & -s
            rest = sub = s ^ low
            sums = [(cost[low] + least[rest], low)]
            while sub:
                sums.append((cost[sub | low] + least[rest ^ sub], sub | low))
                sub = (sub - 1) & rest
            least[s] = best = min(sums)[0]
            ties[s] = [b for c, b in sums if c == best]
            count[s] = sum([count[s ^ b] for b in ties[s]])

        def minimizers(s: int = full) -> Iterator[Partition]:
            if not s:
                yield ()
            for b in sorted(ties[s], key=blocks.__getitem__):
                for tail in minimizers(s ^ b):
                    yield (blocks[b],) + tail

        return least, count, minimizers

    @functools.cached_property
    def _search(self) -> tuple:
        """(least, count, minimizers) of the search with block cost dim join(B)."""
        return self._least_partitions(self.subset_join_dim)

    def cost(self) -> int:
        return self._search[0][-1]

    def minimizing_census(self) -> tuple[int, list[Partition]]:
        """N(V) >= 1 and the minimizing partitions themselves, sorted."""
        _, count, minimizers = self._search
        return count[-1], list(minimizers())

    def lexicographically_least_minimizer(self) -> Partition:
        return next(self._search[2]())

    def is_nc(self) -> bool:
        """Non-concentration: no flat family with dimension sum <= n-1 covers
        the collection, which by the covering-induces-partition argument is
        equivalent to cost >= n."""
        if self.ambient_dim is None:
            raise ValueError("empty collection has no ambient dimension")
        return self.cost() >= self.ambient_dim

    def is_minimal(self) -> bool:
        """Minimal collection: the flats join to the ambient space and are
        minimal inside that span (the full join is checked first)."""
        if not self.flats:
            raise ValueError("empty collection")
        every = tuple(range(len(self.flats)))
        return self.subset_join(every).dim == self.ambient_dim and self._minimal_in_span(every)

    def _minimal_in_span(self, idx: tuple[int, ...]) -> bool:
        """The flats at the indices are minimal inside their own join: it has
        dimension at most their dimension sum, while every proper nonempty
        subfamily joins to at least its own dimension sum."""
        return self.subset_join(idx).dim <= sum(self.flats[i].dim for i in idx) and all(
            self.subset_join(sub).dim >= sum(self.flats[i].dim for i in sub)
            for size in range(1, len(idx))
            for sub in itertools.combinations(idx, size)
        )


def find_minimal_subfamily(
    parts: Sequence[Sequence[int]], v: FlatCollection
) -> tuple[int, ...]:
    """Given a partition of the collection's index set into blocks, return a
    set I of block indices (|I| >= 2, or all of them) whose joined flats form
    a minimal collection inside their own span.

    Searching by subset size finds small mergeable subfamilies first.  When a
    proper subfamily strictly violates the dimension-sum inequality, its
    inclusion-minimal violator is minimal inside its span and is found here;
    when no proper subfamily qualifies, the whole family is minimal inside
    its span because the collection is NC.
    """
    if not v.is_nc():
        raise NotNonConcentrated("collection not NC")
    blocks = normalize_partition(parts, len(v.flats))
    joined = FlatCollection([v.subset_join(b) for b in blocks])
    joined._subset_joins.update((frozenset({i}), f) for i, f in enumerate(joined.flats))  # canonical joins already
    t = len(blocks)
    for size in range(2, t):
        for combo in itertools.combinations(range(t), size):
            if joined._minimal_in_span(combo):
                return combo
    return tuple(range(t))

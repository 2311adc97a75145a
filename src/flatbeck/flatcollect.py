"""Collections of flats: partition cost, minimizing-partition census, the
non-concentration (NC) predicate and minimal-subfamily search.

The cost of a collection is the minimum over set partitions of the index set
of the summed dimensions of the blockwise joins.  Enumeration is exact and
capped (Bell numbers grow fast); block joins are memoized per index subset,
so the partition sweep joins each subset once and then adds cached
dimensions.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence

from .exactlin import BudgetExceeded
from .flats import AffineFlat, join

Partition = tuple[tuple[int, ...], ...]

DEFAULT_PARTITION_CAP = 12


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


def iter_partitions(m: int) -> Iterator[Partition]:
    """All set partitions of range(m), canonically ordered blocks."""
    if m == 0:
        yield ()
        return
    blocks: list[list[int]] = []

    def rec(i: int) -> Iterator[Partition]:
        if i == m:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1)
        blocks.pop()

    yield from rec(0)


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

    def __init__(self, flats: Sequence[AffineFlat], cap: int = DEFAULT_PARTITION_CAP):
        flats = list(flats)
        if flats:
            n = flats[0].ambient_dim
            if any(f.ambient_dim != n for f in flats):
                raise ValueError("ambient dimensions differ")
            self.ambient_dim = n
        else:
            self.ambient_dim = None
        self.flats = flats
        self.cap = cap
        self._subset_joins: dict[frozenset[int], AffineFlat] = {}
        self._cost: Optional[int] = None
        self._minimizers: Optional[list[Partition]] = None

    def __len__(self) -> int:
        return len(self.flats)

    def extended(self, flat: AffineFlat) -> "FlatCollection":
        return FlatCollection(self.flats + [flat], cap=self.cap)

    def subset_join(self, idx: Sequence[int]) -> AffineFlat:
        """The join of the flats at the indices, built once per index subset."""
        key = frozenset(idx)
        if not key:
            raise ValueError("empty index subset")
        got = self._subset_joins.get(key)
        if got is None:
            got = self._subset_joins[key] = join([self.flats[i] for i in key])
        return got

    def subset_join_dim(self, idx: Sequence[int]) -> int:
        return self.subset_join(idx).dim

    def cost_of_partition(self, p: Sequence[Sequence[int]]) -> int:
        norm = normalize_partition(p, len(self.flats))
        return sum(self.subset_join_dim(b) for b in norm)

    def check_cap(self) -> None:
        """Refuse, before any walk, a partition space over the cap."""
        m = len(self.flats)
        if m > self.cap:
            raise PartitionSpaceTooLarge(
                f"{m} flats means Bell({m}) = {bell_number(m)} partitions; cap is {self.cap}"
            )

    def _compute(self) -> None:
        if self._cost is not None:
            return
        self.check_cap()
        m = len(self.flats)
        best: Optional[int] = None
        minimizers: list[Partition] = []
        for p in iter_partitions(m):
            c = sum(self.subset_join_dim(b) for b in p)
            if best is None or c < best:
                best = c
                minimizers = [p]
            elif c == best:
                minimizers.append(p)
        if best is None:  # empty collection
            best = 0
            minimizers = [()]
        self._cost = best
        self._minimizers = sorted(minimizers)

    def cost(self) -> int:
        self._compute()
        assert self._cost is not None
        return self._cost

    def minimizing_census(self) -> tuple[int, list[Partition]]:
        """N(V) >= 1 and the minimizing partitions themselves."""
        self._compute()
        assert self._minimizers is not None
        return len(self._minimizers), list(self._minimizers)

    def lexicographically_least_minimizer(self) -> Partition:
        self._compute()
        assert self._minimizers is not None
        return self._minimizers[0]

    def is_nc(self) -> bool:
        """Non-concentration: no flat family with dimension sum <= n-1 covers
        the collection, which by the covering-induces-partition argument is
        equivalent to cost >= n."""
        if self.ambient_dim is None:
            raise ValueError("empty collection has no ambient dimension")
        return self.cost() >= self.ambient_dim


def is_minimal(fs: Sequence[AffineFlat], ambient_dim: Optional[int] = None) -> bool:
    """Minimal collection: the joint span has dimension ambient_dim and
    dimension sum at least ambient_dim, while every proper nonempty
    subfamily joins to at least its dimension sum."""
    if not fs:
        raise ValueError("empty collection")
    k = len(fs)
    n = fs[0].ambient_dim if ambient_dim is None else ambient_dim
    total = join(list(fs))
    if total.dim != n or n > sum(f.dim for f in fs):
        return False
    for size in range(1, k):
        for combo in itertools.combinations(range(k), size):
            sub = [fs[i] for i in combo]
            if join(sub).dim < sum(f.dim for f in sub):
                return False
    return True


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
    joined = [join([v.flats[i] for i in b]) for b in blocks]
    t = len(joined)
    for size in range(2, t):
        for combo in itertools.combinations(range(t), size):
            sub = [joined[i] for i in combo]
            if is_minimal(sub, ambient_dim=join(sub).dim):
                return combo
    return tuple(range(t))

"""Exhaustive enumeration of homogeneous d-partitions of K_{2d}.

The set is grown one edge at a time, in lexicographic edge order, as a
numpy array of all admissible prefixes.  Each prefix is extended by the
colors 0..d-1 in that order and the survivors keep their order, so the
final rows are strictly increasing in canonical code and need no sort.
A color is admissible while it has used fewer than 2d - 1 edges; in
cycle-free mode its edge bitmask plus the new edge must also be acyclic,
which is read off the precomputed subset table, so cyclic prefixes are
pruned as soon as they appear.

The counts grow fast: d = 3 has multinomial(15; 5,5,5) = 756756
homogeneous partitions, while d = 4 already has about 4.7 * 10^14, so
enumeration refuses d > 3.  count_homogeneous gives the homogeneous
count without building a row: a dynamic program over the per-color
edge counts (budget vectors), coloring one edge at a time.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .model import EdgePartition, acyclic_mask_table, edge_count

MAX_EXHAUSTIVE_D = 3


class PartitionSet:
    """Immutable, code-sorted set of homogeneous d-partitions of K_{2d}.

    Stores one byte per edge per member; membership and rank queries go
    through binary search on the canonical codes.
    """

    def __init__(self, d: int, n: int, colors: np.ndarray, cycle_free: bool):
        self.d = d
        self.n = n
        self.cycle_free = cycle_free
        self.colors = np.ascontiguousarray(colors, dtype=np.uint8)
        self.colors.setflags(write=False)
        E = edge_count(n)
        if self.colors.ndim != 2 or self.colors.shape[1] != E:
            raise ValueError(f"expected an (N, {E}) color array")
        if d ** E >= 2 ** 63:
            raise ValueError(f"canonical codes for d={d}, n={n} exceed 64-bit range")
        self.weights = (d ** np.arange(E - 1, -1, -1)).astype(np.int64)
        # Horner's rule, one column at a time: no (N, E) int64 temporary
        self.codes = np.zeros(len(self.colors), dtype=np.int64)
        for k in range(E):
            self.codes *= d
            self.codes += self.colors[:, k]
        if np.any(np.diff(self.codes) <= 0):
            raise ValueError("member sequence is not strictly code-sorted")
        self.codes.setflags(write=False)

    def __len__(self) -> int:
        return self.colors.shape[0]

    def partition(self, i: int) -> EdgePartition:
        return EdgePartition(self.d, self.n, tuple(int(c) for c in self.colors[i]))

    def __iter__(self) -> Iterator[EdgePartition]:
        return (self.partition(i) for i in range(len(self)))

    def code_of(self, partition: EdgePartition) -> int:
        if (partition.d, partition.n) != (self.d, self.n):
            raise ValueError(
                f"partition has (d, n) = ({partition.d}, {partition.n}), "
                f"set has ({self.d}, {self.n})"
            )
        return partition.canonical_code()

    def index_of(self, partition: EdgePartition) -> int:
        """Rank of a member; KeyError if the partition is not in the set."""
        code = self.code_of(partition)
        pos = int(np.searchsorted(self.codes, code))
        if pos == len(self) or int(self.codes[pos]) != code:
            raise KeyError(f"partition with code {code} not in set")
        return pos

    def contains(self, partition: EdgePartition) -> bool:
        try:
            self.index_of(partition)
            return True
        except KeyError:
            return False

    def __contains__(self, partition: EdgePartition) -> bool:
        return self.contains(partition)


def count_homogeneous(d: int) -> int:
    """Number of homogeneous d-partitions of K_{2d}, without enumerating.

    After k edges each state is a vector of per-color edge counts, each
    at most the budget 2d - 1, mapped to the number of colorings of the
    first k edges that reach it (exact Python ints; at most (2d)^d
    states, 216 at d = 3).  Every full coloring ends in the all-budget
    state, so its count is multinomial(d(2d-1); 2d-1, ..., 2d-1).
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    budget = 2 * d - 1
    states = {(0,) * d: 1}
    for _ in range(edge_count(2 * d)):
        grown: dict[tuple, int] = {}
        for used, ways in states.items():
            for c in range(d):
                if used[c] < budget:
                    key = used[:c] + (used[c] + 1,) + used[c + 1:]
                    grown[key] = grown.get(key, 0) + ways
        states = grown
    return states[(budget,) * d]


def enumerate_partitions(d: int, cycle_free: bool = False) -> PartitionSet:
    """Build the set of homogeneous d-partitions of K_{2d}.

    With cycle_free=True only partitions whose classes are all forests
    (hence spanning trees) are kept.  Refuses d > 3, because the search
    space is infeasible at desk scale.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if d > MAX_EXHAUSTIVE_D:
        raise ValueError(
            f"exhaustive enumeration for d={d} is infeasible: the homogeneous "
            f"count is multinomial({edge_count(2 * d)}; {2 * d - 1}, ...), about "
            f"5*10^14 already at d=4"
        )
    n = 2 * d
    E = edge_count(n)
    budget = 2 * d - 1
    acyc = acyclic_mask_table(n) if cycle_free else None
    colors = np.zeros((1, E), dtype=np.uint8)
    counts = np.zeros((1, d), dtype=np.uint8)  # edges per color so far
    masks = np.zeros((1, d), dtype=np.int64)  # edge bitmask per color so far
    for k in range(E):
        ok = counts < budget
        if cycle_free:
            ok &= acyc[masks | (1 << k)]
        # row-major order: prefix first, then color, so rows stay code-sorted
        rows, new = np.nonzero(ok)
        colors = colors[rows]
        colors[:, k] = new
        at = (np.arange(len(rows)), new)
        counts = counts[rows]
        counts[at] += 1
        if cycle_free:
            masks = masks[rows]
            masks[at] |= 1 << k
    return PartitionSet(d, n, colors, cycle_free)

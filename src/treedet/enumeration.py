"""Exhaustive enumeration of homogeneous d-partitions of K_{2d}.

The set is built from its color classes.  A class is an edge bitmask of
K_{2d} with 2d - 1 edges (edge k is bit k): all 3003 such masks at
d = 3, or in cycle-free mode the 1296 spanning trees of K_6 that
trees.tree_table lists.  Classes 1..d-1 are chosen pairwise disjoint,
one broadcast AND against every class per color (in chunks of rows, so
the 3003 x 3003 pair step stays small), and a row is kept when the
remaining edges, color 0, form a class as well.
The canonical code of a row is the sum over its classes of the color
times the class's base-d digit weight, so the codes are sorted once and
the colors read back from them.

The counts grow fast: d = 3 has multinomial(15; 5,5,5) = 756756
homogeneous partitions, while d = 4 already has about 4.7 * 10^14, so
enumeration refuses d > 3.  count_homogeneous gives the homogeneous
count, that multinomial, without building a row.
"""

from __future__ import annotations

from math import factorial
from typing import Iterator

import numpy as np

from . import trees
from .model import EdgePartition, edge_count

MAX_EXHAUSTIVE_D = 3
_PAIR_CHUNK = 1 << 18  # class pairs tested per broadcast
_DIGIT_TABLE_ROWS = 1 << 13


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
    """Number of homogeneous d-partitions of K_{2d}, without enumerating:
    the multinomial(d(2d-1); 2d-1, ..., 2d-1) ways to split the edges
    into d color classes of 2d - 1 edges each."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    return factorial(edge_count(2 * d)) // factorial(2 * d - 1) ** d


def _class_masks(n: int, cycle_free: bool) -> np.ndarray:
    """Boolean table over all edge bitmasks of K_n (edge k is bit k): True
    for the masks of n - 1 edges, in cycle-free mode only the spanning
    trees, read off trees.signs_by_mask(n)."""
    if cycle_free:
        return trees.signs_by_mask(n) != 0
    masks = np.arange(1 << edge_count(n), dtype=np.int64)
    ones = np.zeros(len(masks), dtype=np.int64)
    for k in range(edge_count(n)):
        ones += (masks >> k) & 1
    return ones == n - 1


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
    return PartitionSet(d, n, _digits(_member_codes(d, cycle_free), d, E), cycle_free)


def _member_codes(d: int, cycle_free: bool) -> np.ndarray:
    """Sorted canonical codes of the members, built from their classes."""
    n = 2 * d
    E = edge_count(n)
    is_class = _class_masks(n, cycle_free)
    classes = np.flatnonzero(is_class)
    # as color c, classes[i] adds c * digit[i] to the code
    bits = (classes[:, None] >> np.arange(E)) & 1
    digit = bits @ (d ** np.arange(E - 1, -1, -1, dtype=np.int64))
    # one row per choice of disjoint classes 1..c: the union of their edges and their code
    used = np.zeros(1, dtype=np.int64)
    codes = np.zeros(1, dtype=np.int64)
    step = max(1, _PAIR_CHUNK // len(classes))
    for c in range(1, d):
        grown_used, grown_codes = [], []
        for lo in range(0, len(used), step):
            block = used[lo:lo + step, None]
            rows, new = np.nonzero((block & classes) == 0)
            grown_used.append(block[rows, 0] | classes[new])
            grown_codes.append(codes[lo + rows] + c * digit[new])
        used, codes = np.concatenate(grown_used), np.concatenate(grown_codes)
    codes = codes[is_class[((1 << E) - 1) ^ used]]  # color 0 takes the remaining edges
    codes.sort()
    return codes


def _digits(codes: np.ndarray, d: int, E: int) -> np.ndarray:
    """The (N, E) base-d digits of the codes, most significant first.

    The digits are read g at a time from a table of all d^g digit strings
    (g = 8 at d = 3), so the codes take two divisions, not E.
    """
    g = 1
    while g < E and d ** (g + 1) <= _DIGIT_TABLE_ROWS:
        g += 1
    table = (np.arange(d ** g)[:, None] // d ** np.arange(g - 1, -1, -1) % d).astype(np.uint8)
    colors = np.empty((len(codes), E), dtype=np.uint8)
    for hi in range(E, 0, -g):
        width = min(g, hi)
        codes, low = np.divmod(codes, d ** width)
        colors[:, hi - width:hi] = np.take(table, low, axis=0)[:, g - width:]
    return colors


def member_positions(members: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """np.minimum(np.searchsorted(members, queries), len(members) - 1):
    for each query the position of its code among the ascending member
    codes, if it is one, and a position whose code differs otherwise.
    The queries are searched in ascending order, since numpy starts the
    binary search of an ascending query where the previous one ended,
    and the positions are scattered back to the queries' order."""
    flat = queries.reshape(-1)
    order = np.argsort(flat)
    out = np.empty(flat.shape, dtype=np.intp)
    out[order] = np.searchsorted(members, flat[order])
    np.minimum(out, len(members) - 1, out=out)
    return out.reshape(queries.shape)

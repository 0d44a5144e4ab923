"""Reference orbit data for the labeled partition sets.

For d = 3 the 66240 homogeneous cycle-free 3-partitions of K_6 fall
into 19 orbits under simultaneous vertex relabeling (S_6) and color
relabeling (S_3).  This module carries one labeled representative per
orbit, together with the expected orbit size, stabilizer order, and the
tree-shape triple of its classes.  The paper orients the signature
so that every representative is +1; the certificates check that the
tree-determinant signature does (references_positive).

The d = 2 set (12 partitions of K_4, a single orbit) has the base
partition below, the generator partition, whose stabilizer under
S_4 x S_2 has order 4.

The edge lists are input data for cross-checks, not derived facts: the
orbit decomposition, sizes, stabilizers, and shape triples are all
recomputed and compared against this table, by symmetry.match_catalog.
"""

from __future__ import annotations

from .model import EdgePartition

# fmt: off
REFERENCE_EDGE_LISTS: dict[int, tuple[frozenset, ...]] = {
    1: (frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)}),
        frozenset({(1, 5), (1, 6), (2, 4), (2, 5), (3, 6)}),
        frozenset({(1, 3), (1, 4), (2, 6), (3, 5), (4, 6)})),
    2: (frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)}),
        frozenset({(1, 4), (1, 6), (2, 4), (3, 5), (3, 6)}),
        frozenset({(1, 3), (1, 5), (2, 5), (2, 6), (4, 6)})),
    3: (frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)}),
        frozenset({(1, 3), (1, 6), (2, 4), (3, 5), (4, 6)}),
        frozenset({(1, 4), (1, 5), (2, 5), (2, 6), (3, 6)})),
    4: (frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)}),
        frozenset({(1, 3), (2, 5), (2, 6), (3, 5), (4, 6)}),
        frozenset({(1, 4), (1, 5), (1, 6), (2, 4), (3, 6)})),
    5: (frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)}),
        frozenset({(1, 3), (2, 4), (2, 5), (3, 6), (4, 6)}),
        frozenset({(1, 4), (1, 5), (1, 6), (2, 6), (3, 5)})),
    6: (frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)}),
        frozenset({(1, 4), (2, 6), (3, 5), (3, 6), (4, 6)}),
        frozenset({(1, 3), (1, 5), (1, 6), (2, 4), (2, 5)})),
    7: (frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)}),
        frozenset({(1, 5), (2, 5), (2, 6), (3, 6), (4, 6)}),
        frozenset({(1, 3), (1, 4), (1, 6), (2, 4), (3, 5)})),
    8: (frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)}),
        frozenset({(1, 6), (2, 4), (2, 5), (3, 5), (4, 6)}),
        frozenset({(1, 3), (1, 4), (1, 5), (2, 6), (3, 6)})),
    9: (frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)}),
        frozenset({(1, 5), (2, 4), (3, 5), (3, 6), (4, 6)}),
        frozenset({(1, 3), (1, 4), (1, 6), (2, 5), (2, 6)})),
    10: (frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)}),
         frozenset({(1, 4), (2, 4), (2, 5), (3, 5), (3, 6)}),
         frozenset({(1, 3), (1, 5), (1, 6), (2, 6), (4, 6)})),
    11: (frozenset({(1, 2), (2, 3), (3, 4), (3, 6), (4, 5)}),
         frozenset({(1, 4), (1, 6), (2, 6), (3, 5), (5, 6)}),
         frozenset({(1, 3), (1, 5), (2, 4), (2, 5), (4, 6)})),
    12: (frozenset({(1, 2), (2, 3), (3, 4), (3, 6), (4, 5)}),
         frozenset({(1, 4), (1, 5), (2, 5), (2, 6), (3, 5)}),
         frozenset({(1, 3), (1, 6), (2, 4), (4, 6), (5, 6)})),
    13: (frozenset({(1, 2), (2, 3), (3, 4), (3, 6), (4, 5)}),
         frozenset({(1, 6), (2, 4), (3, 5), (4, 6), (5, 6)}),
         frozenset({(1, 3), (1, 4), (1, 5), (2, 5), (2, 6)})),
    14: (frozenset({(1, 2), (2, 3), (3, 4), (3, 6), (4, 5)}),
         frozenset({(1, 6), (2, 4), (2, 5), (3, 5), (5, 6)}),
         frozenset({(1, 3), (1, 4), (1, 5), (2, 6), (4, 6)})),
    15: (frozenset({(1, 2), (2, 3), (3, 4), (3, 6), (4, 5)}),
         frozenset({(1, 5), (2, 4), (2, 5), (3, 5), (4, 6)}),
         frozenset({(1, 3), (1, 4), (1, 6), (2, 6), (5, 6)})),
    16: (frozenset({(1, 2), (2, 3), (3, 4), (3, 6), (4, 5)}),
         frozenset({(1, 5), (2, 6), (3, 5), (4, 6), (5, 6)}),
         frozenset({(1, 3), (1, 4), (1, 6), (2, 4), (2, 5)})),
    17: (frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (4, 6)}),
         frozenset({(1, 4), (1, 6), (2, 5), (3, 5), (5, 6)}),
         frozenset({(1, 3), (1, 5), (2, 4), (2, 6), (3, 6)})),
    18: (frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (4, 6)}),
         frozenset({(1, 3), (1, 4), (1, 6), (2, 5), (3, 5)}),
         frozenset({(1, 5), (2, 4), (2, 6), (3, 6), (5, 6)})),
    19: (frozenset({(1, 2), (1, 4), (1, 6), (2, 3), (2, 5)}),
         frozenset({(1, 3), (2, 4), (3, 4), (3, 6), (4, 5)}),
         frozenset({(1, 5), (2, 6), (3, 5), (4, 6), (5, 6)})),
}

EXPECTED_ORBIT_SIZES: dict[int, int] = {
    1: 4320, 2: 720, 3: 720, 4: 4320, 5: 4320, 6: 4320, 7: 4320,
    8: 4320, 9: 4320, 10: 2160, 11: 4320, 12: 1440, 13: 4320, 14: 4320,
    15: 4320, 16: 4320, 17: 4320, 18: 4320, 19: 720,
}

EXPECTED_STABILIZER_ORDERS: dict[int, int] = {
    1: 1, 2: 6, 3: 6, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1, 9: 1, 10: 2,
    11: 1, 12: 3, 13: 1, 14: 1, 15: 1, 16: 1, 17: 1, 18: 1, 19: 6,
}

EXPECTED_TYPE_TRIPLES: dict[int, tuple[str, str, str]] = {
    1: ("I6", "I6", "I6"), 2: ("I6", "I6", "I6"), 3: ("I6", "I6", "I6"),
    4: ("I6", "I6", "E6"), 5: ("I6", "I6", "E6"), 6: ("I6", "E6", "Y6"),
    7: ("I6", "Y6", "E6"), 8: ("I6", "I6", "Y6"), 9: ("I6", "I6", "Y6"),
    10: ("I6", "I6", "H6"), 11: ("E6", "E6", "I6"), 12: ("E6", "E6", "E6"),
    13: ("E6", "E6", "Y6"), 14: ("E6", "E6", "Y6"), 15: ("E6", "Y6", "H6"),
    16: ("E6", "H6", "Y6"), 17: ("Y6", "Y6", "I6"), 18: ("Y6", "Y6", "E6"),
    19: ("H6", "H6", "H6"),
}
# fmt: on

CATALOG_IDS = tuple(range(1, 20))


def reference_partition(i: int) -> EdgePartition:
    """The i-th labeled orbit representative for d = 3 (1 <= i <= 19)."""
    return EdgePartition.from_classes(3, 6, REFERENCE_EDGE_LISTS[i])


def reference_partitions() -> tuple[EdgePartition, ...]:
    return tuple(reference_partition(i) for i in CATALOG_IDS)


# d = 2 base partition: classes {12, 14, 23} and {13, 24, 34} of K_4.
BASE_PARTITION_D2 = EdgePartition.from_classes(
    2, 4, (frozenset({(1, 2), (1, 4), (2, 3)}), frozenset({(1, 3), (2, 4), (3, 4)}))
)

# Stabilizer of the d = 2 base partition inside S_4 x S_2, as (sigma, tau) image
# tuples: the identity, the double transposition (1,2)(3,4) with trivial
# color part, and the two 4-cycles (1,4,2,3) and (1,3,2,4) paired with
# the color swap.
BASE_PARTITION_D2_STABILIZER = (
    ((1, 2, 3, 4), (1, 2)),
    ((2, 1, 4, 3), (1, 2)),
    ((4, 3, 1, 2), (2, 1)),
    ((3, 4, 2, 1), (2, 1)),
)

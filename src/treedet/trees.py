"""Spanning trees of K_n and the signs of their incidence determinants.

A homogeneous cycle-free d-partition P of K_{2d} is an ordered tuple of
d spanning trees T_0, ..., T_{d-1}, one per color, and its signature is
the sign of one determinant.  M_P is the E x E matrix with a row per
(color c, vertex v), v = 2..2d (vertex 1 is dropped), whose column for
the edge e = (a, b), a < b, of color c holds +1 at (c, a) and -1 at
(c, b).  Sorting the columns by color, in edge order within a color,
makes it block diagonal, so

    det M_P = (-1)^inv(P) * prod_c det B(T_c),

where inv(P) counts the edge pairs e < e' with c(e) > c(e') and B(T) is
the reduced incidence matrix of T: vertex 1's row dropped, the columns
in edge order.  Rooted at vertex 1, every other vertex v of a tree owns
the edge to its parent, and this matching is the only nonzero term of
det B(T) (a leaf has one edge; remove it and repeat), so det B(T) is
+1 or -1: the sign of the matching as a permutation of the columns,
times -1 for each v whose parent is smaller, since the edge's -1 sits
at its larger end.  The signature is D(unit) * det M_P with
D(unit) = det M_unit (README, "The signature is a determinant").

tree_table(n) lists the n^(n-2) spanning trees of K_n (Cayley), each as
an int64 edge mask (edge k is bit k) with its sign det B(T), decoded
from all Pruefer sequences at once, in integers only; signs_by_mask(n)
spreads it over all edge subsets, which is the enumeration's class
filter.  tree_signs computes (-1)^inv(P) * prod_c det B(T_c) for every
member of a partition set from its class masks, each one float32
product (exact, as E <= 21), and the parity of inv(P) by prefix-XOR;
member_sign computes it for one partition of any size, so a single sign
needs no enumeration.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .model import edge_count, edge_list

MAX_TREE_N = 8  # K_8 has 262 144 spanning trees; K_9 would have 4.8 million
_SIGN_BLOCK = 4096  # members signed at a time


class TreeTable(NamedTuple):
    masks: np.ndarray  # (n^(n-2),) int64 edge masks, ascending
    signs: np.ndarray  # (n^(n-2),) int8 det B(T), +1 or -1


@lru_cache(maxsize=None)
def tree_table(n: int) -> TreeTable:
    """The spanning trees of K_n, sorted by edge mask, with det B(T).

    Pruefer decoding runs over the labels x = n - v, so the label that
    survives every step, n - 1, is vertex 1, and each removed leaf's
    neighbour is its parent in the tree rooted at vertex 1.
    """
    if not 2 <= n <= MAX_TREE_N:
        raise ValueError(f"tree table needs 2 <= n <= {MAX_TREE_N}, got {n}")
    count = n ** (n - 2)
    rows = np.arange(count)
    sequences = [(rows // n ** (n - 3 - i) % n).astype(np.int8) for i in range(n - 2)]
    degree = np.ones((count, n), dtype=np.int8)
    for seq in sequences:
        degree[rows, seq] += 1
    parent = np.empty((count, n), dtype=np.int8)  # by label; the root's is unused
    for seq in sequences:
        leaf = np.argmax(degree == 1, axis=1)  # the smallest leaf
        parent[rows, leaf] = seq
        degree[rows, leaf] = 0
        degree[rows, seq] -= 1
    parent[rows, np.argmax(degree == 1, axis=1)] = n - 1  # the last edge ends at the root
    masks = np.zeros(count, dtype=np.int64)
    minus = np.zeros(count, dtype=np.int8)  # -1 entries of the matching, then its inversions
    owned = []  # the edge index that each vertex 2..n owns
    for v in range(2, n + 1):
        p = (n - parent[:, n - v]).astype(np.int64)
        lo, hi = np.minimum(p, v), np.maximum(p, v)
        k = (lo - 1) * n - lo * (lo + 1) // 2 + hi - 1  # model.edge_index
        masks |= np.int64(1) << k
        minus += p < v
        owned.append(k)
    for a, b in combinations(range(n - 1), 2):
        minus += owned[a] > owned[b]
    order = np.argsort(masks)
    signs = (1 - 2 * (minus & 1)).astype(np.int8)[order]
    masks = masks[order]
    masks.setflags(write=False)
    signs.setflags(write=False)
    return TreeTable(masks, signs)


def member_sign(partition) -> int:
    """(-1)^inv(P) * prod_c det B(T_c) of one partition, for any n, with
    no tree table: each class is rooted at vertex 1 and signed by its
    parent-edge matching.  Raises ValueError when a class is not a
    spanning tree.  d spanning trees of K_n take d(n - 1) edges, all of
    them only when n = 2d, so that is the membership test of the
    homogeneous cycle-free partitions."""
    n, colors = partition.n, partition.colors
    minus = sum(a > b for a, b in combinations(colors, 2))  # inv(P)
    for c in range(partition.d):
        neighbors = {v: [] for v in range(1, n + 1)}
        edges = [(k, e) for k, e in enumerate(edge_list(n)) if colors[k] == c]
        for k, (a, b) in edges:
            neighbors[a].append((b, k))
            neighbors[b].append((a, k))
        owned = {1: None}  # the edge from each vertex to its parent
        stack = [1]
        while stack:
            u = stack.pop()
            for v, k in neighbors[u]:
                if v not in owned:
                    owned[v] = k
                    minus += u < v  # the edge's -1 sits at its larger end
                    stack.append(v)
        if len(edges) != n - 1 or len(owned) != n:
            raise ValueError(f"class {c} is not a spanning tree of K_{n}")
        minus += sum(a > b for a, b in combinations([owned[v] for v in range(2, n + 1)], 2))
    return -1 if minus & 1 else 1


def signs_by_mask(n: int) -> np.ndarray:
    """det B(T) indexed by edge mask: an int8 table over all 2^E edge
    subsets of K_n, +1 or -1 at the spanning trees of tree_table(n) and
    0 elsewhere.  Only for n <= 7, where it takes at most 2 MiB."""
    if edge_count(n) > 21:
        raise ValueError(f"a table over all edge subsets of K_{n} would need 2^{edge_count(n)} entries")
    table = tree_table(n)
    signs = np.zeros(1 << edge_count(n), dtype=np.int8)
    signs[table.masks] = table.signs
    return signs


def _parity(x: np.ndarray) -> np.ndarray:
    """1 where an int64 has an odd number of set bits among its 64, else 0."""
    for shift in (32, 16, 8, 4, 2, 1):
        x = x ^ (x >> shift)  # the arithmetic shift's sign bits never reach bit 0
    return x & 1


def _prefix_xor(x: np.ndarray) -> np.ndarray:
    """Bit k of the result is the XOR of the int64's bits below k."""
    x = x << 1
    for shift in (1, 2, 4, 8, 16, 32):
        x = x ^ (x << shift)
    return x


def tree_signs(pset) -> np.ndarray:
    """(-1)^inv(P) * prod_c det B(T_c) for every member P of a cycle-free
    partition set, as int8 in member order.

    Members are read from pset.colors in blocks of rows.  Each class's
    edge mask is one float32 product, colors == c times the powers of
    two, exact because signs_by_mask stops at E = 21 and float32 holds
    every integer below 2^24.  The colors are walked upwards: an edge
    of color c inverts every later edge of a smaller color, so the
    parity of inv(P) gains, per c, the parity of the smaller-colored
    edges with an odd number of c-colored edges below them, read off
    the masks by a prefix-XOR.  Each class is then looked up in
    signs_by_mask(n).  The scratch is that table (32 KiB at d = 3) and
    a few arrays of one block's rows.
    """
    d, E = pset.d, pset.colors.shape[1]
    by_mask = signs_by_mask(pset.n)
    bit = np.float32(2) ** np.arange(E, dtype=np.float32)
    out = np.empty(len(pset), dtype=np.int8)
    for start in range(0, len(pset), _SIGN_BLOCK):
        colors = pset.colors[start : start + _SIGN_BLOCK]
        parity = np.zeros(len(colors), dtype=np.int64)
        below = np.zeros(len(colors), dtype=np.int64)  # the edges of the smaller colors
        sign = np.ones(len(colors), dtype=np.int8)
        for c in range(d):
            mask = ((colors == c) @ bit).astype(np.int64)
            parity ^= _parity(_prefix_xor(mask) & below)
            below |= mask
            tree = by_mask[mask]
            if not tree.all():
                raise ValueError(f"edge mask {int(mask[tree.argmin()])} is not a spanning tree")
            sign *= tree
        out[start : start + len(colors)] = sign * (1 - 2 * parity)
    return out

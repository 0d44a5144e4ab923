"""The signed partition set as a reduced, ordered decision diagram.

A signature table is a set of colorings, one color per edge, each with a
sign.  Reading the edges in lexicographic order, every prefix of a member
leaves a signed set of suffixes; prefixes with equal signed suffix sets
share one node (Bryant, IEEE Trans. Comput. 1986).  Level k holds the
nodes reached after k edges; entry c of a node's child row is the node
reached by coloring edge k with c, or -1 when no member continues that
way.  Below the last level sit two terminals, +1 and -1.

A multilinear form that sums, over the members, the sign times one
coordinate per edge is then a single bottom-up pass: a node's value is
the sum over c of the edge's coordinate c times the child's value.  At
d = 3 the 66 240 members reduce to 5 287 internal nodes and 11 346 arcs.

The build runs bottom-up over shrinking prefix groups, in O(N) scratch
memory for N members.  The rows of level k are the distinct k-prefixes;
each is the group of distinct (k + 1)-prefixes below it, which the code
order keeps contiguous, so the row count falls from N at the bottom to
one at the root and no level rescans the members.  A row's child nodes
pack into one integer key, and the level's nodes are its distinct keys in
ascending order: a seen-table over the key range, ranked by a cumsum,
finds them on the wide bottom levels, where that range is within a few
times the row count, and a sort on the others.

The pass runs on one flat value array.  Slot 0 holds a zero, which every
missing arc reads; slots 1 and 2 hold the terminals; the levels follow
bottom-up, so the root is the last slot.  Each level keeps its child
table in these global slots, and its values are one gather and one
matrix-vector product: matmul(val.take(children), coeffs[k], out=val[span]).
Each level runs in the cheapest dtype that its own suffix bound keeps
exact (see SignedDiagram.evaluate): the wide middle levels have small
bounds and stay in float64, and only the narrow top levels (1, 3, 9, 27
and 78 nodes at d = 3) ever need int64 or Python ints.  The pass computes
integers only: a value over GF(p) is the exact integer value, which the
caller reduces mod p once.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate
from operator import mul

import numpy as np

TERMINALS = 2  # node 0 is the +1 terminal, node 1 the -1 terminal


class SignedDiagram:
    """Leveled decision diagram of a code-sorted, signed coloring set.

    levels[k] is an (n_k, d) intp child table; children index level
    k + 1, or the terminals below the last level, and -1 marks a
    missing arc.  Level 0 holds the single root.
    """

    def __init__(self, colors: np.ndarray, codes: np.ndarray, signs: np.ndarray, d: int):
        E = colors.shape[1]
        # the elements of level k are the distinct (k + 1)-prefixes, each named
        # by its first member row and knowing its node one level down; those
        # sharing k leading colors are contiguous (rows are code-sorted) and
        # make up one row of level k
        ids = (1 - signs.astype(np.int32)) // 2  # each element's node one level down
        rows = slice(None)  # at the bottom the elements are the members
        n_below = TERMINALS
        levels = [None] * E
        for k in range(E - 1, -1, -1):
            base = n_below + 1
            if base ** d >= 2 ** 63:
                raise ValueError(f"level {k} is too wide to pack its child rows in int64")
            prefix = codes[rows] // d ** (E - k)
            starts = np.flatnonzero(np.concatenate(([True], prefix[1:] != prefix[:-1])))
            del prefix
            # one key per row of level k, child c + 1 the digit of weight
            # base^(d-1-c), in int32 while the key range allows
            dtype = np.int32 if base ** d < 2 ** 31 else np.int64
            key = np.power(base, d - 1 - colors[rows, k], dtype=dtype)
            key *= ids + 1
            key = np.add.reduceat(key, starts)
            if base ** d <= 4 * len(key):  # a seen-table over the key range, ranked by a cumsum
                seen = np.zeros(base ** d, dtype=bool)
                seen[key] = True
                unique = np.flatnonzero(seen)
                ids = np.cumsum(seen, dtype=np.int32)[key] - 1
            else:
                unique, inverse = np.unique(key, return_inverse=True)
                ids = inverse.astype(np.int32)
            table = np.empty((len(unique), d), dtype=np.intp, order="F")  # one column per color
            for c in range(d - 1, -1, -1):
                table[:, c] = unique % base - 1
                unique //= base
            levels[k] = table
            rows = starts if isinstance(rows, slice) else rows[starts]
            n_below = len(table)
        self.levels = levels
        # the flat layout: (coefficient row, slots, child slots) per level, bottom-up
        self.passes, start, below = [], 1 + TERMINALS, 1
        for k in range(E - 1, -1, -1):
            children = np.ascontiguousarray(np.where(levels[k] >= 0, levels[k] + below, 0))
            self.passes.append((k, slice(start, start + len(children)), children))
            start, below = start + len(children), start
        self.slots = start

    @property
    def nodes(self) -> int:
        """Internal nodes, the two terminals not counted."""
        return sum(len(level) for level in self.levels)

    @property
    def arcs(self) -> int:
        return sum(int((level >= 0).sum()) for level in self.levels)

    def evaluate(self, coeffs):
        """The form's exact integer value at the flat integer coefficients
        coeffs[k * d + c], the factor of color c on edge k.

        Every node value and partial sum of level k is an integer of
        magnitude at most its suffix bound, B_k = prod_{e >= k} max(1,
        sum_c |coeffs[e][c]|), and B_k grows towards the root.  Bottom-up,
        the levels run in float64 while B_k < 2^53 (IEEE 754 rounds only
        what it cannot represent, so no BLAS summation order or fused
        multiply-add changes a value), then in int64 while B_k < 2^63, and
        the rest in Python ints.  Below a total bound of 2^53 the whole
        diagram is one float64 run with no per-level work.
        """
        d = self.levels[0].shape[1]
        sums = [s or 1 for s in map(sum, zip(*[map(abs, coeffs)] * d))]
        if math.prod(sums) < 2 ** 53:
            val = np.empty(self.slots, dtype=np.float64)
            val[: 1 + TERMINALS] = 0, 1, -1
            return self._run(val, self.passes, coeffs)[-1]
        bounds = list(accumulate(reversed(sums), mul))  # B_k of each pass, bottom-up
        f, i = bisect_left(bounds, 2 ** 53), bisect_left(bounds, 2 ** 63)
        runs = (
            (np.float64, self.passes[:f]),
            (np.int64, self.passes[f:i]),
            (object, self.passes[i:]),
        )
        # each run starts on the level below it, the first one on the terminals
        val, below = np.array([0, 1, -1]), slice(1, 1 + TERMINALS)
        for dtype, passes in runs:
            if not passes:
                continue
            x = val[below].astype(np.int64).astype(dtype)  # exact: every |x| < 2^63
            val = np.empty(self.slots, dtype=dtype)
            val[: 1 + TERMINALS] = 0, 1, -1
            val[below] = x
            self._run(val, passes, coeffs)
            below = passes[-1][1]
        return val[-1]

    def _run(self, val, passes, coeffs):
        """Write the levels of passes, a bottom-up run, into val in its
        dtype, the level below being in place, and return val: each level
        is one gather and one product in place."""
        d = self.levels[0].shape[1]
        lo, hi = passes[-1][0], passes[0][0] + 1  # the run's edges
        rows = np.array(coeffs[lo * d : hi * d], dtype=val.dtype).reshape(-1, d)
        # ndarray.dot reaches BLAS soonest; matmul's loop is faster for int64
        product = np.ndarray.dot if val.dtype == np.float64 else np.matmul
        for k, span, children in passes:
            product(val.take(children), rows[k - lo], out=val[span])
        return val

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
"""

from __future__ import annotations

import numpy as np

TERMINALS = 2  # node 0 is the +1 terminal, node 1 the -1 terminal


class SignedDiagram:
    """Leveled decision diagram of a code-sorted, signed coloring set.

    levels[k] is an (n_k, d) intp child table; children index level
    k + 1, or the terminals below the last level, and -1 marks a
    missing arc.  Level 0 holds the single root.
    """

    def __init__(self, colors: np.ndarray, codes: np.ndarray, signs: np.ndarray, d: int):
        N, E = colors.shape
        ids = (1 - signs.astype(np.intp)) // 2  # each row's node one level down
        n_below = TERMINALS
        levels = [None] * E
        for k in range(E - 1, -1, -1):
            # rows are code-sorted, so rows sharing k leading colors are contiguous
            prefix = codes // d ** (E - k)
            starts = np.ones(N, dtype=bool)
            starts[1:] = prefix[1:] != prefix[:-1]
            group = np.cumsum(starts) - 1
            table = np.full((int(group[-1]) + 1, d), -1, dtype=np.intp)
            table[group, colors[:, k]] = ids
            base = n_below + 1
            if base ** d >= 2 ** 63:
                raise ValueError(f"level {k} is too wide to pack its child rows in int64")
            key = np.zeros(len(table), dtype=np.int64)
            for c in range(d):  # one int64 key per child row, digits in base n_below + 1
                key *= base
                key += table[:, c] + 1
            _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
            levels[k] = np.asfortranarray(table[first])  # one contiguous column per color
            ids = inverse.reshape(-1)[group]
            n_below = len(first)
        self.levels = levels

    @property
    def nodes(self) -> int:
        """Internal nodes, the two terminals not counted."""
        return sum(len(level) for level in self.levels)

    @property
    def arcs(self) -> int:
        return sum(int((level >= 0).sum()) for level in self.levels)

    def evaluate(self, coeffs, dtype, p=None):
        """Root value for coeffs[k][c], the factor of color c on edge k.

        dtype is int64 or object; with p given, every product and every
        node value is reduced mod p.  The caller picks a dtype in which
        no product or partial sum can overflow.
        """
        coeffs = np.array(coeffs, dtype=dtype)
        # each level's values end in a zero sentinel, which a missing arc (-1) reads
        val = np.array([1, -1 if p is None else p - 1, 0], dtype=dtype)
        for k in range(len(self.levels) - 1, -1, -1):
            child = self.levels[k]
            out = np.zeros(len(child) + 1, dtype=dtype)
            acc = out[:-1]
            for c, factor in enumerate(coeffs[k]):
                if not factor:  # a zero coordinate adds nothing
                    continue
                term = val[child[:, c]] * factor
                if p is not None:
                    term %= p
                acc += term
            if p is not None:
                acc %= p
            val = out
        return val[0]

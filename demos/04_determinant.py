#!/usr/bin/env python3
"""The determinant-like multilinear form.

One vector of dimension d per edge of K_{2d}; the form is the signed
sum over all cycle-free homogeneous partitions of the product of the
coordinates each partition selects.  It is multilinear, vanishes when a
face carries three equal vectors, is normalized to 1 on the nested
generator, and transforms under slot permutations and matrix actions
exactly like a determinant power.
"""

from fractions import Fraction

import numpy as np

from treedet.algebra import (
    det2_explicit,
    det_eval,
    matrix_determinant,
    permute_tensor,
    transform_tensor,
    unit_matrix_text,
    unit_partition,
    unit_tensor,
)
from treedet.context import standard_context
from treedet.symmetry import perm_sign

ctx2, ctx3 = standard_context(2), standard_context(3)

print("The nested generator for d = 3 (upper-triangular display):")
print(unit_matrix_text(3))
print()
print(f"classes: {[sorted(c) for c in unit_partition(3).color_classes()]}")
print()

print(f"det on the d=2 generator tensor: {det_eval(unit_tensor(2), ctx2.pset, ctx2.signature)}")
print(f"det on the d=3 generator tensor: {det_eval(unit_tensor(3), ctx3.pset, ctx3.signature)}")
print(f"expanded 12-term d=2 form on the same input: {det2_explicit(unit_tensor(2))}"
      "  (the two conventions differ by a global sign)")
print()

rng = np.random.default_rng(0)
vectors = tuple(tuple(Fraction(int(x)) for x in rng.integers(-5, 6, size=3)) for _ in range(15))
value = det_eval(vectors, ctx3.pset, ctx3.signature)
print(f"a random integer tensor evaluates to {value}")
print(f"same tensor over GF(101): {det_eval(vectors, ctx3.pset, ctx3.signature, p=101)}"
      f"  (matches {value} mod 101: {value % 101 == det_eval(vectors, ctx3.pset, ctx3.signature, p=101)})")
p = 2 ** 31 - 1
full = tuple(tuple(Fraction(int(x)) for x in rng.integers(0, p, size=3)) for _ in range(15))
modular = det_eval(full, ctx3.pset, ctx3.signature, p=p)
print(f"full-size residues over GF(2^31 - 1): {modular}  (the exact integer value, reduced mod p once; matches the"
      f" rational value mod p: {det_eval(full, ctx3.pset, ctx3.signature) % p == modular})")
print()

shared = (Fraction(2), Fraction(-1), Fraction(3))
flat = list(vectors)
for k in (0, 1, 5):  # the three edges of the face (1,2,3)
    flat[k] = shared
print(f"after forcing the face (1,2,3) to one vector: {det_eval(flat, ctx3.pset, ctx3.signature)}")
print()

sigma = (3, 1, 2, 6, 5, 4)
permuted = permute_tensor(sigma, vectors, 6)
print(f"slot permutation by sigma={sigma} (sign {perm_sign(sigma):+d}):")
print(f"  d=3 value is invariant: {det_eval(permuted, ctx3.pset, ctx3.signature) == value}")

T = [[1, 2, 0], [0, 1, -1], [1, 0, 1]]
scaled = det_eval(transform_tensor(T, vectors, 6), ctx3.pset, ctx3.signature)
print(f"matrix action by T with det {matrix_determinant(T)}: "
      f"value scales by det(T)^5: {scaled == matrix_determinant(T) ** 5 * value}")

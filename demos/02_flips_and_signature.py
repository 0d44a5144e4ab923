#!/usr/bin/env python3
"""Face flips, the flip graph, and the signature.

For every homogeneous cycle-free partition and every vertex triple
(x, y, z) there is exactly one partner partition agreeing off the face
and differing on at least two of its three edges.  Flipping is an
involution, the graph it generates is bipartite, and the resulting
global sign is the combinatorial heart of the determinant construction.
"""

import time

from treedet import check_connected, flip, verify_flip_soundness
from treedet.catalog import BASE_PARTITION_D2
from treedet.context import standard_context
from treedet.model import faces_of

print("Flip the d=2 base partition across the face (1,2,3):")
print(f"  before: {[sorted(c) for c in BASE_PARTITION_D2.color_classes()]}")
flipped = flip(BASE_PARTITION_D2, (1, 2, 3))
print(f"  after:  {[sorted(c) for c in flipped.color_classes()]}")
print(f"  double flip restores the original: {flip(flipped, (1, 2, 3)) == BASE_PARTITION_D2}")
print()

for d in (2, 3):
    t0 = time.time()
    ctx = standard_context(d)
    soundness = verify_flip_soundness(ctx.graph)
    conn = check_connected(ctx.graph)
    plus, minus = ctx.signature.class_sizes()
    print(f"d={d}: {len(ctx.pset)} nodes, {len(faces_of(ctx.pset.n))} faces per node")
    print(
        f"  flip soundness: {soundness.pairs_checked} pairs, unique partner "
        f"everywhere, involution: {soundness.involution_ok}"
    )
    print(f"  changing 2 face edges: {soundness.diff_two}, changing 3: {soundness.diff_three}")
    print(f"  bipartition classes: {plus} / {minus}")
    print(f"  components: {conn.n_components}")
    print(f"  ({time.time() - t0:.1f}s)")
    print()

ctx3 = standard_context(3)
p = ctx3.pset.partition(0)
print("Signs alternate across every flip; a short walk from node 0:")
sign = ctx3.signature.signature(p)
for step, face in enumerate([(1, 2, 3), (2, 4, 6), (1, 3, 5)]):
    q = flip(p, face)
    print(
        f"  step {step}: sign {ctx3.signature.signature(p):+d} "
        f"--flip{face}-> {ctx3.signature.signature(q):+d}"
    )
    p = q

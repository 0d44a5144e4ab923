#!/usr/bin/env python3
"""Orbits under vertex and color relabeling.

S_6 x S_3 acts on the 66240 cycle-free homogeneous 3-partitions of K_6
by relabeling vertices and permuting colors.  There are exactly 19
orbits; each stores a catalog of labeled representatives whose sizes,
stabilizers, and tree-shape triples are recomputed and cross-checked
here.
"""

import time
from collections import Counter

from treedet import match_catalog, orbit_decomposition, stabilizer
from treedet.catalog import reference_partition
from treedet.context import standard_context

t0 = time.time()
ctx = standard_context(3)
table = orbit_decomposition(ctx.pset)
print(f"{len(table.entries)} orbits over {len(ctx.pset)} partitions ({time.time() - t0:.1f}s)")
print()

report = match_catalog(table)
print("orbit  size  |stab|  shapes           catalog ids")
for e in table.entries:
    shapes = ",".join(e.type_triple)
    ids = ",".join(f"P{c}" for c, o in report.orbit_of.items() if o == e.orbit_id) or "-"
    print(f"{e.orbit_id:5d}  {e.size:4d}  {e.stabilizer_order:5d}  {shapes:15s}  {ids}")

sizes = Counter(e.size for e in table.entries)
print()
print(f"size multiset: {dict(sorted(sizes.items(), reverse=True))}")
print(f"total: {sum(e.size for e in table.entries)}")
print(f"orbit-stabilizer identity (size * |stab| = 4320): "
      f"{all(e.size * e.stabilizer_order == 4320 for e in table.entries)}")
print()

print(f"catalog cross-check: {'clean' if report.ok else report.mismatches}")
print()

print("A nontrivial stabilizer, for the representative with |stab| = 6:")
for pair in stabilizer(reference_partition(2)):
    print(f"  sigma={pair.sigma}  tau={pair.tau}")

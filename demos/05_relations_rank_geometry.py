#!/usr/bin/env python3
"""Face relations, the d = 2 rank certificate, and the geometric reading.

Each relation instance fixes a face, a color multiset for its three
edges, and the colors of every other edge; the signed sum over the
multiset's arrangements must vanish.  The members among those terms are
one flip pair, so the sweep over all of them (106 million at d = 3)
reads the flip graph's pairs; it certifies that the signature really
does define a form on the quotient.  At d = 2 the quotient dimension
is confirmed independently by eliminating the 128 relation vectors
against the 64 generators, and the vanishing locus has a geometric
meaning: the six vectors fit a quadrilateral's edge directions.
"""

import time
from fractions import Fraction

import numpy as np

from treedet.algebra import (
    geometric_check_d2,
    rank_certify_d2,
    relation_instances,
    relation_sum,
    verify_relations,
)
from treedet.context import standard_context
from treedet.model import edge_list

ctx2, ctx3 = standard_context(2), standard_context(3)

def member_terms(inst):
    out = []
    for colors in inst.expansions():
        code = 0
        for c in colors:
            code = code * 2 + c
        hit = int(np.searchsorted(ctx2.pset.codes, code))
        out.append(hit < len(ctx2.pset) and int(ctx2.pset.codes[hit]) == code)
    return out


print("A d=2 relation instance whose surviving terms cancel in pairs:")
inst = next(i for i in relation_instances(2) if sum(member_terms(i)) == 2)
print(f"  face {inst.face}, colors {inst.color_multiset}, context {inst.context}")
for colors, hit in zip(inst.expansions(), member_terms(inst)):
    if hit:
        from treedet.model import EdgePartition

        sign = ctx2.signature.signature(EdgePartition(2, 4, colors))
        print(f"    term {colors} (member, sign {sign:+d})")
    else:
        print(f"    term {colors} (outside, contributes 0)")
print(f"  signed sum: {relation_sum(inst, ctx2.pset, ctx2.signature)}")
from treedet.model import EdgePartition

a, b = (
    ctx2.pset.index_of(EdgePartition(2, 4, colors))
    for colors, hit in zip(inst.expansions(), member_terms(inst))
    if hit
)
print(f"  the two members are flip partners across the face: {ctx2.graph.neighbor(a, inst.face) == b}")
print("  so the full sweep sums s_i + s_partner over each face's flip pairs")
print()

for d, ctx in ((2, ctx2), (3, ctx3)):
    t0 = time.time()
    report = verify_relations(ctx.graph, ctx.signature)
    print(
        f"d={d} full sweep: {report.instances_checked} instances, "
        f"{report.violations} violations ({time.time() - t0:.1f}s)"
    )
print()

print(f"d=2 quotient dimension over GF(101): {rank_certify_d2(101)}")
print(f"d=2 quotient dimension over GF(5):   {rank_certify_d2(5)}")
print()

print("Geometric reading at d=2: vanishing detects quadrilateral directions.")
points = [(Fraction(0), Fraction(0)), (Fraction(3), Fraction(1)),
          (Fraction(2), Fraction(4)), (Fraction(-1), Fraction(2))]
vectors = tuple(
    tuple(points[j - 1][c] - points[i - 1][c] for c in range(2)) for (i, j) in edge_list(4)
)
report = geometric_check_d2(vectors)
print(f"  side/diagonal directions of a quadrilateral: det_zero={report.det_zero}, "
      f"lambda_exists={report.lambda_exists}")
print(f"  witness lambda: {report.lambda_witness}")

rng = np.random.default_rng(1)
generic = tuple(tuple(Fraction(int(x)) for x in rng.integers(-9, 10, size=2)) for _ in range(6))
report = geometric_check_d2(generic)
print(f"  generic input: det_zero={report.det_zero}, lambda_exists={report.lambda_exists} "
      f"(the two always agree)")

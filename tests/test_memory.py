"""Scratch-memory bounds of the d = 3 certificate stages.

tracemalloc sees numpy's buffers, so the traced peak of a call is the
most memory it held at once, its result included.  Each bound sits a
little above the stage's O(N) scratch (N = 66 240 members) and well
below what a copy of the whole (N, 20) flip table as intp (10.1 MiB)
would cost.  The orbit stage is bounded the same way: its 82 080 image
codes take 0.63 MiB per int64 copy.  The parity-form stage relabels
nothing; it reads the image positions the orbit table keeps.
"""

import tracemalloc

import pytest

from treedet.algebra import verify_relations
from treedet.cli import _alternation_witnesses
from treedet.diagram import SignedDiagram
from treedet.flips import (
    AnchorConflictError,
    _face_sweep,
    bfs_levels,
    check_bipartite,
    standard_anchors,
    verify_flip_soundness,
)
from treedet.symmetry import epsilon_formula_check, orbit_decomposition

MiB = 2 ** 20


def anchor_conflict(ctx):
    """check_bipartite on a member and its face-0 partner, both pinned at +1."""
    anchors = [(ctx.pset.partition(i), +1) for i in (1000, int(ctx.graph.adjacency[1000, 0]))]
    with pytest.raises(AnchorConflictError):
        check_bipartite(ctx.graph, anchors)


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


STAGES = {
    # each breadth-first round reads the rows of its frontier in blocks
    "bfs_levels": (lambda ctx, orbits: bfs_levels(ctx.graph.adjacency), 3 * MiB),
    # the alternation check reads the flip table one face column at a time
    "check_bipartite": (
        lambda ctx, orbits: check_bipartite(ctx.graph, standard_anchors(ctx.pset)),
        2 * MiB,
    ),
    # the witness path follows a breadth-first tree read off the levels one
    # face column at a time
    "anchor_conflict": (lambda ctx, orbits: anchor_conflict(ctx), 4 * MiB),
    "alternation_witnesses": (
        lambda ctx, orbits: _alternation_witnesses(ctx.graph, ctx.signature),
        1 * MiB,
    ),
    # the levels shrink from N rows at the bottom to one at the root
    "diagram": (
        lambda ctx, orbits: SignedDiagram(ctx.pset.colors, ctx.pset.codes, ctx.signature.signs, 3),
        4.5 * MiB,
    ),
    # 5.05 MiB of it are the (N, 20) int32 adjacency; diff_counts is one count pair per face
    "face_sweep": (lambda ctx, orbits: _face_sweep(ctx.pset), 7.5 * MiB),
    # each face's column is read in place from the face-major table
    "flip_soundness": (lambda ctx, orbits: verify_flip_soundness(ctx.graph), 1.5 * MiB),
    "relations": (lambda ctx, orbits: verify_relations(ctx.graph, ctx.signature), 1.5 * MiB),
    # 19 rounds of 4 320 image codes each; the 82 080 image positions kept
    # as int32 take 0.31 MiB
    "orbit_decomposition": (lambda ctx, orbits: orbit_decomposition(ctx.pset), 2 * MiB),
    # int8 signs and masks over the kept image positions, no relabeling
    "epsilon_formula": (
        lambda ctx, orbits: epsilon_formula_check(orbits, ctx.signature),
        0.5 * MiB,
    ),
}


@pytest.mark.parametrize("stage", list(STAGES))
def test_flip_graph_stage_scratch_memory(stage, ctx3, orbits3):
    call, bound = STAGES[stage]
    call(ctx3, orbits3)  # a first call pays for any lazy imports
    peak = traced_peak(lambda: call(ctx3, orbits3))
    assert peak <= bound, f"{stage}: traced peak {peak / MiB:.2f} MiB > {bound / MiB} MiB"

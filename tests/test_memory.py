"""Scratch-memory bounds of the d = 3 certificate stages.

tracemalloc sees numpy's buffers, so the traced peak of a call is the
most memory it held at once, its result included.  Each bound sits a
little above the stage's O(N) scratch (N = 66 240 members) and well
below what a copy of the whole (N, 20) flip table as intp (10.1 MiB)
would cost.  The orbit stage is bounded the same way: its 82 080 image
codes take 0.63 MiB per int64 copy.  The parity-form stage relabels
nothing; it reads the image positions the orbit table keeps.
"""

import functools
import tracemalloc

import pytest

import helpers
from treedet.algebra import verify_relations
from treedet.diagram import SignedDiagram
from treedet.flips import (
    OddCycleError,
    _face_sweep,
    bfs_levels,
    check_bipartite,
    sign_failures,
    verify_flip_soundness,
)
from treedet.symmetry import epsilon_formula_check, orbit_decomposition
from treedet.trees import tree_signs

MiB = 2 ** 20


@functools.lru_cache(maxsize=1)
def same_level_flip_graph(ctx):
    """The flip graph with one flip inside level 3, and its levels: built
    by a stage's first call, which is not traced."""
    graph = helpers.same_level_flip(ctx.graph, 3)
    graph.levels
    return graph


def odd_cycle_witness(ctx):
    """check_bipartite raising OddCycleError with its cycle."""
    with pytest.raises(OddCycleError):
        check_bipartite(same_level_flip_graph(ctx))


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
    "check_bipartite": (lambda ctx, orbits: check_bipartite(ctx.graph), 2 * MiB),
    # the cycle follows a breadth-first tree read off the levels one face
    # column at a time
    "odd_cycle_witness": (lambda ctx, orbits: odd_cycle_witness(ctx), 2 * MiB),
    # the walk behind the CLI's signature_alternation witness, one face
    # column at a time
    "alternation_witnesses": (
        lambda ctx, orbits: list(sign_failures(ctx.graph, ctx.signature.signs)),
        1 * MiB,
    ),
    # a few arrays of one block of rows, and the int8 signs
    "tree_signs": (lambda ctx, orbits: tree_signs(ctx.pset), 1.5 * MiB),
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


def test_a_fresh_d3_context_keeps_no_flip_graph(ctx3, monkeypatch):
    # the signature and its diagram; the (N, 20) flip table alone would be 5.05 MiB
    import treedet.context

    monkeypatch.setattr(treedet.context, "_contexts", {})
    tracemalloc.start()
    try:
        ctx = treedet.context.standard_context(3, ctx3.pset)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ctx.signature.signs.tobytes() == ctx3.signature.signs.tobytes()
    assert kept <= 1 * MiB, f"a fresh standard_context(3) keeps {kept / MiB:.2f} MiB"

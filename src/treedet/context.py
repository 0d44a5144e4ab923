"""Shared build pipeline: partition set, flip graph, anchored signature.

Almost everything downstream (determinants, relation sweeps, the CLI)
needs the same three objects for a given d, and det_eval needs the
signature's decision diagram as well.  They are built once per
process and cached by d; a caller that already holds the cycle-free set
passes it in, so it is not enumerated again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .enumeration import PartitionSet, enumerate_partitions
from .flips import (
    FlipGraph,
    SignatureTable,
    build_flip_graph,
    check_bipartite,
    standard_anchors,
)


@dataclass(frozen=True)
class Context:
    pset: PartitionSet
    graph: FlipGraph
    signature: SignatureTable


_contexts: dict[int, Context] = {}


def standard_context(d: int, pset: PartitionSet | None = None) -> Context:
    """Cycle-free set, flip graph, and signature with standard anchors.

    `pset`, if given, must be the cycle-free set for d; it replaces the
    enumeration when the context is not cached yet.  A flip graph that
    is not two-colorable raises OddCycleError, and nothing is cached.
    """
    d = int(d)
    if d not in _contexts:
        if pset is None:
            pset = enumerate_partitions(d, cycle_free=True)
        elif (pset.d, pset.cycle_free) != (d, True):
            raise ValueError(f"standard_context({d}) needs the cycle-free set for d={d}")
        graph = build_flip_graph(pset)
        table = check_bipartite(graph, standard_anchors(pset))
        table.diagram  # built here, so the first det_eval call does not pay for it
        _contexts[d] = Context(pset, graph, table)
    return _contexts[d]

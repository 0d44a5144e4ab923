"""Shared build pipeline: partition set, signature and, on demand, flip graph.

Almost everything downstream (determinants, relation sweeps, the CLI)
needs the cycle-free set and its signature for a given d, and det_eval
needs the signature's decision diagram as well.  The signature is
D(unit) * det M_P, read off the spanning-tree table (trees.tree_signs)
with no flip graph, so det, signature and verify-appendix never build
one.  The flip graph is built the first time something reads
Context.graph, and the certificates check that every flip negates the
signature.  Contexts are built once per process and cached by d; a
caller that already holds the cycle-free set passes it in, so it is not
enumerated again.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from .algebra import unit_partition
from .enumeration import PartitionSet, enumerate_partitions
from .flips import FlipGraph, SignatureTable, build_flip_graph
from .trees import tree_signs


class Context:
    """The cycle-free set, its signature and its flip graph.

    A graph given here is used as is; otherwise build_flip_graph runs
    the first time the graph is read.
    """

    def __init__(self, pset: PartitionSet, graph: Optional[FlipGraph], signature: SignatureTable):
        self.pset = pset
        self.signature = signature
        if graph is not None:
            self.graph = graph

    @cached_property
    def graph(self) -> FlipGraph:
        return build_flip_graph(self.pset)


_contexts: dict[int, Context] = {}


def standard_context(d: int, pset: PartitionSet | None = None) -> Context:
    """Cycle-free set and its signature, +1 on the generator partition.

    `pset`, if given, must be the cycle-free set for d; it replaces the
    enumeration when the context is not cached yet.
    """
    d = int(d)
    if d not in _contexts:
        if pset is None:
            pset = enumerate_partitions(d, cycle_free=True)
        elif (pset.d, pset.cycle_free) != (d, True):
            raise ValueError(f"standard_context({d}) needs the cycle-free set for d={d}")
        signs = tree_signs(pset)
        signs *= signs[pset.index_of(unit_partition(d))]  # D(unit)
        table = SignatureTable(pset, signs)
        table.diagram  # built here, so the first det_eval call does not pay for it
        _contexts[d] = Context(pset, None, table)
    return _contexts[d]

"""Homogeneous cycle-free edge partitions of complete graphs.

Library for enumerating the homogeneous (and cycle-free) d-partitions
of K_{2d}, flipping them across faces, decomposing them into orbits
under vertex and color relabeling, two-coloring the flip graph into a
signature, and evaluating the exact determinant-like multilinear form
that the signature defines.
"""

__version__ = "0.1.0"

from .algebra import (
    DET2_EXPLICIT_SIGN,
    RelationInstance,
    det2_explicit,
    det_eval,
    geometric_check_d2,
    permute_tensor,
    rank_certify_d2,
    relation_instances,
    transform_tensor,
    unit_partition,
    unit_tensor,
    verify_relations,
    zero_by_multiplicity,
)
from .context import Context, standard_context
from .enumeration import PartitionSet, enumerate_partitions
from .flips import (
    AnchorConflictError,
    FlipGraph,
    FlipUniquenessError,
    OddCycleWitness,
    SignatureTable,
    build_flip_graph,
    check_bipartite,
    check_connected,
    flip,
    standard_anchors,
    verify_flip_soundness,
)
from .model import (
    EdgePartition,
    classify_tree,
    edge_index,
    is_cycle_free,
    is_homogeneous,
)
from .symmetry import (
    CHARACTERS,
    EpsilonFormulaReport,
    OrbitTable,
    PermPair,
    act,
    epsilon_formula_check,
    match_catalog,
    orbit_decomposition,
    stabilizer,
)

__all__ = [name for name in dir() if not name.startswith("_")]

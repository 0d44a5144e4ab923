"""Face flips on homogeneous cycle-free partitions and the flip graph.

Every homogeneous cycle-free d-partition of K_{2d} has, for each vertex
triple (x, y, z), a unique partner partition that agrees with it on all
edges off the face and differs on at least two of the three face edges.
The map to that partner is an involution ("flip").  Nothing here takes
that uniqueness on faith.  flip() tries all d^3 - 1 alternative face
colorings of one partition and demands exactly one survivor.  The graph
builder groups the members, face by face, by their coloring off the
face and the multiset of their three face colors, one int64 key each
(sorted_face_keys) sorted once per face: a partner keeps both, because
homogeneity only sees the multiset, and two members of one group always
differ on at least two face edges.  So a member's partners are the
other members of its group, and a group of any size but two aborts the
run loudly instead of being glossed over.  The certified pairs are the
nonzero terms of the face relations, which algebra.verify_relations sums.

The graph with one node per partition and one edge per flip carries the
two certificates this package is built around:

* two-colorability: a global sign that every flip negates (the
  signature map; its existence is the bipartiteness of the flip graph);
* connectivity: when the involutions act transitively, the members are
  pairwise proportional in the quotient of the tensor space by the face
  relations.

Both are read off one level-synchronous breadth-first search
(bfs_levels): a flip must join levels of opposite parity, and each
component is named by its smallest node.  The witness of a failed
check, an odd cycle or an anchor-to-anchor path, follows the parents
that _bfs_parents reads off the same levels.  The node-by-node search
two_color is not on this path; it is the reference the vectorised one
is tested against.

Besides its (N, C(2d,3)) flip table, every step of the stage works in
O(N) scratch memory for N members.  The table is stored face-major, so
the face sweep writes each face's column in place, and the soundness
check, check_bipartite and _bfs_parents read it one column at a time; the
sweep keeps two counts per face of the face edges its flips change; each
breadth-first round reads the rows of its frontier in blocks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Optional, Sequence, Union

import numpy as np

from .diagram import SignedDiagram
from .enumeration import PartitionSet
from .model import (
    EdgePartition,
    face_edge_indices,
    faces_of,
    is_cycle_free,
    is_homogeneous,
    normalize_face,
)


class FlipUniquenessError(RuntimeError):
    """Raised when a (partition, face) pair does not have exactly one
    admissible flip partner.  This would falsify the uniqueness property
    the whole construction rests on, so it always aborts the run."""

    witness_property = "flip_uniqueness"

    def __init__(self, partition: EdgePartition, face, survivors):
        self.partition = partition
        self.face = tuple(face)
        self.survivors = survivors
        super().__init__(
            f"face {self.face} of partition code {partition.canonical_code()} "
            f"has {len(survivors)} admissible recolorings instead of 1"
        )


class AnchorConflictError(ValueError):
    """Two anchors in one flip-graph component demand inconsistent signs."""

    witness_property = "anchor_consistency"

    def __init__(self, first: int, second: int, path: list):
        self.first = first
        self.second = second
        self.path = path
        super().__init__(
            f"anchor at node {second} contradicts anchor at node {first}; "
            f"connecting path has {len(path)} nodes"
        )


def flip(partition: EdgePartition, face) -> EdgePartition:
    """The unique partner of `partition` across `face`.

    Brute force: try every alternative coloring of the three face edges,
    keep those that are homogeneous, cycle-free, and differ from the
    input in at least two of the three positions, and insist the
    survivor is unique.
    """
    if not is_homogeneous(partition):
        raise ValueError("flip needs a homogeneous partition")
    if not is_cycle_free(partition):
        raise ValueError("flip needs a cycle-free partition")
    d, n = partition.d, partition.n
    face = normalize_face(*face, n)
    pos = face_edge_indices(face, n)
    orig = tuple(partition.colors[k] for k in pos)
    survivors = []
    for cand in product(range(d), repeat=3):
        if cand == orig:
            continue
        ndiff = sum(1 for a, b in zip(cand, orig) if a != b)
        colors = list(partition.colors)
        for k, c in zip(pos, cand):
            colors[k] = c
        q = EdgePartition(d, n, tuple(colors))
        if ndiff >= 2 and is_homogeneous(q) and is_cycle_free(q):
            survivors.append(q)
    if len(survivors) != 1:
        raise FlipUniquenessError(partition, face, survivors)
    return survivors[0]


@dataclass
class FlipGraph:
    """Flip adjacency over a cycle-free homogeneous partition set.

    adjacency[i, f] is the index of the flip partner of node i across
    face number f (faces in lexicographic order); diff_counts[f] counts
    the nodes whose flip across face f changes 2 and 3 face edges.  The
    built table is stored face-major (Fortran order), so each face's
    column is contiguous for the sweep that writes it and the checks that
    read it.
    """

    pset: PartitionSet
    adjacency: np.ndarray  # (N, C(2d,3)) int32, face-major
    diff_counts: np.ndarray  # (C(2d,3), 2) int64

    @cached_property
    def levels(self) -> tuple[np.ndarray, np.ndarray]:
        """(root, level) of bfs_levels over the flips, shared by
        check_bipartite, its witnesses and check_connected."""
        return bfs_levels(self.adjacency)

    @property
    def faces(self):
        return faces_of(self.pset.n)

    def neighbor(self, i: int, face) -> int:
        face = normalize_face(*face, self.pset.n)
        return int(self.adjacency[i, self.faces.index(face)])


@dataclass
class FlipSoundnessReport:
    pairs_checked: int
    diff_two: int  # flips changing exactly 2 face edges
    diff_three: int  # flips changing all 3 face edges
    involution_ok: bool

    @property
    def ok(self) -> bool:
        return self.involution_ok and self.pairs_checked == self.diff_two + self.diff_three


def group_keys(d: int, context, a, b, c) -> np.ndarray:
    """One int64 per face group, ordered like (context, multiset): the
    context code (a canonical code with the face colors taken out) shifted
    by 2d bits, or'ed with the multiset of the face colors a, b, c (one
    base-4 count digit per color)."""
    return context << 2 * d | (1 << 2 * a) + (1 << 2 * b) + (1 << 2 * c)


def _packed_face_keys(pset: PartitionSet, faces):
    """For each face in turn, (packed, t, bits): the group_keys of the
    members shifted by bits, or'ed with the member index and sorted, and
    t, each member's face coloring index (a d + b) d + c.  A context code
    is the member's code less its face part, so a key is the code shifted
    by 2d bits plus the entry of a d^3-entry table for the face coloring.
    The code and index part of the packing is built once, and every face
    overwrites the same two arrays."""
    d = pset.d
    if d ** len(pset.weights) << 2 * d + len(pset).bit_length() >= 2 ** 63:
        raise ValueError(f"face keys for d={d} and their member index exceed the 64-bit range")
    bits = len(pset).bit_length()
    members = pset.codes << 2 * d + bits
    members |= np.arange(len(pset))
    a, b, c = np.indices((d, d, d)).reshape(3, -1)
    packed = np.empty(len(pset), dtype=np.int64)
    t = np.empty(len(pset), dtype=np.int32)
    for face in faces:
        pos = list(face_edge_indices(face, pset.n))
        w = pset.weights[pos]
        table = group_keys(d, -(a * w[0] + b * w[1] + c * w[2]), a, b, c) << bits
        t[:] = pset.colors[:, pos[0]]
        for k in pos[1:]:
            t *= d
            t += pset.colors[:, k]
        np.take(table, t, out=packed, mode="clip")  # "clip" writes straight into out
        packed += members
        packed.sort()
        yield packed, t, bits


def sorted_face_keys(pset: PartitionSet, face) -> tuple[np.ndarray, np.ndarray]:
    """(keys, order): the group_keys of the members at `face` in ascending
    order and the members in that order.  The members of a group recolor
    one another on the face and are the nonzero terms of one relation
    instance.  One np.sort of key << index bits | index breaks ties by
    index, so a group's members stay in index order, as a stable argsort
    leaves them."""
    packed, _, bits = next(_packed_face_keys(pset, [face]))
    return packed >> bits, packed & (1 << bits) - 1


def _face_sweep(pset: PartitionSet):
    """Flip partners of every (partition, face) pair, from the face keys.

    Returns (adjacency, diff_counts) where diff_counts[f] is the number
    of nodes whose flip across face f changes 2 and 3 face edges.
    Raises FlipUniquenessError, with the group's other members as the
    survivors, if any group does not have exactly two members.
    """
    d = pset.d
    faces = faces_of(pset.n)
    N = len(pset)
    adjacency = np.empty((len(faces), N), dtype=np.int32).T  # face-major
    diff_counts = np.empty((len(faces), 2), dtype=np.int64)
    # face edges on which two face colorings differ, indexed t_a * d^3 + t_b
    digits = np.indices((d, d, d)).reshape(3, -1)
    ndiff_of = (digits[:, :, None] != digits[:, None, :]).sum(axis=0, dtype=np.int8).ravel()
    for fi, (packed, t, bits) in enumerate(_packed_face_keys(pset, faces)):
        # every group is a pair: sorted keys agree within pairs, differ across them
        even, odd = packed[0::2] >> bits, packed[1::2] >> bits
        if N % 2 or np.any(even != odd) or np.any(odd[:-1] == even[1:]):
            keys, order = packed >> bits, packed & (1 << bits) - 1
            starts = np.flatnonzero(np.diff(keys, prepend=-1))
            sizes = np.diff(starts, append=N)
            g = int(np.flatnonzero(sizes != 2)[0])
            first, *others = order[starts[g] : starts[g] + sizes[g]]
            raise FlipUniquenessError(
                pset.partition(first), faces[fi], [pset.partition(j) for j in others]
            )
        del even, odd  # freed before the column writes
        packed &= (1 << bits) - 1  # the members in key order
        a, b = packed[0::2], packed[1::2]
        partner = adjacency[:, fi]  # a contiguous column
        partner[a], partner[b] = b, a
        pair_ndiff = ndiff_of[t[a] * d ** 3 + t[b]]
        diff_counts[fi] = [2 * np.count_nonzero(pair_ndiff == k) for k in (2, 3)]  # 2 nodes a pair
    return adjacency, diff_counts


def build_flip_graph(pset: PartitionSet) -> FlipGraph:
    """Full flip adjacency of a cycle-free homogeneous partition set."""
    if not pset.cycle_free:
        raise ValueError("flip graph needs the cycle-free partition set")
    return FlipGraph(pset, *_face_sweep(pset))


def verify_flip_soundness(graph: FlipGraph) -> FlipSoundnessReport:
    """Check every flip of the graph and the involution.

    Covers all |set| * C(2d,3) pairs: unique survivor (the sweep that
    built the graph raises otherwise), difference on exactly 2 or 3 face
    edges, and double-flip returning the original node.
    """
    adjacency, diff_counts = graph.adjacency, graph.diff_counts
    ids = np.arange(len(adjacency), dtype=np.int32)
    involution_ok = all(
        np.array_equal(partner[partner], ids) and not np.any(partner == ids)
        for partner in adjacency.T  # the face columns, contiguous in the face-major table
    )
    return FlipSoundnessReport(
        pairs_checked=int(adjacency.size),
        diff_two=int(diff_counts[:, 0].sum()),
        diff_three=int(diff_counts[:, 1].sum()),
        involution_ok=bool(involution_ok),
    )


_ROW_BLOCK = 4096  # rows of a neighbor table read at a time


def bfs_levels(neighbors) -> tuple[np.ndarray, np.ndarray]:
    """Level-synchronous breadth-first search over the symmetric (N, k)
    neighbor table (row i lists the nodes joined to i; self-loops pad
    rows; k may be 0), vectorized in numpy.  Returns int32 (root, level):
    the smallest node index of each node's component and the distance
    from it.  Each round searches from the `batch` smallest unvisited
    nodes not ruled out as roots; a component two of them reach is
    searched again later, its larger seeds ruled out.  The batch doubles
    after rounds of small components (under 64 nodes each) and halves
    otherwise, so tiny components go many to a round.
    """
    table = np.asarray(neighbors, dtype=np.int32)
    N, k = table.shape
    root = np.full(N, -1, dtype=np.int32)
    level = np.full(N, -1, dtype=np.int32)
    unseen = np.ones(N, dtype=bool)
    candidate = np.ones(N, dtype=bool)
    reach = np.empty(N, dtype=np.int32)  # the root of the last parent that reached a node
    batch = 1
    while (seeds := np.flatnonzero(candidate & unseen)[:batch]).size:
        several = len(seeds) > 1
        root[seeds], level[seeds], unseen[seeds] = seeds, 0, False
        frontier, reached, depth = seeds, [seeds], 0
        while frontier.size:
            depth += 1
            new = np.zeros(N, dtype=bool)
            for start in range(0, len(frontier), _ROW_BLOCK):  # a block of rows at a time
                block = frontier[start : start + _ROW_BLOCK]
                near = table[block].ravel()  # np.take would copy a face-major table whole
                if several:
                    reach[near] = np.repeat(root[block], k)
                new[near] = True
            frontier = np.flatnonzero(new & unseen)
            root[frontier] = reach[frontier] if several else seeds[0]
            level[frontier], unseen[frontier] = depth, False
            reached.append(frontier)
        nodes = np.concatenate(reached)
        candidate[nodes[len(seeds):]] = False  # each is larger than the seed that reached it
        if several:
            here, there = np.repeat(root[nodes], k), root[table[nodes].ravel()]
            clash = here != there  # an edge between two seeds' trees: one component
            candidate[np.maximum(here[clash], there[clash])] = False
            redo = nodes[np.isin(root[nodes], here[clash])]
            unseen[redo] = True
        grow = not (several and redo.size) and len(nodes) < 64 * len(seeds)
        batch = 2 * batch if grow else max(1, batch // 2)
    return root, level


def alternates(graph: FlipGraph, sign: np.ndarray) -> bool:
    """Whether every flip joins opposite signs: sign[adjacency[i, f]] ==
    -sign[i] for every node i and face f.  The table is read one face
    column at a time, contiguous in the face-major table, so the index
    copy that np.take makes is one column's, not the whole table's."""
    negated = -sign
    return all(np.array_equal(sign.take(partner), negated) for partner in graph.adjacency.T)


@dataclass
class OddCycleWitness:
    """An odd closed walk certifying that a graph is not two-colorable."""

    nodes: list

    def __len__(self):
        return len(self.nodes)


@dataclass
class TwoColoring:
    component: np.ndarray  # (N,) int32 component ids
    sign: np.ndarray  # (N,) int8 in {+1, -1}, BFS-relative
    parent: np.ndarray  # (N,) int32 BFS tree, -1 at seeds
    n_components: int
    seeds: list  # one node per component, ascending


def two_color(neighbors) -> Union[TwoColoring, OddCycleWitness]:
    """BFS 2-coloring of an undirected graph given as a neighbor table.

    `neighbors` may be an (N, k) integer array or a list of neighbor
    lists.  Returns the coloring, or an explicit odd cycle if any edge
    joins two nodes of the same BFS parity.  The flip-graph checks do
    not call it: it is the node-by-node reference for bfs_levels and
    for the witnesses that check_bipartite reads off it.
    """
    if isinstance(neighbors, np.ndarray):
        rows = neighbors.tolist()
    else:
        rows = [list(r) for r in neighbors]
    N = len(rows)
    component = np.full(N, -1, dtype=np.int32)
    sign = np.zeros(N, dtype=np.int8)
    parent = np.full(N, -1, dtype=np.int32)
    seeds = []
    for seed in range(N):
        if component[seed] >= 0:
            continue
        cid = len(seeds)
        seeds.append(seed)
        component[seed] = cid
        sign[seed] = 1
        queue = deque([seed])
        while queue:
            u = queue.popleft()
            su = int(sign[u])
            for v in rows[u]:
                if component[v] < 0:
                    component[v] = cid
                    sign[v] = -su
                    parent[v] = u
                    queue.append(v)
                elif sign[v] == su:
                    return OddCycleWitness(_odd_cycle(parent, u, v))
    return TwoColoring(component, sign, parent, len(seeds), seeds)


def _bfs_parents(graph: FlipGraph) -> np.ndarray:
    """A breadth-first tree of graph.levels: each node's partner one
    level up across the first face that has one, -1 at the level-0
    roots.  The table is read one face column at a time."""
    level = graph.levels[1]
    parent = np.full(len(level), -1, dtype=np.int32)
    for partner in graph.adjacency.T:
        take = (parent < 0) & (level.take(partner) == level - 1)
        parent[take] = partner[take]
    return parent


def _path_to_root(parent: np.ndarray, u: int) -> list:
    path = [u]
    while parent[path[-1]] >= 0:
        path.append(int(parent[path[-1]]))
    return path


def _odd_cycle(parent: np.ndarray, u: int, v: int) -> list:
    """Cycle closed by the edge (u, v) of two equal-parity BFS nodes:
    their lowest common ancestor down to u, then v up to below it."""
    pu, pv = _path_to_root(parent, u), _path_to_root(parent, v)
    while len(pu) > 1 and len(pv) > 1 and pu[-2] == pv[-2]:
        pu.pop()
        pv.pop()
    return pu[::-1] + pv[:-1]


def _tree_path(parent: np.ndarray, a: int, b: int) -> list:
    """Path between two nodes of one BFS tree, via their paths to the root."""
    pa, pb = _path_to_root(parent, a), _path_to_root(parent, b)
    sb = set(pb)
    meet = next(x for x in pa if x in sb)
    return pa[: pa.index(meet) + 1] + pb[: pb.index(meet)][::-1]


class SignatureTable:
    """Total sign map on a cycle-free homogeneous partition set.

    Built from a two-coloring of the flip graph, so every flip joins
    opposite signs; the overall orientation of each component is pinned
    by the anchors supplied at build time.
    """

    def __init__(self, pset: PartitionSet, signs: np.ndarray):
        self.pset = pset
        self.signs = np.ascontiguousarray(signs, dtype=np.int8)
        self.signs.setflags(write=False)

    @property
    def codes(self):
        return self.pset.codes

    @cached_property
    def diagram(self) -> SignedDiagram:
        """The signed set as a reduced decision diagram, which det_eval walks."""
        return SignedDiagram(self.pset.colors, self.codes, self.signs, self.pset.d)

    def signature(self, partition: EdgePartition) -> int:
        """Sign of a member partition; KeyError if it is not in the set."""
        return int(self.signs[self.pset.index_of(partition)])

    def class_sizes(self) -> tuple[int, int]:
        return int((self.signs > 0).sum()), int((self.signs < 0).sum())


def check_bipartite(
    graph: FlipGraph,
    anchors: Optional[Sequence[tuple[EdgePartition, int]]] = None,
) -> Union[SignatureTable, OddCycleWitness]:
    """Two-color the flip graph and orient it by the given anchors.

    Each anchor pins the sign of one partition.  Components holding no
    anchor default to +1 at their minimal-code node.  Two anchors in one
    component that disagree raise AnchorConflictError with the
    connecting path as a witness.
    """
    root, level = graph.levels
    sign = (1 - 2 * (level & 1)).astype(np.int8)  # +1 at the root, the BFS seed
    for partner in graph.adjacency.T:  # every flip must join opposite parities
        same = sign.take(partner) == sign
        if same.any():
            # levels are distances from the root, so this flip joins one
            # level, and the two tree paths close an odd cycle
            u = int(same.argmax())
            return OddCycleWitness(_odd_cycle(_bfs_parents(graph), u, int(partner[u])))
    flip_factor = np.zeros(len(root), dtype=np.int8)  # indexed by component root
    anchor_node = np.full(len(root), -1, dtype=np.int64)
    for partition, wanted in anchors or ():
        if wanted not in (+1, -1):
            raise ValueError(f"anchor sign must be +1 or -1, got {wanted}")
        i = graph.pset.index_of(partition)
        r = int(root[i])
        factor = wanted * int(sign[i])
        if flip_factor[r] == 0:
            flip_factor[r] = factor
            anchor_node[r] = i
        elif flip_factor[r] != factor:
            first = int(anchor_node[r])
            raise AnchorConflictError(first, i, _tree_path(_bfs_parents(graph), first, i))
    flip_factor[flip_factor == 0] = 1  # unanchored: seed node (minimal code) gets +1
    signs = (sign * flip_factor[root]).astype(np.int8)
    return SignatureTable(graph.pset, signs)


@dataclass
class ConnectivityReport:
    n_components: int
    representatives: list  # minimal-code EdgePartition per component


def check_connected(graph: FlipGraph) -> ConnectivityReport:
    """Component count of the flip graph plus one representative each.

    A single component means the flip group acts transitively.  The
    count is reported as measured, never assumed.
    """
    root = graph.levels[0]
    seeds = np.flatnonzero(root == np.arange(len(root)))
    return ConnectivityReport(len(seeds), [graph.pset.partition(int(i)) for i in seeds])


def standard_anchors(pset: PartitionSet) -> list[tuple[EdgePartition, int]]:
    """The conventional +1 anchors for a partition set.

    d = 3 pins all 19 reference orbit representatives at +1; other d pin
    the nested generator partition at +1 (for d = 2 that normalizes the
    two-color determinant to 1 on its generator input).
    """
    from . import algebra, catalog

    if pset.d == 3:
        return [(p, +1) for p in catalog.reference_partitions()]
    return [(algebra.unit_partition(pset.d), +1)]

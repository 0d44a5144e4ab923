"""Face flips on homogeneous cycle-free partitions and the flip graph.

Every homogeneous cycle-free d-partition of K_{2d} has, for each vertex
triple (x, y, z), a unique partner partition that agrees with it on all
edges off the face and differs on at least two of the three face edges.
The map to that partner is an involution ("flip").  A partner keeps the
multiset of the three face colors, because homogeneity only sees the
multiset, so it is another arrangement of them, and flip() tries exactly
those.  The graph builder groups the members, face by face, by their
coloring off the face and the multiset of their face colors, one int64
key each sorted once per face (_face_sweep), so a member's partners are
the other members of its group.  Nothing here takes the uniqueness on
faith: flip() demands exactly one cycle-free arrangement, and a group of
any size but two aborts the run loudly instead of being glossed over.
The certified pairs are the nonzero terms of the face relations, which
the full sweep of algebra.verify_relations sums pair by pair.

The graph with one node per partition and one edge per flip carries the
two certificates this package is built around:

* two-colorability: a global sign that every flip negates (the
  signature map; its existence is the bipartiteness of the flip graph);
* connectivity: when the involutions act transitively, the members are
  pairwise proportional in the quotient of the tensor space by the face
  relations.

The standard signature is not searched for: it is the sign of the
incidence determinant det M_P, read off the spanning-tree table
(trees.py).  One kernel, sign_failures, lists face by face the flips
that do not negate a given sign; an explicit sign with none is a
two-coloring, so the walk certifies bipartiteness, and a failure names
one (member, face).  The CLI's alternation check, check_bipartite and
the full relation sweep of algebra.verify_relations all read it.
Connectivity is read off a level-synchronous breadth-first search
(bfs_levels), one component at a time, which names each component by
its smallest node.

No certificate colors the graph.  check_bipartite, which two-colors it
from the same levels (a flip has to join levels of opposite parity),
and the node-by-node search two_color stay as the references the tree
signature and bfs_levels are tested against.  On an odd cycle both
raise OddCycleError with the cycle, which check_bipartite closes along
the parents that _bfs_parents reads off the levels.

Besides its (N, C(2d,3)) flip table, every step of the stage works in
O(N) scratch memory for N members.  The table is stored face-major, so
the face sweep writes each face's column in place, and the soundness
check, sign_failures and _bfs_parents read it one column at a time;
the sweep keeps two counts per face of the face edges its flips change;
each breadth-first round reads the rows of its frontier in blocks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

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

    def __init__(self, partition: EdgePartition, face, survivors):
        self.partition = partition
        self.face = tuple(face)
        self.survivors = survivors
        super().__init__(
            f"face {self.face} of partition code {partition.canonical_code()} "
            f"has {len(survivors)} admissible recolorings instead of 1"
        )

    def witness(self) -> dict:
        """The failed certificate's witness: the member, the face and the
        admissible recolorings, members by canonical code."""
        return {
            "property": "flip_uniqueness",
            "detail": str(self),
            "member": self.partition.canonical_code(),
            "face": list(self.face),
            "survivors": [q.canonical_code() for q in self.survivors],
        }


class OddCycleError(RuntimeError):
    """A closed walk of odd length in a graph that should be two-colorable.

    In the flip graph it means no signature exists: no sign map can
    negate under every flip around the cycle."""

    def __init__(self, nodes: list):
        self.nodes = nodes
        super().__init__(
            f"graph is not two-colorable; odd cycle of length {len(nodes)} through nodes {nodes}"
        )


def flip(partition: EdgePartition, face) -> EdgePartition:
    """The unique partner of `partition` across `face`.

    The candidates are the other arrangements of the three face colors,
    in lexicographic order, and the partner is the one that is
    cycle-free.  No other recoloring can be a partner: the edges off the
    face fix every class's count there, so a homogeneous recoloring
    keeps the face's color multiset; and two different arrangements of
    one multiset differ on at least two face edges.  Anything but one
    cycle-free arrangement raises FlipUniquenessError.
    """
    if not is_homogeneous(partition):
        raise ValueError("flip needs a homogeneous partition")
    if not is_cycle_free(partition):
        raise ValueError("flip needs a cycle-free partition")
    face = normalize_face(*face, partition.n)
    pos = face_edge_indices(face, partition.n)
    orig = tuple(partition.colors[k] for k in pos)
    survivors = []
    for arrangement in sorted(set(permutations(orig)) - {orig}):
        colors = list(partition.colors)
        colors[pos[0]], colors[pos[1]], colors[pos[2]] = arrangement
        q = EdgePartition(partition.d, partition.n, tuple(colors))
        if is_cycle_free(q):
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


def _face_sweep(pset: PartitionSet):
    """Flip partners of every (partition, face) pair, from the face keys.

    A member's key at a face is its coloring off the face (its code less
    the face part) shifted by 2d bits, or'ed with the multiset of its
    three face colors (one base-4 count digit per color), so the members
    of one key recolor one another on the face.  Keys are shifted past
    the index bits and or'ed with the member index, so one np.sort per
    face brings each group together in index order.  The code and index
    part is built once; per face, a d^3-entry table indexed by the face
    coloring t = (a d + b) d + c adds the rest, into the same two arrays.

    Returns (adjacency, diff_counts) where diff_counts[f] is the number
    of nodes whose flip across face f changes 2 and 3 face edges.
    Raises FlipUniquenessError, with the group's other members as the
    survivors, if any group does not have exactly two members.
    """
    d = pset.d
    faces = faces_of(pset.n)
    N = len(pset)
    bits = N.bit_length()
    if d ** len(pset.weights) << 2 * d + bits >= 2 ** 63:
        raise ValueError(f"face keys for d={d} and their member index exceed the 64-bit range")
    members = pset.codes << 2 * d + bits
    members |= np.arange(N)
    digits = np.indices((d, d, d)).reshape(3, -1)
    a, b, c = digits
    multiset = (1 << 2 * a) + (1 << 2 * b) + (1 << 2 * c)
    packed = np.empty(N, dtype=np.int64)
    t = np.empty(N, dtype=np.int32)
    adjacency = np.empty((len(faces), N), dtype=np.int32).T  # face-major
    diff_counts = np.empty((len(faces), 2), dtype=np.int64)
    # face edges on which two face colorings differ, indexed t_a * d^3 + t_b
    ndiff_of = (digits[:, :, None] != digits[:, None, :]).sum(axis=0, dtype=np.int8).ravel()
    for fi, face in enumerate(faces):
        pos = list(face_edge_indices(face, pset.n))
        w = pset.weights[pos]
        table = (-(a * w[0] + b * w[1] + c * w[2]) << 2 * d | multiset) << bits
        t[:] = pset.colors[:, pos[0]]
        for k in pos[1:]:
            t *= d
            t += pset.colors[:, k]
        np.take(table, t, out=packed, mode="clip")  # "clip" writes straight into out
        packed += members
        packed.sort()
        # every group is a pair: sorted keys agree within pairs, differ across them
        even, odd = packed[0::2] >> bits, packed[1::2] >> bits
        if N % 2 or np.any(even != odd) or np.any(odd[:-1] == even[1:]):
            keys, order = packed >> bits, packed & (1 << bits) - 1
            starts = np.flatnonzero(np.diff(keys, prepend=-1))
            sizes = np.diff(starts, append=N)
            g = int(np.flatnonzero(sizes != 2)[0])
            first, *others = order[starts[g] : starts[g] + sizes[g]]
            raise FlipUniquenessError(
                pset.partition(first), face, [pset.partition(j) for j in others]
            )
        del even, odd  # freed before the column writes
        packed &= (1 << bits) - 1  # the members in key order
        i, j = packed[0::2], packed[1::2]
        partner = adjacency[:, fi]  # a contiguous column
        partner[i], partner[j] = j, i
        pair_ndiff = ndiff_of[t[i] * d ** 3 + t[j]]
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
    from it.  Each round searches one component, from the smallest node
    not reached yet, which is that component's smallest node.
    """
    table = np.asarray(neighbors, dtype=np.int32)
    N = len(table)
    root = np.full(N, -1, dtype=np.int32)
    level = np.full(N, -1, dtype=np.int32)
    unseen = np.ones(N + 1, dtype=bool)  # the sentinel at N ends the search
    while (seed := int(unseen.argmax())) < N:
        root[seed], level[seed], unseen[seed] = seed, 0, False
        frontier, depth = np.array([seed]), 0
        while frontier.size:
            depth += 1
            new = np.zeros(N + 1, dtype=bool)
            for start in range(0, len(frontier), _ROW_BLOCK):  # a block of rows at a time
                # np.take would copy a face-major table whole
                new[table[frontier[start : start + _ROW_BLOCK]].ravel()] = True
            frontier = np.flatnonzero(new & unseen)
            root[frontier], level[frontier], unseen[frontier] = seed, depth, False
    return root, level


def sign_failures(graph: FlipGraph, sign: np.ndarray):
    """Yield (f, rows) for each face number f in order: rows lists, in
    ascending order, the nodes i with sign[adjacency[i, f]] != -sign[i],
    whose flip across face f does not negate the sign.  When no face has
    any, sign is a two-coloring.  The table is read one face column
    at a time, contiguous in the face-major table, so the index copy
    that np.take makes is one column's, not the whole table's."""
    negated = -sign
    for f, partner in enumerate(graph.adjacency.T):
        yield f, np.flatnonzero(sign.take(partner) != negated)


@dataclass
class TwoColoring:
    component: np.ndarray  # (N,) int32 component ids
    sign: np.ndarray  # (N,) int8 in {+1, -1}, BFS-relative
    parent: np.ndarray  # (N,) int32 BFS tree, -1 at seeds
    n_components: int
    seeds: list  # one node per component, ascending


def two_color(neighbors) -> TwoColoring:
    """BFS 2-coloring of an undirected graph given as a neighbor table.

    `neighbors` may be an (N, k) integer array or a list of neighbor
    lists.  Returns the coloring, or raises OddCycleError with an
    explicit odd cycle if any edge joins two nodes of the same BFS
    parity.  The flip-graph checks do not call it: it is the node-by-node
    reference for bfs_levels and for the witnesses that check_bipartite
    reads off it.
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
                    raise OddCycleError(_odd_cycle(parent, u, v))
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


class SignatureTable:
    """Total sign map on a cycle-free homogeneous partition set, one
    int8 sign per member: the tree-determinant signature of
    context.standard_context, or check_bipartite's two-coloring of the
    flip graph."""

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


def check_bipartite(graph: FlipGraph) -> SignatureTable:
    """Two-color the flip graph by the parity of its levels, +1 at each
    component's root (its minimal-code node).  A flip joining two nodes
    of one parity raises OddCycleError with the odd cycle.
    """
    sign = (1 - 2 * (graph.levels[1] & 1)).astype(np.int8)
    for f, rows in sign_failures(graph, sign):  # every flip must join opposite parities
        if rows.size:
            # levels are distances from the root, so this flip joins one
            # level, and the two tree paths close an odd cycle
            u = int(rows[0])
            raise OddCycleError(_odd_cycle(_bfs_parents(graph), u, int(graph.adjacency[u, f])))
    return SignatureTable(graph.pset, sign)


@dataclass
class ConnectivityReport:
    n_components: int


def check_connected(graph: FlipGraph) -> ConnectivityReport:
    """Component count of the flip graph.

    A single component means the flip group acts transitively.  The
    count is reported as measured, never assumed.
    """
    root = graph.levels[0]
    return ConnectivityReport(int(np.count_nonzero(root == np.arange(len(root)))))

import time

import numpy as np
import pytest

import helpers
from treedet.catalog import BASE_PARTITION_D2, reference_partition
from treedet.enumeration import PartitionSet
from treedet.flips import (
    AnchorConflictError,
    FlipGraph,
    FlipUniquenessError,
    OddCycleWitness,
    alternates,
    bfs_levels,
    build_flip_graph,
    check_bipartite,
    check_connected,
    flip,
    standard_anchors,
    two_color,
    verify_flip_soundness,
)
from treedet.model import EdgePartition, component_count, face_edge_indices, faces_of

from test_model import FIG_CYCLIC, FIG_GOOD


def test_flip_example_against_oracle():
    flipped = flip(FIG_GOOD, (1, 2, 3))
    expected = EdgePartition.from_classes(
        2, 4, [{(1, 3), (1, 4), (2, 3)}, {(1, 2), (2, 4), (3, 4)}]
    )
    assert flipped == expected
    # independent re-derivation from scratch
    oracle = helpers.oracle_flip_d2(FIG_GOOD.colors, (1, 2, 3))
    assert flipped.colors == oracle


def test_flip_oracle_agreement_d2_exhaustive(ctx2):
    for i, member in enumerate(ctx2.pset):
        for face in faces_of(4):
            lib = flip(member, face)
            assert lib.colors == helpers.oracle_flip_d2(member.colors, face)
            assert ctx2.graph.neighbor(i, face) == ctx2.pset.index_of(lib)


def test_flip_requires_valid_input():
    with pytest.raises(ValueError):
        flip(FIG_CYCLIC, (1, 2, 3))
    with pytest.raises(ValueError):
        flip(FIG_GOOD, (1, 2, 2))


def test_flip_is_involution_without_fixed_points_d2(ctx2):
    for member in ctx2.pset:
        for face in faces_of(4):
            other = flip(member, face)
            assert other != member
            ndiff = sum(1 for a, b in zip(other.colors, member.colors) if a != b)
            assert ndiff in (2, 3)
            assert flip(other, face) == member


def test_flip_matches_graph_on_d3_samples(ctx3):
    rng = np.random.default_rng(11)
    for _ in range(25):
        i = int(rng.integers(len(ctx3.pset)))
        face = faces_of(6)[int(rng.integers(20))]
        lib = flip(ctx3.pset.partition(i), face)
        assert ctx3.pset.index_of(lib) == ctx3.graph.neighbor(i, face)


def test_graph_shapes(ctx2, ctx3):
    assert ctx2.graph.adjacency.shape == (12, 4)
    assert ctx3.graph.adjacency.shape == (66240, 20)


def test_flip_table_is_face_major(ctx3):
    # the sweep writes, and the soundness and relation checks read, one contiguous column per face
    assert ctx3.graph.adjacency.flags.f_contiguous


@pytest.mark.parametrize("d", [1, 2, 3])
def test_face_sweep_equals_candidate_oracle(d, ctx2, ctx3):
    from treedet.context import standard_context

    graph = {1: standard_context(1), 2: ctx2, 3: ctx3}[d].graph
    adjacency, diff_counts = helpers.candidate_face_sweep(graph.pset)
    assert graph.adjacency.dtype == adjacency.dtype
    assert graph.adjacency.tobytes() == adjacency.tobytes()
    per_face = np.stack([(diff_counts == 2).sum(axis=0), (diff_counts == 3).sum(axis=0)], axis=1)
    assert graph.diff_counts.dtype == np.int64 and np.array_equal(graph.diff_counts, per_face)


def _same_group(a: EdgePartition, b: EdgePartition, face) -> bool:
    pos = face_edge_indices(face, a.n)
    off = [k for k in range(len(a.colors)) if k not in pos]
    return [a.colors[k] for k in off] == [b.colors[k] for k in off] and sorted(
        a.colors[k] for k in pos
    ) == sorted(b.colors[k] for k in pos)


def test_missing_member_is_a_uniqueness_failure(ctx2):
    # the partner of the missing row is left alone in its group
    pset = PartitionSet(2, 4, ctx2.pset.colors[1:], cycle_free=True)
    with pytest.raises(FlipUniquenessError) as err:
        build_flip_graph(pset)
    exc = err.value
    assert exc.survivors == []
    assert pset.contains(exc.partition)
    assert flip(exc.partition, exc.face) == ctx2.pset.partition(0)


def test_crowded_group_is_a_uniqueness_failure(ctx2):
    # a cyclic member (class 0 is the triangle 234) joins a flip pair's group on face 123
    cyclic = (1, 1, 1, 0, 0, 0)
    rows = sorted([tuple(int(c) for c in row) for row in ctx2.pset.colors] + [cyclic])
    pset = PartitionSet(2, 4, np.array(rows), cycle_free=True)
    with pytest.raises(FlipUniquenessError) as err:
        build_flip_graph(pset)
    exc = err.value
    assert exc.face == (1, 2, 3) and len(exc.survivors) == 2
    group = [exc.partition] + exc.survivors
    assert EdgePartition(2, 4, cyclic) in group
    for other in exc.survivors:
        assert other != exc.partition and pset.contains(other)
        assert _same_group(other, exc.partition, exc.face)


def test_group_of_four_is_a_uniqueness_failure(ctx3):
    # two more arrangements of a three-color face multiset join a flip pair's
    # group on the first face: the keys pair up, but the pairs share a key
    from itertools import permutations

    face = (1, 2, 3)
    pos = list(face_edge_indices(face, 6))
    colors = ctx3.pset.colors
    i = next(i for i in range(len(colors)) if len(set(colors[i, pos])) == 3)
    pair = {tuple(colors[i]), tuple(colors[ctx3.graph.neighbor(i, face)])}
    extra = []
    for arrangement in permutations(colors[i, pos]):
        row = colors[i].copy()
        row[pos] = arrangement
        if tuple(row) not in pair:
            extra.append(row)
    rows = np.concatenate([colors, extra[:2]])
    rows = rows[np.argsort(rows.astype(np.int64) @ ctx3.pset.weights)]
    with pytest.raises(FlipUniquenessError) as err:
        build_flip_graph(PartitionSet(3, 6, rows, cycle_free=True))
    exc = err.value
    assert exc.face == face and len(exc.survivors) == 3
    group = [exc.partition] + exc.survivors
    assert {p.colors for p in group} == pair | {tuple(int(c) for c in r) for r in extra[:2]}
    assert [p.canonical_code() for p in group] == sorted(p.canonical_code() for p in group)


def test_flip_soundness_report_d2(ctx2):
    report = verify_flip_soundness(ctx2.graph)
    assert report.ok
    assert report.pairs_checked == 12 * 4
    assert report.diff_two + report.diff_three == report.pairs_checked


@pytest.mark.parametrize("d", [2, 3])
def test_flip_soundness_equals_the_strided_column_oracle(ctx2, ctx3, d):
    graph = {2: ctx2, 3: ctx3}[d].graph
    diff_table = helpers.candidate_face_sweep(graph.pset)[1]
    swapped = graph.adjacency.copy()  # nodes 0 and 1 trade partners: no longer an involution
    swapped[[0, 1], -1] = swapped[[1, 0], -1]
    looped = graph.adjacency.copy()
    looped[5, 3] = 5
    for adjacency, sound in ((graph.adjacency, True), (swapped, False), (looped, False)):
        report = verify_flip_soundness(FlipGraph(graph.pset, adjacency, graph.diff_counts))
        assert report == helpers.strided_flip_soundness(adjacency, diff_table)
        assert report.ok == sound


def test_bipartite_d2(ctx2):
    assert ctx2.signature.class_sizes() == (6, 6)
    # every flip edge joins opposite signs
    signs = ctx2.signature.signs
    assert np.all(signs[ctx2.graph.adjacency] == -signs[:, None])


def test_connected_d2(ctx2):
    report = check_connected(ctx2.graph)
    assert report.n_components == 1


def test_two_coloring_against_independent_bfs_d2(ctx2):
    # rebuild the 12-node flip graph from the from-scratch oracle and
    # two-color it independently, then compare class sizes
    nodes = helpers.oracle_enumerate_d2()
    index = {c: i for i, c in enumerate(nodes)}
    adj = [
        [index[helpers.oracle_flip_d2(c, face)] for face in faces_of(4)] for c in nodes
    ]
    sign = {0: +1}
    queue = [0]
    while queue:
        u = queue.pop()
        for v in adj[u]:
            if v not in sign:
                sign[v] = -sign[u]
                queue.append(v)
            else:
                assert sign[v] == -sign[u]
    plus = sum(1 for s in sign.values() if s > 0)
    assert {plus, len(nodes) - plus} == set(ctx2.signature.class_sizes())


def test_triangle_graph_is_rejected(ctx2):
    triangle = [[1, 2], [0, 2], [0, 1]]
    result = two_color(triangle)
    assert isinstance(result, OddCycleWitness)
    assert sorted(result.nodes) == [0, 1, 2]
    # the kernel detects the odd cycle, the BFS then extracts it
    pset = PartitionSet(2, 4, ctx2.pset.colors[:3], cycle_free=True)
    graph = FlipGraph(pset, np.array(triangle, dtype=np.int32), np.full((3, 2), 2, dtype=np.int8))
    result = check_bipartite(graph)
    assert isinstance(result, OddCycleWitness)
    assert sorted(result.nodes) == [0, 1, 2]


def test_odd_cycle_witness_is_a_closed_odd_walk():
    # a 5-cycle with a pendant path: the witness must be the 5-cycle itself
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 5), (5, 6)]
    rows = [[] for _ in range(7)]
    for a, b in edges:
        rows[a].append(b)
        rows[b].append(a)
    result = two_color(rows)
    assert isinstance(result, OddCycleWitness)
    cycle = result.nodes
    assert len(cycle) == 5 and len(set(cycle)) == 5
    assert all(b in rows[a] for a, b in zip(cycle, cycle[1:] + cycle[:1]))


def test_anchor_conflict_raises(ctx2):
    anchors = [(BASE_PARTITION_D2, +1), (flip(BASE_PARTITION_D2, (1, 2, 3)), +1)]
    with pytest.raises(AnchorConflictError) as err:
        check_bipartite(ctx2.graph, anchors)
    path = err.value.path
    assert path[0] == err.value.first and path[-1] == err.value.second
    adjacency = ctx2.graph.adjacency
    assert all(b in adjacency[a] for a, b in zip(path, path[1:]))


def _is_flip_walk(adjacency, nodes, closed):
    steps = zip(nodes, nodes[1:] + nodes[:1] if closed else nodes[1:])
    return all(b in adjacency[a] for a, b in steps)


def test_same_level_flip_gives_an_odd_cycle_d3(ctx3):
    # swap two face-0 pairs (a, b), (c, e) with a and c on one level into (a, c), (b, e)
    adjacency = ctx3.graph.adjacency.copy(order="F")
    level = ctx3.graph.levels[1]
    a, c = np.flatnonzero(level == 3)[:2]
    column = adjacency[:, 0]
    b, e = column[a], column[c]
    column[[a, c, b, e]] = c, a, e, b
    graph = FlipGraph(ctx3.pset, adjacency, ctx3.graph.diff_counts)
    witness = check_bipartite(graph, standard_anchors(ctx3.pset))
    assert isinstance(witness, OddCycleWitness)
    assert len(witness) % 2 == 1 and len(set(witness.nodes)) == len(witness)
    assert _is_flip_walk(adjacency, witness.nodes, closed=True)
    assert isinstance(two_color(adjacency), OddCycleWitness)


def test_anchor_conflict_path_follows_flips_d3(ctx3):
    # a member and its flip partner, both pinned at +1; across face 3 the
    # partner is no tree neighbour and the path runs through the root
    pset, adjacency = ctx3.pset, ctx3.graph.adjacency
    member = 1000
    for face, length in ((0, 2), (3, 10)):
        partner = int(adjacency[member, face])
        with pytest.raises(AnchorConflictError) as err:
            check_bipartite(ctx3.graph, [(pset.partition(i), +1) for i in (member, partner)])
        path = err.value.path
        assert (path[0], path[-1]) == (err.value.first, err.value.second) == (member, partner)
        assert len(path) == length and len(set(path)) == length
        assert _is_flip_walk(adjacency, path, closed=False)
    assert not isinstance(two_color(adjacency), OddCycleWitness)


@pytest.mark.parametrize("d", [2, 3])
def test_kernel_signs_equal_bfs_signs(d, ctx2, ctx3):
    graph = {2: ctx2, 3: ctx3}[d].graph
    bfs = two_color(graph.adjacency)
    table = check_bipartite(graph)  # no anchors: +1 at each component's minimal node
    assert table.signs.tobytes() == bfs.sign.tobytes()
    assert check_connected(graph).n_components == bfs.n_components == 1


def test_components_kernel_against_bfs_on_random_tables():
    rng = np.random.default_rng(8)
    for N, k in ((1, 0), (5, 0), (7, 1), (40, 2), (200, 3)):
        table = rng.integers(0, N, size=(N, k))  # each edge listed from one end
        undirected = [[] for _ in range(N)]
        for i, row in enumerate(table):
            for j in row:
                undirected[i].append(int(j))
                undirected[int(j)].append(i)
        expected = np.zeros(N, dtype=np.int32)
        seen = set()
        for seed in range(N):  # search from each unvisited node, in index order
            if seed in seen:
                continue
            queue, seen = [seed], seen | {seed}
            while queue:
                u = queue.pop()
                expected[u] = seed
                for v in undirected[u]:
                    if v not in seen:
                        seen.add(v)
                        queue.append(v)
        labels = helpers.hooking_components(table)
        assert labels.dtype == np.int32
        assert np.array_equal(labels, expected)


def test_opposite_anchors_are_consistent(ctx2):
    anchors = [(BASE_PARTITION_D2, +1), (flip(BASE_PARTITION_D2, (1, 2, 3)), -1)]
    table = check_bipartite(ctx2.graph, anchors)
    assert table.signature(BASE_PARTITION_D2) == +1


def test_signature_examples(ctx2, ctx3):
    p1 = reference_partition(1)
    assert ctx3.signature.signature(p1) == +1
    assert ctx3.signature.signature(flip(p1, (1, 2, 3))) == -1
    assert ctx2.signature.signature(BASE_PARTITION_D2) == +1


def test_signature_rejects_unknown_partition(ctx2):
    with pytest.raises(KeyError):
        ctx2.signature.signature(FIG_CYCLIC)
    with pytest.raises(ValueError):
        ctx2.signature.signature(EdgePartition(3, 6, (0,) * 15))


def test_single_node_graph_connectivity():
    from treedet.context import standard_context

    ctx1 = standard_context(1)
    assert len(ctx1.pset) == 1
    assert ctx1.graph.adjacency.shape == (1, 0)  # K_2 has no faces
    assert np.array_equal(helpers.hooking_components(ctx1.graph.adjacency), [0])
    report = check_connected(ctx1.graph)
    assert report.n_components == 1
    assert ctx1.signature.class_sizes() == (1, 0)


def test_classes_are_spanning_trees(ctx3):
    # homogeneous + cycle-free forces every class to be connected and
    # spanning: check exhaustively at d = 2 and on samples at d = 3
    from treedet.context import standard_context

    for member in standard_context(2).pset:
        for cls in member.color_classes():
            assert component_count(cls, 4) == 1
    rng = np.random.default_rng(5)
    for i in rng.integers(0, len(ctx3.pset), size=50):
        for cls in ctx3.pset.partition(int(i)).color_classes():
            assert component_count(cls, 6) == 1


def _random_symmetric_table(rng, N, edges):
    """A symmetric (N, k) neighbor table of `edges` random edges (self-loops
    and repeated edges included), each row padded with self-loops."""
    rows = [[] for _ in range(N)]
    for a, b in rng.integers(0, N, size=(edges, 2)):
        rows[a].append(int(b))
        if a != b:
            rows[b].append(int(a))
    k = max((len(r) for r in rows), default=0)
    padded = [r + [i] * (k - len(r)) for i, r in enumerate(rows)]
    return np.array(padded, dtype=np.int64).reshape(N, k)


def _python_bfs(table):
    """(root, level) by a queue-based search from each unvisited node in index order."""
    N = len(table)
    root, level = [-1] * N, [-1] * N
    for seed in range(N):
        if root[seed] >= 0:
            continue
        root[seed], level[seed], queue = seed, 0, [seed]
        for u in queue:
            for v in table[u]:
                if root[v] < 0:
                    root[v], level[v] = seed, level[u] + 1
                    queue.append(int(v))
    return root, level


@pytest.mark.parametrize("N, edges", [(0, 0), (1, 0), (6, 2), (40, 25), (300, 280), (2000, 1200)])
def test_bfs_levels_against_hooking_and_python_bfs(N, edges):
    # sparse random graphs leave isolated nodes and many small components
    rng = np.random.default_rng(N + edges)
    for _ in range(3):
        table = _random_symmetric_table(rng, N, edges)
        root, level = bfs_levels(table)
        assert root.dtype == level.dtype == np.int32
        assert np.array_equal(root, helpers.hooking_components(table))
        assert [root.tolist(), level.tolist()] == list(_python_bfs(table))


def test_bfs_levels_on_a_wide_empty_table():
    root, level = bfs_levels(np.zeros((5, 0), dtype=np.int32))
    assert root.tolist() == [0, 1, 2, 3, 4] and level.tolist() == [0] * 5


def test_bfs_levels_many_two_node_components_under_a_second():
    rng = np.random.default_rng(20000)
    order = rng.permutation(20000)
    partner = np.empty(20000, dtype=np.int64)
    partner[order[0::2]], partner[order[1::2]] = order[1::2], order[0::2]
    t0 = time.perf_counter()
    root, level = bfs_levels(partner[:, None])
    elapsed = time.perf_counter() - t0
    ids = np.arange(20000)
    assert np.array_equal(root, np.minimum(ids, partner))
    assert np.array_equal(level, (partner < ids).astype(np.int32))
    assert elapsed < 1.0, elapsed


@pytest.mark.parametrize("d", [1, 2, 3])
def test_level_signature_equals_the_cover_oracle(d, ctx2, ctx3):
    from treedet.context import standard_context

    graph = {1: standard_context(1), 2: ctx2, 3: ctx3}[d].graph
    anchors = standard_anchors(graph.pset)
    table = check_bipartite(graph, anchors)
    assert table.signs.tobytes() == helpers.cover_check_bipartite(graph, anchors).signs.tobytes()
    cover_roots = helpers.hooking_components(graph.adjacency)
    assert np.array_equal(graph.levels[0], cover_roots)
    assert check_connected(graph).n_components == len(np.unique(cover_roots))


def test_failed_two_colorings_equal_the_cover_oracle(ctx2):
    triangle = np.array([[1, 2], [0, 2], [0, 1]], dtype=np.int32)
    pset = PartitionSet(2, 4, ctx2.pset.colors[:3], cycle_free=True)
    graph = FlipGraph(pset, triangle, np.full((3, 2), 2, dtype=np.int8))
    assert check_bipartite(graph).nodes == helpers.cover_check_bipartite(graph).nodes
    anchors = [(BASE_PARTITION_D2, +1), (flip(BASE_PARTITION_D2, (1, 2, 3)), +1)]
    errors = []
    for check in (check_bipartite, helpers.cover_check_bipartite):
        with pytest.raises(AnchorConflictError) as err:
            check(ctx2.graph, anchors)
        errors.append((err.value.first, err.value.second, err.value.path))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("row", [0, 4095, 4096, 66239])
def test_alternates_equals_the_whole_table_check(ctx3, row):
    # one bad sign on either side of the first block boundary, or in the last row
    graph, signs = ctx3.graph, ctx3.signature.signs
    assert alternates(graph, signs)
    for value in (-signs[row], 0):
        tampered = signs.copy()
        tampered[row] = value
        whole = bool((tampered[graph.adjacency] == -tampered[:, None]).all())
        assert not whole and not alternates(graph, tampered)

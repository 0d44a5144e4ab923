import json
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import helpers
from treedet import algebra, trees
from treedet.enumeration import PartitionSet
from treedet.flips import check_bipartite, flip
from treedet.model import EdgePartition, edge_count, edge_list, faces_of

from test_cli import run


def incidence_determinant(n, mask):
    """det B(T) by exact elimination: rows are the vertices 2..n, columns
    the tree's edges (i, j) in edge order, +1 at i and -1 at j."""
    edges = [e for k, e in enumerate(edge_list(n)) if mask >> k & 1]
    rows = [[(v == i) - (v == j) for (i, j) in edges] for v in range(2, n + 1)]
    return algebra.matrix_determinant(rows)


def member_determinant(partition):
    """det M_P by exact elimination: a row per (color c, vertex v), v = 2..n,
    and per edge (i, j) of color c a column with +1 at (c, i), -1 at (c, j)."""
    n, colors = partition.n, partition.colors
    rows = [
        [(c == colors[k]) * ((v == i) - (v == j)) for k, (i, j) in enumerate(edge_list(n))]
        for c in range(partition.d)
        for v in range(2, n + 1)
    ]
    return algebra.matrix_determinant(rows)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_tree_table_lists_every_spanning_tree_once(n):
    table = trees.tree_table(n)
    assert len(table.masks) == len(table.signs) == n ** (n - 2)  # Cayley
    assert table.masks.dtype == np.int64 and table.signs.dtype == np.int8
    assert np.all(np.diff(table.masks) > 0)
    ones = sum((table.masks >> k) & 1 for k in range(edge_count(n)))
    assert np.all(ones == n - 1)
    if n <= 6:  # the n - 1 edge masks that the subset table calls acyclic
        acyclic = helpers.acyclic_mask_table(n)
        every = np.arange(len(acyclic))
        popcount = sum((every >> k) & 1 for k in range(edge_count(n)))
        assert table.masks.tobytes() == np.flatnonzero(acyclic & (popcount == n - 1)).tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_tree_signs_are_exact_incidence_determinants(n):
    table = trees.tree_table(n)
    picks = range(len(table.masks)) if n <= 6 else random.Random(7).sample(range(len(table.masks)), 200)
    for i in picks:
        assert incidence_determinant(n, int(table.masks[i])) == table.signs[i], (n, i)


def test_tree_table_refuses_n_outside_its_range():
    for n in (1, trees.MAX_TREE_N + 1):
        with pytest.raises(ValueError):
            trees.tree_table(n)
    with pytest.raises(ValueError, match="2\\^28 entries"):
        trees.signs_by_mask(8)


@pytest.mark.parametrize("d, unit_sign", [(1, -1), (2, -1), (3, +1)])
def test_tree_signature_is_the_anchored_two_coloring(d, unit_sign, ctx2, ctx3):
    from treedet.context import standard_context

    ctx = {2: ctx2, 3: ctx3}.get(d) or standard_context(1)
    signs = trees.tree_signs(ctx.pset)
    unit = algebra.unit_partition(d)
    assert signs[ctx.pset.index_of(unit)] == member_determinant(unit) == unit_sign  # D(unit)
    parity = check_bipartite(ctx.graph).signs
    anchored = parity * parity[ctx.pset.index_of(unit)]  # +1 at the unit partition
    assert (signs * unit_sign).tobytes() == anchored.tobytes()
    assert ctx.signature.signs.tobytes() == anchored.tobytes()
    for i in random.Random(d).sample(range(len(ctx.pset)), min(60, len(ctx.pset))):
        assert member_determinant(ctx.pset.partition(i)) == signs[i]


def test_tree_signs_refuse_a_class_that_is_no_tree():
    cyclic = EdgePartition.from_classes(2, 4, [{(1, 2), (1, 3), (2, 3)}, {(1, 4), (2, 4), (3, 4)}])
    pset = PartitionSet(2, 4, np.array([cyclic.colors]), cycle_free=True)
    with pytest.raises(ValueError, match="not a spanning tree"):
        trees.tree_signs(pset)


int64_lists = st.lists(st.integers(-(2 ** 63), 2 ** 63 - 1), min_size=1, max_size=40)
BIT_63_CASES = [0, 1, -1, -(2 ** 63), 2 ** 63 - 1, -(2 ** 62), 2 ** 62]


def popcount(x):
    return bin(x & (2 ** 64 - 1)).count("1")


@settings(max_examples=200, deadline=None)
@given(values=int64_lists)
@example(values=BIT_63_CASES)
def test_parity_is_the_popcount_parity(values):
    got = trees._parity(np.array(values, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == [popcount(x) & 1 for x in values]


@settings(max_examples=200, deadline=None)
@given(values=int64_lists)
@example(values=BIT_63_CASES)
def test_prefix_xor_holds_the_parity_of_the_bits_below(values):
    got = trees._prefix_xor(np.array(values, dtype=np.int64)).tolist()
    for x, y in zip(values, got):
        assert [y >> k & 1 for k in range(64)] == [popcount(x & (1 << k) - 1) & 1 for k in range(64)], x


@pytest.mark.parametrize("d", [2, 3])
def test_member_sign_is_the_signature_of_each_member(d, ctx2, ctx3):
    ctx = {2: ctx2, 3: ctx3}[d]
    unit = trees.member_sign(algebra.unit_partition(d))
    picks = range(len(ctx.pset)) if d == 2 else random.Random(3).sample(range(len(ctx.pset)), 3000)
    for i in picks:
        assert trees.member_sign(ctx.pset.partition(i)) * unit == ctx.signature.signs[i], (d, i)


def test_member_sign_of_the_generator_partitions():
    # D(unit) for d = 1..6; the exact determinant is checked up to d = 4
    signs = [trees.member_sign(algebra.unit_partition(d)) for d in range(1, 7)]
    assert signs == [-1, -1, +1, +1, -1, -1]
    for d in range(1, 5):
        assert member_determinant(algebra.unit_partition(d)) == signs[d - 1], d


def test_member_sign_negates_under_every_d4_flip():
    unit = algebra.unit_partition(4)
    sign = trees.member_sign(unit)
    faces = faces_of(8)
    assert len(faces) == 56
    for face in faces:
        assert trees.member_sign(flip(unit, face)) == -sign, face


def test_member_sign_refuses_a_class_that_is_no_spanning_tree():
    # a triangle through vertex 1 or away from it, the other class a star;
    # and one class holding every edge, the other none
    for classes in (
        [{(1, 2), (1, 3), (2, 3)}, {(1, 4), (2, 4), (3, 4)}],
        [{(2, 3), (2, 4), (3, 4)}, {(1, 2), (1, 3), (1, 4)}],
    ):
        with pytest.raises(ValueError, match="not a spanning tree"):
            trees.member_sign(EdgePartition.from_classes(2, 4, classes))
    with pytest.raises(ValueError, match="class 0 is not a spanning tree"):
        trees.member_sign(EdgePartition(2, 4, (0,) * 6))


def test_det_signature_and_appendix_build_no_flip_graph(capsys, monkeypatch, tmp_path):
    import treedet.context

    def no_graph(pset):
        raise AssertionError("the flip graph was built")

    monkeypatch.setattr(treedet.context, "_contexts", {})
    monkeypatch.setattr(treedet.context, "build_flip_graph", no_graph)
    ctx = treedet.context.standard_context(3)
    assert "graph" not in vars(ctx) and ctx.signature.class_sizes() == (33120, 33120)
    tensor = tmp_path / "gen.json"
    tensor.write_text(json.dumps(algebra.tensor_to_json(algebra.unit_tensor(3), 3, 6)))
    partition = tmp_path / "unit.json"
    partition.write_text(json.dumps(algebra.unit_partition(3).to_json_dict()))
    for argv, printed in (
        (["det", "--input", str(tensor)], "1\n"),
        (["signature", "--partition", str(partition)], "+1\n"),
    ):
        assert run(capsys, argv) == (0, printed, "")
    code, out, err = run(capsys, ["verify-appendix"])
    assert code == 0 and err == "" and json.loads(out)["numbers"]["references_positive"] == 19
    with pytest.raises(AssertionError, match="the flip graph was built"):
        ctx.graph


def _tree_in_use(pset):
    """(k, holds): the first tree k of tree_table(2d) that is a class of
    some member but of no class of the generator, and whether each member
    holds it."""
    bits = 1 << np.arange(pset.colors.shape[1])
    classes = ((pset.colors[:, None, :] == np.arange(pset.d)[:, None]) * bits).sum(axis=2)
    unit = classes[pset.index_of(algebra.unit_partition(pset.d))]
    masks = trees.tree_table(pset.n).masks
    k = next(k for k, mask in enumerate(masks) if mask in classes and mask not in unit)
    return k, (classes == masks[k]).any(axis=1)


def _tampered_table(monkeypatch, n, change):
    """Patch trees.tree_table(n) with change applied to a copy of its
    (masks, signs), and drop the cached contexts built on the real one."""
    import treedet.context

    real = trees.tree_table
    masks, signs = (a.copy() for a in real(n))
    tampered = trees.TreeTable(*change(masks, signs))
    monkeypatch.setattr(trees, "tree_table", lambda m: tampered if m == n else real(m))
    monkeypatch.setattr(treedet.context, "_contexts", {})


@pytest.mark.parametrize("d", [2, 3])
def test_a_negated_tree_sign_fails_the_alternation_stage(capsys, monkeypatch, d):
    from treedet.context import standard_context

    real = standard_context(d)
    tree, holds = _tree_in_use(real.pset)

    def negate(masks, signs):
        signs[tree] *= -1
        return masks, signs

    _tampered_table(monkeypatch, 2 * d, negate)
    code, out, err = run(capsys, ["certify-all", "--d", str(d), "--seed", "7"])
    assert code == 1 and err == ""
    certs = {c["command"]: c for c in map(json.loads, out.splitlines())}
    bipartite = certs["certify-all/bipartite-connected"]
    # the members holding the tree changed sign, and the first flip from
    # one of them to a member without it is the witness
    signs = np.where(holds, -real.signature.signs, real.signature.signs)
    adjacency = real.graph.adjacency
    i, f = np.argwhere(signs[adjacency] != -signs[:, None])[0]
    j = adjacency[i, f]
    assert holds[i] != holds[j]
    assert bipartite["witnesses"] == [
        {
            "property": "signature_alternation",
            "member": int(real.pset.codes[i]),
            "face": list(real.graph.faces[f]),
            "partner": int(real.pset.codes[j]),
            "member_sign": int(signs[i]),
            "partner_sign": int(signs[j]),
        }
    ]


def test_a_dropped_tree_fails_the_d3_count_certificate(capsys, monkeypatch):
    from treedet.context import standard_context

    tree, holds = _tree_in_use(standard_context(3).pset)
    lost = int(holds.sum())
    _tampered_table(monkeypatch, 6, lambda masks, signs: (np.delete(masks, tree), np.delete(signs, tree)))
    code, out, err = run(capsys, ["certify-all", "--d", "3", "--seed", "7"])
    assert code == 1 and err == ""
    counts, flips = map(json.loads, out.splitlines())
    assert counts["command"] == "certify-all/enumerate" and counts["outcome"] == "fail"
    assert counts["numbers"] == {"homogeneous": 756756, "cycle_free": 66240 - lost}
    assert counts["witnesses"] == [{"property": "enumeration_counts", "expected": [756756, 66240]}]
    # the members left over have flips with no partner
    assert [w["property"] for w in flips["witnesses"]] == ["flip_uniqueness"]

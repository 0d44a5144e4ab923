import pytest
from hypothesis import given, strategies as st

import helpers
from treedet.model import (
    NOT_TREE,
    EdgePartition,
    acyclic_mask_table,
    classify_tree,
    component_count,
    edge_count,
    edge_index,
    edge_list,
    is_cycle_free,
    is_homogeneous,
)

# the running d = 2 examples on K_4
FIG_GOOD = EdgePartition.from_classes(2, 4, [{(1, 2), (1, 4), (2, 3)}, {(1, 3), (2, 4), (3, 4)}])
FIG_CYCLIC = EdgePartition.from_classes(2, 4, [{(1, 2), (1, 3), (1, 4)}, {(2, 3), (2, 4), (3, 4)}])
FIG_LOPSIDED = EdgePartition.from_classes(
    2, 4, [{(1, 2), (1, 3)}, {(2, 3), (1, 4), (2, 4), (3, 4)}]
)


def test_edge_index_examples():
    assert edge_index(1, 2, 6) == 0
    assert edge_index(1, 6, 6) == 4
    assert edge_index(5, 6, 6) == 14


def test_edge_index_rejects_bad_input():
    with pytest.raises(ValueError):
        edge_index(2, 2, 6)
    with pytest.raises(ValueError):
        edge_index(3, 2, 6)
    with pytest.raises(ValueError):
        edge_index(0, 1, 6)
    with pytest.raises(ValueError):
        edge_index(1, 7, 6)


@given(st.integers(min_value=2, max_value=16), st.data())
def test_edge_index_roundtrip(n, data):
    i = data.draw(st.integers(min_value=1, max_value=n - 1))
    j = data.draw(st.integers(min_value=i + 1, max_value=n))
    k = edge_index(i, j, n)
    assert 0 <= k < edge_count(n)
    assert edge_list(n)[k] == (i, j)


def test_edge_index_is_bijective():
    for n in range(2, 17):
        ranks = [edge_index(i, j, n) for (i, j) in edge_list(n)]
        assert ranks == list(range(edge_count(n)))


def test_homogeneity_examples():
    assert is_homogeneous(FIG_GOOD)
    assert not is_homogeneous(FIG_LOPSIDED)
    all_one_color = EdgePartition(3, 6, (0,) * 15)
    assert not is_homogeneous(all_one_color)


def test_cycle_freeness_examples():
    assert is_cycle_free(FIG_GOOD)
    assert not is_cycle_free(FIG_CYCLIC)  # (2,3,4) is a triangle in class 2
    # an empty color class is vacuously acyclic
    assert is_cycle_free(EdgePartition(2, 2, (0,)))


def test_classify_tree_examples():
    assert classify_tree([(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]) == "I6"
    assert classify_tree([(6, 4), (4, 1), (1, 3), (1, 2), (2, 5)]) == "E6"
    assert classify_tree([(1, 2), (1, 3), (1, 4), (1, 5), (1, 6)]) == "S6"
    assert classify_tree([(1, 2), (2, 3), (3, 4), (4, 5), (4, 6)]) == "Y6"
    assert classify_tree([(1, 2), (1, 3), (1, 4), (4, 5), (4, 6)]) == "H6"
    assert classify_tree([(1, 2), (2, 3), (2, 4), (2, 5), (3, 6)]) == "C6"
    # a triangle plus two stray edges is no tree
    assert classify_tree([(1, 2), (2, 3), (1, 3), (4, 5), (5, 6)]) == NOT_TREE


def test_classify_tree_rejects_wrong_edge_count():
    with pytest.raises(ValueError):
        classify_tree([(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        classify_tree([(1, 2)] * 5)


def test_canonical_code_examples():
    assert EdgePartition(2, 4, (0,) * 6).canonical_code() == 0
    assert EdgePartition(2, 4, (1, 0, 0, 0, 0, 0)).canonical_code() == 32
    assert FIG_GOOD.canonical_code() != FIG_CYCLIC.canonical_code()


def test_canonical_code_is_injective_on_small_set():
    from itertools import product

    codes = {EdgePartition(2, 4, c).canonical_code() for c in product((0, 1), repeat=6)}
    assert len(codes) == 64


def test_from_classes_validates_tiling():
    with pytest.raises(ValueError):
        EdgePartition.from_classes(2, 4, [{(1, 2)}, {(1, 2), (3, 4)}])
    with pytest.raises(ValueError):
        EdgePartition.from_classes(2, 4, [{(1, 2)}, {(3, 4)}])


def test_json_roundtrip():
    doc = FIG_GOOD.to_json_dict()
    assert doc == {"d": 2, "n": 4, "colors": [0, 1, 0, 0, 1, 1]}
    assert EdgePartition.from_json_dict(doc) == FIG_GOOD


@pytest.mark.parametrize(
    "change",
    [
        {"colors": [True, 1, 0, 0, 1, 1]},
        {"colors": [0, 1.7, 0, 0, 1, 1]},
        {"colors": [0, "1", 0, 0, 1, 1]},
        {"colors": "010011"},
        {"d": True},
        {"n": 4.0},
    ],
)
def test_json_rejects_non_integer_fields(change):
    doc = {**FIG_GOOD.to_json_dict(), **change}
    with pytest.raises(ValueError):
        EdgePartition.from_json_dict(doc)


def test_component_count():
    assert component_count([(1, 2), (2, 3)], 4) == 2
    assert component_count([], 3) == 3
    assert component_count([(1, 2), (2, 3), (3, 4)], 4) == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_acyclic_mask_table_is_byte_equal_to_the_mask_loop(n):
    table = acyclic_mask_table(n)
    assert table.dtype == bool and table.shape == (1 << edge_count(n),)
    assert table.tobytes() == helpers.loop_acyclic_mask_table(n).tobytes()

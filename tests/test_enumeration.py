import math

import numpy as np
import pytest

import helpers
from treedet.enumeration import count_homogeneous, enumerate_partitions
from treedet.model import EdgePartition, is_cycle_free, is_homogeneous

from test_model import FIG_CYCLIC, FIG_GOOD, FIG_LOPSIDED


def test_small_counts():
    assert len(enumerate_partitions(1)) == 1
    assert len(enumerate_partitions(1, cycle_free=True)) == 1
    assert len(enumerate_partitions(2)) == 20
    assert len(enumerate_partitions(2, cycle_free=True)) == 12


def test_d2_matches_independent_oracle():
    oracle = helpers.oracle_enumerate_d2(cycle_free=True)
    pset = enumerate_partitions(2, cycle_free=True)
    assert sorted(oracle) == [tuple(row) for row in pset.colors]
    oracle_all = helpers.oracle_enumerate_d2(cycle_free=False)
    pset_all = enumerate_partitions(2)
    assert sorted(oracle_all) == [tuple(row) for row in pset_all.colors]


def test_membership_examples(ctx2):
    assert ctx2.pset.contains(FIG_GOOD)
    assert not ctx2.pset.contains(FIG_CYCLIC)
    assert not ctx2.pset.contains(FIG_LOPSIDED)
    with pytest.raises(ValueError):
        ctx2.pset.contains(EdgePartition(3, 6, (0,) * 15))
    with pytest.raises(KeyError):
        ctx2.pset.index_of(FIG_CYCLIC)


def test_members_are_sorted_valid_and_unique(ctx2, ctx3):
    for pset in (ctx2.pset, ctx3.pset):
        assert np.all(np.diff(pset.codes) > 0)
        counts = np.stack([(pset.colors == c).sum(axis=1) for c in range(pset.d)], axis=1)
        assert np.all(counts == 2 * pset.d - 1)  # homogeneous throughout
        acyc = helpers.acyclic_mask_table(pset.n)
        bits = (1 << np.arange(pset.colors.shape[1])).astype(np.int64)
        for c in range(pset.d):  # every class of every member is a forest
            masks = ((pset.colors == c) * bits).sum(axis=1)
            assert acyc[masks].all()
    for i in (0, 1, len(ctx2.pset) - 1):
        member = ctx2.pset.partition(i)
        assert is_homogeneous(member) and is_cycle_free(member)


def test_multinomial_identity(set3_all):
    assert len(set3_all) == math.factorial(15) // math.factorial(5) ** 3 == 756756


@pytest.mark.parametrize("d", [1, 2, 3])
def test_budget_count_equals_the_enumeration(d, set3_all):
    pset = set3_all if d == 3 else enumerate_partitions(d)
    assert count_homogeneous(d) == len(pset)


def test_budget_count_at_d4_is_the_multinomial():
    assert count_homogeneous(4) == math.factorial(28) // math.factorial(7) ** 4
    with pytest.raises(ValueError):
        count_homogeneous(0)


@pytest.mark.parametrize("cycle_free", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_level_expansion_is_byte_equal_to_dfs(d, cycle_free, set3_all):
    # the class-choosing enumeration against both earlier ones: the
    # prefix-growing level expansion and the depth-first scan
    pset = set3_all if (d, cycle_free) == (3, False) else enumerate_partitions(d, cycle_free)
    assert pset.colors.tobytes() == helpers.prefix_enumeration(d, cycle_free).tobytes()
    assert pset.colors.tobytes() == helpers.dfs_blob(d, cycle_free)


def test_codes_are_the_base_d_readings(ctx3):
    pset = ctx3.pset
    assert np.array_equal(pset.codes, pset.colors.astype(np.int64) @ pset.weights)
    assert pset.codes[-1] == pset.partition(len(pset) - 1).canonical_code()


def test_infeasible_d_refused():
    with pytest.raises(ValueError, match="infeasible"):
        enumerate_partitions(4)
    with pytest.raises(ValueError):
        enumerate_partitions(0)

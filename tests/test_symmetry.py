import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from treedet import catalog
from treedet.flips import SignatureTable, flip, sign_failures
from treedet.model import NOT_TREE, classify_tree, edge_list
from treedet.symmetry import (
    OrbitClosureError,
    PermPair,
    act,
    epsilon_formula_check,
    group_elements,
    match_catalog,
    orbit_decomposition,
    perm_sign,
    signature_character,
    stabilizer,
    vertex_perm_edge_map,
    _all_edge_maps,
    _image_codes,
)
from treedet.enumeration import member_positions
from treedet.model import edge_count

from test_model import FIG_GOOD


def test_identity_acts_trivially():
    pair = PermPair.identity(4, 2)
    assert act(pair, FIG_GOOD) == FIG_GOOD


def test_known_stabilizing_pair():
    # the double transposition of vertices fixes the d = 2 base partition
    pair = PermPair((2, 1, 4, 3), (1, 2))
    assert act(pair, catalog.BASE_PARTITION_D2) == catalog.BASE_PARTITION_D2


def test_stabilizer_of_d2_base_partition():
    stab = stabilizer(catalog.BASE_PARTITION_D2)
    got = {(p.sigma, p.tau) for p in stab}
    assert got == set(catalog.BASE_PARTITION_D2_STABILIZER)


@settings(max_examples=60, deadline=None)
@given(
    st.permutations(range(1, 7)),
    st.permutations(range(1, 7)),
    st.permutations(range(1, 4)),
    st.permutations(range(1, 4)),
    st.integers(min_value=1, max_value=19),
)
def test_action_composition_law(s1, s2, t1, t2, i):
    g = PermPair(tuple(s1), tuple(t1))
    h = PermPair(tuple(s2), tuple(t2))
    p = catalog.reference_partition(i)
    assert act(g, act(h, p)) == act(g.compose(h), p)


def test_perm_sign():
    assert perm_sign((1, 2, 3)) == 1
    assert perm_sign((2, 1, 3)) == -1
    assert perm_sign((2, 3, 1)) == 1
    assert perm_sign((4, 3, 2, 1)) == 1


def test_orbits_d2():
    from treedet.context import standard_context

    table = orbit_decomposition(standard_context(2).pset)
    assert len(table.entries) == 1
    entry = table.entries[0]
    assert entry.size == 12
    assert entry.stabilizer_order == 4
    assert entry.size * entry.stabilizer_order == math.factorial(4) * math.factorial(2)


def test_orbits_d3(orbits3):
    sizes = sorted((e.size for e in orbits3.entries), reverse=True)
    assert len(sizes) == 19
    assert sizes == [4320] * 14 + [2160, 1440, 720, 720, 720]
    assert sum(sizes) == 66240
    group_order = math.factorial(6) * math.factorial(3)
    for e in orbits3.entries:
        assert e.size * e.stabilizer_order == group_order
        assert NOT_TREE not in e.type_triple


def test_catalog_match(orbits3):
    report = match_catalog(orbits3)
    assert report.ok, report.mismatches
    assert report.checked == 19


def test_catalog_aliases_cover_all_orbits(orbits3):
    orbit_of = match_catalog(orbits3).orbit_of
    assert sorted(orbit_of) == list(range(1, 20))
    assert sorted(orbit_of.values()) == list(range(19))


def test_orbit_table_does_not_read_the_catalog(ctx3, orbits3, monkeypatch):
    def refuse(cid):
        raise AssertionError(f"reference {cid} read")

    monkeypatch.setattr(catalog, "reference_partition", refuse)
    table = orbit_decomposition(ctx3.pset)
    assert np.array_equal(table.roots, orbits3.roots)
    assert np.array_equal(table.images, orbits3.images)
    assert table.entries == orbits3.entries


def test_two_references_in_one_orbit_both_keep_their_orbit(orbits3, monkeypatch):
    # reference 2 replaced by a relabeling of reference 1
    moved = act(PermPair((2, 1, 3, 4, 5, 6), (1, 3, 2)), catalog.reference_partition(1))
    monkeypatch.setitem(catalog.REFERENCE_EDGE_LISTS, 2, moved.color_classes())
    report = match_catalog(orbits3)
    assert report.mismatches == [
        "references 1 and 2 fall in the same orbit",
        "reference 2: orbit size 4320 != 720",
        "reference 2: stabilizer order 1 != 6",
        "18 orbits hit by references, table has 19",
    ]
    assert len(report.orbit_of) == 19 and report.orbit_of[1] == report.orbit_of[2]


def test_broadcast_stabilizer_equals_the_pair_loop():
    for p in (catalog.BASE_PARTITION_D2, *catalog.reference_partitions()):
        assert stabilizer(p) == helpers.loop_stabilizer(p)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_orbit_roots_equal_union_find(d, ctx3, orbits3):
    from treedet.context import standard_context

    pset = ctx3.pset if d == 3 else standard_context(d).pset
    roots = orbits3.roots if d == 3 else orbit_decomposition(pset).roots
    assert roots.dtype == np.int32
    assert np.array_equal(roots, helpers.union_find_orbit_roots(pset))
    assert np.array_equal(roots, helpers.generator_bfs_orbit_roots(pset))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_entry_stabilizers_equal_the_pair_loop(d, orbits3):
    from treedet.context import standard_context

    table = orbits3 if d == 3 else orbit_decomposition(standard_context(d).pset)
    for entry in table.entries:
        assert entry.stabilizer_order == len(helpers.loop_stabilizer(entry.representative))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_edge_map_table_equals_the_per_permutation_maps(n):
    perms, maps = _all_edge_maps(n)
    assert perms == tuple(permutations(range(1, n + 1)))
    assert np.array_equal(maps, np.stack([vertex_perm_edge_map(p, n) for p in perms]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_relabeling_equals_the_horner_oracle(data):
    # random color rows: mostly not homogeneous, so mostly not members
    n = data.draw(st.sampled_from([2, 4, 6]))
    d = n // 2
    row = st.lists(st.integers(0, d - 1), min_size=edge_count(n), max_size=edge_count(n))
    colors = np.array(data.draw(st.lists(row, min_size=1, max_size=6)), dtype=np.uint8)
    got = _image_codes(colors, n, d)
    assert got.dtype == np.int64
    assert np.array_equal(got, helpers.horner_image_codes(colors, n, d))


def test_product_relabeling_of_the_references_equals_the_horner_oracle():
    base = np.array([p.colors for p in catalog.reference_partitions()], dtype=np.uint8)
    assert np.array_equal(_image_codes(base, 6, 3), helpers.horner_image_codes(base, 6, 3))


@pytest.mark.parametrize("d", [3, 4])
def test_product_relabeling_on_k8_equals_the_horner_oracle(d):
    # 4^28 = 2^56: codes past 2^53 stay exact in the int64 product
    colors = np.random.default_rng(d).integers(0, d, size=(2, edge_count(8)))
    assert np.array_equal(_image_codes(colors, 8, d), helpers.horner_image_codes(colors, 8, d))


def test_relabeling_past_64_bits_is_refused():
    with pytest.raises(ValueError, match="64-bit"):
        _image_codes(np.zeros((1, edge_count(8)), dtype=np.uint8), 8, 5)  # 5^28 > 2^63


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([1, 2, 48, 4320, 3 * 2 ** 14 + 5]),  # 48 and 4320: one orbit round at d = 2, 3
    st.floats(0, 1),
    st.integers(0, 2 ** 32 - 1),
)
def test_member_lookup_equals_the_plain_binary_search(ctx3, size, member_share, seed):
    rng = np.random.default_rng(seed)
    codes = ctx3.pset.codes
    members = codes[rng.integers(0, len(codes), size)]  # with duplicates
    others = rng.integers(-1, codes[-1] + 2, size)  # mostly not members, both ends included
    queries = np.where(rng.random(size) < member_share, members, others)
    assert np.array_equal(
        member_positions(codes, queries), helpers.plain_member_positions(codes, queries)
    )
    square = queries[: size - size % 2].reshape(2, -1)
    assert np.array_equal(
        member_positions(codes, square), helpers.plain_member_positions(codes, square)
    )


def _oracle_kernels(monkeypatch):
    import treedet.symmetry

    monkeypatch.setattr(treedet.symmetry, "_image_codes", helpers.horner_image_codes)
    monkeypatch.setattr(treedet.symmetry, "member_positions", helpers.plain_member_positions)


@pytest.mark.parametrize("dropped", [4321, 30000, 55555])
def test_missing_member_image_equals_the_oracle_kernels(dropped, ctx3, monkeypatch):
    from treedet.enumeration import PartitionSet

    keep = np.arange(len(ctx3.pset)) != dropped
    pset = PartitionSet(3, 6, ctx3.pset.colors[keep], cycle_free=True)
    with pytest.raises(OrbitClosureError) as err:
        orbit_decomposition(pset)
    _oracle_kernels(monkeypatch)
    with pytest.raises(OrbitClosureError) as oracle:
        orbit_decomposition(pset)
    assert err.value.image == oracle.value.image


def test_specific_stabilizer_orders():
    for cid, expected in ((1, 1), (2, 6), (10, 2), (12, 3), (19, 6)):
        assert len(stabilizer(catalog.reference_partition(cid))) == expected


def test_tampered_catalog_is_detected(orbits3, monkeypatch):
    monkeypatch.setitem(catalog.EXPECTED_ORBIT_SIZES, 1, 9999)
    report = match_catalog(orbits3)
    assert not report.ok
    assert any("orbit size" in m for m in report.mismatches)


def test_type_multiset_constant_on_orbit(orbits3, ctx3):
    rng = np.random.default_rng(3)
    for _ in range(20):
        i = int(rng.integers(len(ctx3.pset)))
        member = ctx3.pset.partition(i)
        entry = orbits3.entries[orbits3.orbit_id_of(member)]
        member_types = sorted(classify_tree(c) for c in member.color_classes())
        assert member_types == sorted(entry.type_triple)


def test_no_class_has_a_high_degree_vertex(ctx3):
    # no member of the cycle-free homogeneous set has a class of star or
    # near-star shape: max vertex degree within a class is at most 3
    colors = ctx3.pset.colors
    for c in range(3):
        for v in range(1, 7):
            cols = [k for k, (i, j) in enumerate(edge_list(6)) if v in (i, j)]
            degs = (colors[:, cols] == c).sum(axis=1)
            assert int(degs.max()) <= 3


@pytest.mark.parametrize("d", [1, 2, 3])
def test_signature_follows_the_rule_at_every_d(d, ctx3, orbits3):
    from treedet.cli import _parity_form
    from treedet.context import standard_context

    ctx = ctx3 if d == 3 else standard_context(d)
    orbits = orbits3 if d == 3 else orbit_decomposition(ctx.pset)
    report = epsilon_formula_check(orbits, ctx.signature)
    assert signature_character(d) == ("sgn_tau" if d % 2 else "sgn_sigma_sgn_tau")
    assert report.counts[signature_character(d)] == 0
    # S_1 makes sgn tau the trivial character, which `character` names first,
    # so the parity-form stage compares the rule's count, not the name
    assert report.character == ("trivial" if d == 1 else signature_character(d))
    assert _parity_form(orbits, ctx.signature)[1] == []


def test_epsilon_formula_sampled(ctx3, orbits3):
    assert helpers.sampled_epsilon_check(ctx3.signature, samples=500, seed=123) == []
    report = epsilon_formula_check(orbits3, ctx3.signature)
    assert report.ok and report.character == "sgn_tau"
    assert report.samples == 6 * 5 * 4 * 3 * 2 * 6 * 19 == 82080
    assert report.counts["sgn_tau"] == 0 and min(report.counts.values()) == 0


def _negated(table, rows):
    signs = table.signs.copy()
    signs[rows] *= -1
    return SignatureTable(table.pset, signs)


def _assert_violations_are_real(report, orbits, table):
    for name, found in report.violations.items():
        assert len(found) == min(5, report.counts[name])
        for o, sigma, tau, got, expected in found:
            root = orbits.entries[o].representative
            assert table.signature(act(PermPair(sigma, tau), root)) == got != expected
            chi = helpers.ORACLE_CHARACTERS[name](perm_sign(sigma), perm_sign(tau))
            assert expected == chi * table.signature(root)


@pytest.mark.parametrize("tamper", ["every_tenth", "orbit_of_reference_7"])
def test_exhaustive_parity_form_agrees_with_sampled_oracle(ctx3, orbits3, tamper):
    if tamper == "every_tenth":
        rows = slice(None, None, 10)
    else:
        root = orbits3.roots[ctx3.pset.index_of(catalog.reference_partition(7))]
        rows = orbits3.roots == root
    table = _negated(ctx3.signature, rows)
    report = epsilon_formula_check(orbits3, table)
    oracle = helpers.sampled_epsilon_check(table, samples=10000, seed=2024)
    assert report.samples == 82080 and len(oracle) == 5
    _assert_violations_are_real(report, orbits3, table)
    refs = helpers.searchsorted_parity_form_check(table, catalog.reference_partitions())
    assert refs.character == report.character
    if tamper == "every_tenth":
        assert not report.ok and min(report.counts.values()) > 0
    else:
        # every sign of one orbit negated: the signs still follow sgn tau
        # relative to each root; only the +1 anchor of reference 7 is
        # broken, and the alternation of the flip graph catches it
        assert report.character == "sgn_tau"
        assert {v[2] for v in oracle} == {7} and all(v[3] == -v[4] for v in oracle)
        assert any(rows.size for _, rows in sign_failures(ctx3.graph, table.signs))


def test_parity_form_violation_first_seen_under_a_non_identity_sigma(ctx3, orbits3):
    # flip the sign of one member that no (identity, tau) reaches from any
    # orbit root: a transposition image of the first root
    roots = [e.representative for e in orbits3.entries]
    identity = tuple(range(1, 7))
    near = {act(PermPair(identity, t), r) for r in roots for t in permutations(range(1, 4))}
    swap = PermPair((2, 1, 3, 4, 5, 6), (1, 2, 3))
    moved = act(swap, roots[0])
    assert moved not in near
    table = _negated(ctx3.signature, ctx3.pset.index_of(moved))
    report = epsilon_formula_check(orbits3, table)
    assert not report.ok and all(count > 0 for count in report.counts.values())
    assert report.counts["sgn_tau"] == orbits3.entries[0].stabilizer_order
    assert report.violations["sgn_tau"][0][1] != identity
    for o, sigma, tau, got, expected in report.violations["sgn_tau"]:
        assert act(PermPair(sigma, tau), roots[o]) == moved
        assert got == -expected == -perm_sign(tau) * table.signature(roots[o])
    _assert_violations_are_real(report, orbits3, table)
    assert report == helpers.searchsorted_parity_form_check(table, roots)


@pytest.mark.parametrize("d", [2, 3])
def test_parity_form_witnesses_equal_the_plain_search_oracle(d, ctx2, ctx3, orbits3):
    ctx = {2: ctx2, 3: ctx3}[d]
    orbits = orbits3 if d == 3 else orbit_decomposition(ctx2.pset)
    table = _negated(ctx.signature, slice(None, None, 10))
    report = epsilon_formula_check(orbits, table)
    assert not report.ok
    roots = [e.representative for e in orbits.entries]
    assert report == helpers.searchsorted_parity_form_check(table, roots)


def test_epsilon_product_formula_d2(ctx2):
    report = epsilon_formula_check(orbit_decomposition(ctx2.pset), ctx2.signature)
    assert report.character == "sgn_sigma_sgn_tau"
    assert report.samples == 48
    base = helpers.searchsorted_parity_form_check(ctx2.signature, (catalog.BASE_PARTITION_D2,))
    assert base.character == "sgn_sigma_sgn_tau"
    assert ctx2.signature.signature(catalog.BASE_PARTITION_D2) == 1


def test_d2_product_form_witnesses_equal_the_group_loop(ctx2):
    table = _negated(ctx2.signature, slice(None, None, 5))
    orbits = orbit_decomposition(ctx2.pset)
    root = orbits.entries[0].representative
    loop = []
    for pair in group_elements(4, 2):
        got = table.signature(act(pair, root))
        expected = perm_sign(pair.sigma) * perm_sign(pair.tau) * table.signature(root)
        if got != expected:
            loop.append((0, pair.sigma, pair.tau, got, expected))
    assert len(loop) > 5
    report = epsilon_formula_check(orbits, table)
    assert report.counts["sgn_sigma_sgn_tau"] == len(loop)
    assert report.violations["sgn_sigma_sgn_tau"] == loop[:5]


def test_sigma_alone_preserves_d3_signature(ctx3):
    rng = np.random.default_rng(17)
    for _ in range(50):
        i = int(rng.integers(len(ctx3.pset)))
        member = ctx3.pset.partition(i)
        sigma = tuple(int(v) + 1 for v in rng.permutation(6))
        moved = act(PermPair(sigma, (1, 2, 3)), member)
        assert ctx3.signature.signature(moved) == ctx3.signature.signature(member)


def test_flip_equivariance_samples(ctx3):
    from treedet.model import faces_of, normalize_face

    rng = np.random.default_rng(29)
    for _ in range(40):
        i = int(rng.integers(len(ctx3.pset)))
        member = ctx3.pset.partition(i)
        face = faces_of(6)[int(rng.integers(20))]
        sigma = tuple(int(v) + 1 for v in rng.permutation(6))
        tau = tuple(int(v) + 1 for v in rng.permutation(3))
        pair = PermPair(sigma, tau)
        lhs = act(pair, flip(member, face))
        moved_face = normalize_face(*(sigma[v - 1] for v in face), 6)
        rhs = flip(act(pair, member), moved_face)
        assert lhs == rhs


def test_group_elements_cover_group():
    assert sum(1 for _ in group_elements(4, 2)) == 48
    pairs = set()
    for g in group_elements(4, 2):
        pairs.add((g.sigma, g.tau))
    assert len(pairs) == 48


def test_perm_pair_validation():
    with pytest.raises(ValueError):
        PermPair((1, 1, 3), (1, 2))
    with pytest.raises(ValueError):
        act(PermPair((1, 2, 3), (1, 2)), FIG_GOOD)


@pytest.mark.parametrize("dropped", [0, 5, 11])
def test_a_set_missing_a_member_is_not_closed(dropped, ctx2):
    # unchecked lookups gave one orbit of 11 (members 0 and 5) or an IndexError (member 11)
    from treedet.enumeration import PartitionSet

    keep = np.arange(len(ctx2.pset)) != dropped
    pset = PartitionSet(2, 4, ctx2.pset.colors[keep], cycle_free=True)
    with pytest.raises(OrbitClosureError) as err:
        orbit_decomposition(pset)
    assert err.value.image == ctx2.pset.partition(dropped)
    assert str(err.value.image.canonical_code()) in str(err.value)


@pytest.mark.parametrize("dropped", [0, 40000, 66239])
def test_a_d3_set_missing_a_member_is_not_closed(dropped, ctx3):
    from treedet.enumeration import PartitionSet

    keep = np.arange(len(ctx3.pset)) != dropped
    pset = PartitionSet(3, 6, ctx3.pset.colors[keep], cycle_free=True)
    with pytest.raises(OrbitClosureError) as err:
        orbit_decomposition(pset)
    assert err.value.image == ctx3.pset.partition(dropped)


def test_match_catalog_reads_stabilizer_orders_from_the_entries(ctx3, monkeypatch):
    import treedet.symmetry

    calls = []
    real = treedet.symmetry.stabilizer
    monkeypatch.setattr(treedet.symmetry, "stabilizer", lambda p: calls.append(p) or real(p))
    table = orbit_decomposition(ctx3.pset)
    assert match_catalog(table).ok and len(calls) == 0  # the orbit kernel yields them
    monkeypatch.setitem(catalog.EXPECTED_STABILIZER_ORDERS, 2, 7)
    assert match_catalog(table).mismatches == ["reference 2: stabilizer order 6 != 7"]

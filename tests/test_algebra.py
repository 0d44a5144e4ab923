import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import helpers
from treedet import catalog
from treedet.algebra import (
    DET2_EXPLICIT_SIGN,
    basis_tensor,
    count_relation_instances,
    det2_explicit,
    det_eval,
    geometric_check_d2,
    matrix_determinant,
    parse_scalar,
    permute_tensor,
    rank_certify_d2,
    row_reduce,
    relation_instances,
    relation_sum,
    tensor_from_json,
    tensor_to_json,
    transform_tensor,
    unit_matrix_text,
    unit_partition,
    unit_tensor,
    validate_prime,
    verify_relations,
    zero_by_multiplicity,
)
from treedet.diagram import SignedDiagram
from treedet.flips import FlipGraph, SignatureTable, sign_failures
from treedet.model import EdgePartition, is_cycle_free, is_homogeneous


def test_unit_partition_small_cases():
    assert unit_partition(1).colors == (0,)
    e2 = unit_partition(2)
    assert e2 == catalog.BASE_PARTITION_D2
    e3 = unit_partition(3)
    assert e3 == catalog.reference_partition(19)
    for d in (1, 2, 3):
        p = unit_partition(d)
        assert is_homogeneous(p) and is_cycle_free(p)


def test_unit_matrix_text():
    text = unit_matrix_text(2)
    rows = text.splitlines()
    assert len(rows) == 4
    assert rows[0].split() == ["1", "e1", "e2", "e1"]
    assert rows[1].split() == [".", "1", "e1", "e2"]


def test_determinant_normalization(ctx2, ctx3):
    assert det_eval(unit_tensor(2), ctx2.pset, ctx2.signature) == 1
    assert det_eval(unit_tensor(3), ctx3.pset, ctx3.signature) == 1


def test_dual_basis_property(ctx3):
    rng = np.random.default_rng(2)
    for _ in range(10):
        i = int(rng.integers(len(ctx3.pset)))
        member = ctx3.pset.partition(i)
        value = det_eval(basis_tensor(member), ctx3.pset, ctx3.signature)
        assert value == ctx3.signature.signature(member)
    # a basis tensor spelling a cyclic partition evaluates to zero
    cyclic = EdgePartition.from_classes(
        2, 4, [{(1, 2), (1, 3), (1, 4)}, {(2, 3), (2, 4), (3, 4)}]
    )
    from treedet.context import standard_context

    ctx2 = standard_context(2)
    assert det_eval(basis_tensor(cyclic), ctx2.pset, ctx2.signature) == 0


def test_multilinearity_in_one_slot(ctx2):
    rng = np.random.default_rng(8)
    base = helpers.rand_rational_tensor(rng, 2)
    slot = int(rng.integers(6))
    u = tuple(helpers.rand_fraction(rng) for _ in range(2))
    w = tuple(helpers.rand_fraction(rng) for _ in range(2))
    lam, mu = Fraction(3, 2), Fraction(-5, 7)

    def with_slot(vec):
        t = list(base)
        t[slot] = vec
        return tuple(t)

    combo = tuple(lam * a + mu * b for a, b in zip(u, w))
    lhs = det_eval(with_slot(combo), ctx2.pset, ctx2.signature)
    rhs = lam * det_eval(with_slot(u), ctx2.pset, ctx2.signature) + mu * det_eval(
        with_slot(w), ctx2.pset, ctx2.signature
    )
    assert lhs == rhs


def test_face_vanishing_every_face(ctx2, ctx3):
    from treedet.model import face_edge_indices, faces_of

    rng = np.random.default_rng(31)
    for ctx in (ctx2, ctx3):
        d, n = ctx.pset.d, ctx.pset.n
        for face in faces_of(n):  # a shared vector on any face kills the sum
            vectors = list(helpers.rand_rational_tensor(rng, d))
            shared = tuple(helpers.rand_fraction(rng) for _ in range(d))
            for k in face_edge_indices(face, n):
                vectors[k] = shared
            assert det_eval(vectors, ctx.pset, ctx.signature) == 0
            assert det_eval(vectors, ctx.pset, ctx.signature, p=101) == 0


def test_cross_field_consistency(ctx3):
    rng = np.random.default_rng(4)
    for _ in range(5):
        vectors = helpers.rand_int_tensor(rng, 3)
        rational = det_eval(vectors, ctx3.pset, ctx3.signature)
        modular = det_eval(vectors, ctx3.pset, ctx3.signature, p=101)
        assert rational.denominator == 1
        assert rational.numerator % 101 == modular % 101


def test_det_eval_object_path_agrees(ctx2):
    # gigantic entries push the diagram pass from int64 to Python ints
    rng = np.random.default_rng(12)
    small = helpers.rand_int_tensor(rng, 2, lo=-9, hi=9)
    scale = 2 ** 70
    big = tuple(tuple(x * scale for x in vec) for vec in small)
    vsmall = det_eval(small, ctx2.pset, ctx2.signature)
    vbig = det_eval(big, ctx2.pset, ctx2.signature)
    assert vbig == vsmall * Fraction(scale) ** 6


def test_det_eval_around_the_int64_bound(ctx3):
    # (3 * 6)^15 < 2^63: entries of magnitude 6 are the largest the int64 pass takes
    rng = np.random.default_rng(6)
    vectors = [[int(x) * 6 for x in rng.choice((-1, 1), size=3)] for _ in range(15)]
    expected = helpers.enumerative_det_eval(vectors, ctx3.pset, ctx3.signature)
    assert det_eval(vectors, ctx3.pset, ctx3.signature) == expected
    # entries up to 100 take the value itself past 2^63, which int64 would wrap
    vectors = helpers.rand_int_tensor(rng, 3, lo=-100, hi=100)
    expected = helpers.enumerative_det_eval(vectors, ctx3.pset, ctx3.signature)
    assert abs(expected) >= 2 ** 63
    assert det_eval(vectors, ctx3.pset, ctx3.signature) == expected
    # over a prime above 200 the balanced residues are the entries themselves
    p = 4294967311
    assert det_eval(vectors, ctx3.pset, ctx3.signature, p=p) == expected % p


def test_det_eval_zero_edge_vector_next_to_huge_entries(ctx2):
    # a zero edge vector makes the form 0; it must not let entries past
    # 2^63 (integer, or rational after clearing denominators) into int64
    rest = [[1, 0], [1, 0], [0, 1], [0, 1]]
    for vectors in (
        [[0, 0], [10 ** 19, 1]] + rest,
        [[Fraction(1, 2 ** 40), Fraction(1, 3 ** 40)], [0, 0]] + rest,
    ):
        assert helpers.enumerative_det_eval(vectors, ctx2.pset, ctx2.signature) == 0
        assert det_eval(vectors, ctx2.pset, ctx2.signature) == 0
        assert det_eval(vectors, ctx2.pset, ctx2.signature, p=101) == 0


def test_det_eval_validates_input(ctx2):
    with pytest.raises(ValueError):
        det_eval([(1, 0)] * 5, ctx2.pset, ctx2.signature)
    with pytest.raises(ValueError):
        det_eval([(1, 0, 0)] * 6, ctx2.pset, ctx2.signature)
    with pytest.raises(ValueError):
        det_eval([(0.5, 1)] * 6, ctx2.pset, ctx2.signature)  # floats are not exact
    with pytest.raises(ValueError):
        det_eval([(1, 0)] * 6, ctx2.pset, ctx2.signature, p=4)
    with pytest.raises(ValueError):
        det_eval([(1, 0)] * 6, ctx2.pset, ctx2.signature, p=3)
    with pytest.raises(ValueError):
        det_eval([(Fraction(1, 101), 1)] * 6, ctx2.pset, ctx2.signature, p=101)
    unit = [list(vec) for vec in unit_tensor(2)]
    for bad in (5, "10" * 6, ["10", "01", "10", "10", "01", "01"], [1] + unit[1:], None):
        with pytest.raises(ValueError, match="list of edge vectors"):
            det_eval(bad, ctx2.pset, ctx2.signature)
    assert det_eval(unit, ctx2.pset, ctx2.signature) == 1  # lists are fine


def test_diagram_sizes(ctx2, ctx3):
    assert (ctx2.signature.diagram.nodes, ctx2.signature.diagram.arcs) == (24, 34)
    assert (ctx3.signature.diagram.nodes, ctx3.signature.diagram.arcs) == (5287, 11346)
    for ctx in (ctx2, ctx3):
        levels = ctx.signature.diagram.levels
        assert len(levels) == len(ctx.pset.weights) and len(levels[0]) == 1
        for k, level in enumerate(levels):
            below = len(levels[k + 1]) if k + 1 < len(levels) else 2
            assert level.shape[1] == ctx.pset.d
            assert level.min() >= -1 and level.max() < below


@pytest.mark.parametrize("d", [2, 3])
def test_diagram_levels_equal_the_prefix_rescan_oracle(d, ctx2, ctx3):
    ctx = {2: ctx2, 3: ctx3}[d]
    pset, signs = ctx.pset, ctx.signature.signs
    levels = SignedDiagram(pset.colors, pset.codes, signs, d).levels
    expected = helpers.prefix_rescan_levels(pset.colors, pset.codes, signs, d)
    assert len(levels) == len(expected)
    for level, oracle in zip(levels, expected):
        assert level.dtype == oracle.dtype == np.intp
        assert level.flags.f_contiguous and oracle.flags.f_contiguous
        assert np.array_equal(level, oracle)


@pytest.fixture
def runs(monkeypatch):
    """The (dtype, levels) of every run of diagram levels, in call order."""
    from treedet.diagram import SignedDiagram

    seen, run = [], SignedDiagram._run

    def spy(self, val, passes, coeffs):
        seen.append((val.dtype, len(passes)))
        return run(self, val, passes, coeffs)

    monkeypatch.setattr(SignedDiagram, "_run", spy)
    return seen


def level_runs(counts):
    """The runs of (float64, int64, object) levels that counts gives."""
    return [(dtype, n) for dtype, n in zip((np.float64, np.int64, object), counts) if n]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_flat_pass_equals_level_pass_oracle(d, runs):
    from treedet.context import standard_context

    diagram = standard_context(d).signature.diagram
    E = len(diagram.levels)
    rng = np.random.default_rng(40 + d)
    reached = set()
    for _ in range(4):
        tiny = rng.integers(-3, 4, size=E * d).tolist()  # bound 9^15 < 2^53
        small = rng.integers(-6, 7, size=E * d).tolist()  # bound 18^15 < 2^63
        huge = [x * 10 ** 30 + 7 for x in small]  # every level past 2^63
        top_heavy = [10 ** 30] * d + small[d:]  # the root's level alone past 2^63
        bottom_heavy = small[:-d] + [2 ** 60 + 1] + [0] * (d - 1)  # no float64 level
        for coeffs, oracle_dtype in (
            (tiny, np.int64),
            (small, np.int64),
            (huge, object),
            (top_heavy, object),
            (bottom_heavy, object),
        ):
            runs.clear()
            rows = np.reshape(coeffs, (E, d))
            expected = helpers.level_pass_evaluate(diagram, rows, oracle_dtype)
            assert diagram.evaluate(coeffs) == expected
            reached.update(dtype for dtype, _ in runs)
            assert sum(n for _, n in runs) == E
        for p in helpers.PRIMES:
            residues = [int.from_bytes(rng.bytes(11), "little") % p for _ in range(E * d)]
            h = p // 2
            balanced = [(x + h) % p - h for x in residues]
            oracle_dtype = np.int64 if (p - 1) ** 2 < 2 ** 63 else object
            rows = np.reshape(np.array(residues, dtype=object), (E, d))
            expected = helpers.level_pass_evaluate(diagram, rows, oracle_dtype, p)
            runs.clear()
            assert int(diagram.evaluate(balanced)) % p == expected
            reached.update(dtype for dtype, _ in runs)
            assert sum(n for _, n in runs) == E
    assert reached == {np.dtype(dtype) for dtype in (np.float64, np.int64, object)}


@pytest.mark.parametrize("p", [101, 2147483647, 4294967311])
def test_gfp_balanced_residue_edges(ctx2, ctx3, p):
    # entries on both sides of p/2, at p - 1 and -p, and with denominators
    edges = [(p - 1) // 2, (p + 1) // 2, p - 1, -p]
    edges += [Fraction(p + 1, 2), Fraction(p, 2), Fraction(1, 2)]
    rng = np.random.default_rng(p % 97)
    for ctx in (ctx2, ctx3):
        d, E = ctx.pset.d, len(ctx.pset.weights)
        every_entry = [[edges[(k + j) % len(edges)] for j in range(d)] for k in range(E)]
        drawn = [[[edges[i] for i in rng.integers(len(edges), size=d)] for _ in range(E)] for _ in range(3)]
        for vectors in [every_entry] + drawn:
            rational = det_eval(vectors, ctx.pset, ctx.signature)
            assert det_eval(vectors, ctx.pset, ctx.signature, p=p) == helpers.residue(rational, p)


def test_gfp_pass_is_picked_by_the_bound(ctx3, runs):
    # over GF(p) the diagram runs the passes that Q runs on the balanced residues
    rng = np.random.default_rng(9)
    small = helpers.rand_int_tensor(rng, 3, lo=-2, hi=2)
    det_eval(small, ctx3.pset, ctx3.signature, p=2147483647)
    assert runs.pop() == (np.float64, 15)  # the integer pass, reduced once at the root
    for p in helpers.PRIMES:
        h = p // 2
        full = [[int.from_bytes(rng.bytes(11), "little") % p for _ in range(3)] for _ in range(15)]
        balanced = [[(x + h) % p - h for x in vec] for vec in full]
        rational = det_eval(full, ctx3.pset, ctx3.signature)
        runs.clear()
        assert det_eval(balanced, ctx3.pset, ctx3.signature) % p == helpers.residue(rational, p)
        over_q = runs[:]
        runs.clear()
        assert det_eval(full, ctx3.pset, ctx3.signature, p=p) == helpers.residue(rational, p)
        assert runs == over_q and sum(n for _, n in runs) == 15
        assert runs[-1][0] == object  # full residues pass 2^63 for every prime


def scaled_generator(d, scales):
    """The generator with edge vector e times scales[e]; its value and its
    product bound are both the product of the scales, and every node on
    its path through the diagram is a suffix product of the scales."""
    return [[x * r for x in vec] for vec, r in zip(unit_tensor(d), scales)]


@pytest.mark.parametrize(
    "scales, over_q, over_gfp",
    [
        # (float64, int64, top) levels; edge 14 is the bottom level
        ([11] * 14 + [23], (15, 0, 0), (15, 0, 0)),  # 8.7e15, just below 2^53
        ([11] * 14 + [25], (14, 1, 0), (14, 1, 0)),  # odd in (2^53, 2^54): float64 would round it
        ([11] * 14 + [24287], (12, 3, 0), (12, 3, 0)),  # odd, just below 2^63
        ([21] * 15, (12, 2, 1), (12, 2, 1)),  # past 2^63 at the root only
        ([2 ** 62 + 1] * 2 + [3] * 13, (13, 0, 2), (14, 0, 1)),  # large scales on the top edges
        ([3] * 13 + [2 ** 30 + 1] * 2, (1, 2, 12), (1, 2, 12)),  # large scales on the bottom edges
        ([1] * 14 + [2 ** 53 + 1], (0, 15, 0), (15, 0, 0)),  # the bottom level past 2^53
        ([1] * 14 + [2 ** 63 + 1], (0, 0, 15), (15, 0, 0)),  # the bottom level past 2^63
    ],
    # each case is named by the dtype of the root's level over Q
    ids=[
        f"scales{i}-{top}"
        for i, top in enumerate("float64 int64 int64 object object object int64 object".split())
    ],
)
def test_scaled_generator_takes_the_cheapest_exact_pass(ctx3, runs, scales, over_q, over_gfp):
    value = math.prod(scales)
    assert value % 2 == 1 and value == helpers.enumerative_det_eval(
        scaled_generator(3, scales), ctx3.pset, ctx3.signature
    )
    assert det_eval(scaled_generator(3, scales), ctx3.pset, ctx3.signature) == value
    assert runs == level_runs(over_q)
    runs.clear()
    p = 4294967311  # the runs of the balanced residues, whose bounds differ
    assert det_eval(scaled_generator(3, scales), ctx3.pset, ctx3.signature, p=p) == value % p
    assert runs == level_runs(over_gfp)


def test_det2_explicit_examples(ctx2):
    assert det2_explicit(unit_tensor(2)) == -1
    shared = ((1, 0),) * 3
    vectors = shared + tuple(unit_tensor(2)[3:])
    assert det2_explicit(vectors) == 0


def test_det2_explicit_global_sign(ctx2):
    rng = np.random.default_rng(100)
    for _ in range(100):
        vectors = helpers.rand_rational_tensor(rng, 2)
        explicit = det2_explicit(vectors)
        summed = det_eval(vectors, ctx2.pset, ctx2.signature)
        assert explicit == DET2_EXPLICIT_SIGN * summed


@pytest.mark.parametrize(
    "d, flipped", [(2, ()), (2, (0,)), (2, (3, 8)), (3, (7,)), (3, ()), (3, (7, 40000))]
)
def test_relation_sweep_equals_digit_column_oracle(ctx2, ctx3, d, flipped):
    # one flipped sign breaks relations, so the witnesses and their order are compared too
    ctx = {2: ctx2, 3: ctx3}[d]
    signs = ctx.signature.signs.copy()
    signs[list(flipped)] *= -1
    table = SignatureTable(ctx.pset, signs)
    report = verify_relations(ctx.graph, table)
    assert report == helpers.digit_column_relation_sweep(ctx.pset, table)
    assert report.ok == (not flipped)
    if flipped:
        assert len(report.witnesses) == min(5, report.violations)
        for w in report.witnesses:
            assert relation_sum(w, ctx.pset, table) != 0


def test_sampled_relation_sweep_equals_dense_oracle(ctx3):
    # every tenth sign flipped breaks about one instance in a thousand, so
    # the sample holds more than five violations and the witness list is cut
    signs = ctx3.signature.signs.copy()
    signs[::10] *= -1
    table = SignatureTable(ctx3.pset, signs)
    report = verify_relations(ctx3.graph, table, sample=50000, seed=5)
    assert report == helpers.dense_sampled_relation_sweep(ctx3.pset, table, 50000, 5)
    assert report.violations > 5 and len(report.witnesses) == 5
    for w in report.witnesses:
        assert relation_sum(w, ctx3.pset, table) != 0


@pytest.mark.parametrize(
    "d, flipped", [(2, []), (2, [0]), (2, [3, 8]), (3, []), (3, [7]), (3, slice(None, None, 10))]
)
def test_pair_sweep_equals_face_group_oracle(ctx2, ctx3, d, flipped):
    ctx = {2: ctx2, 3: ctx3}[d]
    signs = ctx.signature.signs.copy()
    signs[flipped] *= -1
    table = SignatureTable(ctx.pset, signs)
    report = verify_relations(ctx.graph, table)
    assert report == helpers.face_group_relation_sweep(ctx.pset, table)


@pytest.mark.parametrize(
    "d, flipped", [(2, []), (2, [0]), (2, [3, 8]), (3, [7]), (3, slice(None, None, 10))]
)
def test_full_sweep_violations_are_half_the_failing_flips(ctx2, ctx3, d, flipped):
    # each violated instance is one flip pair, failing from both of its ends
    ctx = {2: ctx2, 3: ctx3}[d]
    signs = ctx.signature.signs.copy()
    signs[flipped] *= -1
    failing = sum(len(rows) for _, rows in sign_failures(ctx.graph, signs))
    report = verify_relations(ctx.graph, SignatureTable(ctx.pset, signs))
    assert 2 * report.violations == failing and report.ok == (failing == 0)


@pytest.mark.parametrize(
    "d, flipped", [(2, []), (2, [0]), (3, []), (3, [7, 40000]), (3, slice(None, None, 10))]
)
@pytest.mark.parametrize("sample, seed", [(1, 0), (2000, 3), (30000, 17)])
def test_sampled_sweep_equals_per_term_oracle(ctx2, ctx3, d, flipped, sample, seed):
    # the member lookup of each term's code, against one plain binary search per term
    ctx = {2: ctx2, 3: ctx3}[d]
    signs = ctx.signature.signs.copy()
    signs[flipped] *= -1
    table = SignatureTable(ctx.pset, signs)
    report = verify_relations(ctx.graph, table, sample=sample, seed=seed)
    assert report == helpers.per_term_sampled_relation_sweep(ctx.pset, table, sample, seed)


def test_sampled_sweep_reads_only_the_instance_terms(ctx3):
    # face 0's column re-paired: still an involution without fixed points,
    # but no longer the flips, so a sweep that read partners off the table
    # would sum wrong pairs; the dense oracle never reads the table
    adjacency = ctx3.graph.adjacency.copy()
    column = adjacency[:, 0]
    first = np.flatnonzero(np.arange(len(column)) < column)
    second = np.roll(column[first], 1)
    column[first], column[second] = second, first
    assert np.array_equal(column[column], np.arange(len(column)))
    assert not np.any(column == ctx3.graph.adjacency[:, 0])
    graph = FlipGraph(ctx3.pset, adjacency, ctx3.graph.diff_counts)
    report = verify_relations(graph, ctx3.signature, sample=50000, seed=5)
    assert report == helpers.dense_sampled_relation_sweep(ctx3.pset, ctx3.signature, 50000, 5)
    assert report.ok


def test_relation_stream_yields_the_sampled_sweep_instances(ctx3):
    signs = ctx3.signature.signs.copy()
    signs[::10] *= -1
    table = SignatureTable(ctx3.pset, signs)
    report = verify_relations(ctx3.graph, table, sample=2000, seed=5)
    instances = list(relation_instances(3, sample=2000, seed=5))
    assert len(instances) == 2000
    broken = [inst for inst in instances if relation_sum(inst, ctx3.pset, table)]
    assert report.violations == len(broken) > 0
    # witnesses by multiset, then in draw order, which sorted() keeps within a multiset
    assert report.witnesses == sorted(broken, key=lambda inst: inst.color_multiset)[:5]


def test_full_sweep_witnesses_are_the_first_broken_stream_instances(ctx2):
    # every set of one or two flipped d = 2 signs: the witnesses are the
    # first five instances of the full stream whose own terms do not cancel
    stream = list(relation_instances(2))
    sets = [(i,) for i in range(12)] + list(combinations(range(12), 2))
    assert len(sets) == 78
    for flipped in sets:
        signs = ctx2.signature.signs.copy()
        signs[list(flipped)] *= -1
        table = SignatureTable(ctx2.pset, signs)
        report = verify_relations(ctx2.graph, table)
        broken = [inst for inst in stream if relation_sum(inst, ctx2.pset, table)]
        assert report.violations == len(broken) > 0
        assert report.witnesses == broken[:5], flipped


def test_relation_instance_counts():
    assert count_relation_instances(2) == 4 * 4 * 8 == 128
    assert count_relation_instances(3) == 20 * 10 * 3 ** 12 == 106_288_200
    instances = list(relation_instances(2))
    assert len(instances) == 128
    # two colors admit only monochrome and two-of-a-kind face multisets
    assert {len(inst.arrangements()) for inst in instances} == {1, 3}
    for inst in instances:
        assert len(inst.expansions()) == len(inst.arrangements())
    # three colors add the 6-term all-distinct multiset
    sizes = {
        len(inst.arrangements()) for inst in relation_instances(3, sample=200, seed=0)
    }
    assert sizes == {1, 3, 6}


def test_relation_sweep_d2_full_and_streaming(ctx2):
    report = verify_relations(ctx2.graph, ctx2.signature)
    assert report.ok and report.instances_checked == 128
    # the streaming route is the independent oracle for the vectorized sweep
    for inst in relation_instances(2):
        assert relation_sum(inst, ctx2.pset, ctx2.signature) == 0


def test_relation_sampled_mode(ctx3):
    report = verify_relations(ctx3.graph, ctx3.signature, sample=20000, seed=99)
    assert report.ok and report.instances_checked == 20000
    with pytest.raises(ValueError):
        verify_relations(ctx3.graph, ctx3.signature, sample=10)


@pytest.mark.parametrize("sample", [0, -2])
def test_sampled_modes_need_a_positive_sample(ctx2, sample):
    with pytest.raises(ValueError, match="sample of at least 1"):
        verify_relations(ctx2.graph, ctx2.signature, sample=sample, seed=1)
    with pytest.raises(ValueError, match="sample of at least 1"):
        list(relation_instances(2, sample=sample, seed=1))


def test_sampled_modes_refuse_a_negative_seed_and_d1(ctx2):
    with pytest.raises(ValueError, match="seed must be an int of at least 0, got -1"):
        verify_relations(ctx2.graph, ctx2.signature, sample=3, seed=-1)
    with pytest.raises(ValueError, match="seed must be an int of at least 0, got -1"):
        list(relation_instances(2, sample=3, seed=-1))
    with pytest.raises(ValueError, match="K_2 has none"):
        list(relation_instances(1, sample=3, seed=1))
    assert count_relation_instances(1) == 0 and type(count_relation_instances(1)) is int


def test_relation_sweep_detects_tampered_signature(ctx2):
    broken = np.array(ctx2.signature.signs, dtype=np.int8)
    broken[0] = -broken[0]
    from treedet.flips import SignatureTable

    report = verify_relations(ctx2.graph, SignatureTable(ctx2.pset, broken))
    assert not report.ok
    assert report.witnesses


def test_monochrome_face_instance_vanishes_because_cyclic(ctx2):
    inst = next(
        i for i in relation_instances(2) if len(set(i.color_multiset)) == 1
    )
    (colors,) = inst.expansions()
    p = EdgePartition(2, 4, colors)
    assert not is_cycle_free(p)  # the face itself is a monochrome triangle
    assert relation_sum(inst, ctx2.pset, ctx2.signature) == 0


def test_rank_certificate():
    assert rank_certify_d2(101) == 1
    assert rank_certify_d2(5) == 1
    assert rank_certify_d2(4294967311) == 1  # products of residues pass 2^63
    with pytest.raises(ValueError):
        rank_certify_d2(3)
    with pytest.raises(ValueError):
        rank_certify_d2(91)  # 7 * 13


def test_rank_against_rational_elimination():
    # independent route: rank of the same relation matrix over Q
    rows = []
    for inst in relation_instances(2):
        vec = [Fraction(0)] * 64
        for colors in inst.expansions():
            code = 0
            for c in colors:
                code = code * 2 + c
            vec[code] += 1
        rows.append(vec)
    m = [row[:] for row in rows]
    rank = 0
    for col in range(64):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    assert rank == 63
    assert 64 - rank == rank_certify_d2(101)


def test_gf_rank_small():
    assert len(row_reduce([[1, 2], [2, 4]], 5)[1]) == 1
    assert len(row_reduce([[1, 0], [0, 1]], 5)[1]) == 2
    assert len(row_reduce([[5, 10], [1, 3]], 5)[1]) == 1
    assert len(row_reduce(np.array([[5, 10], [1, 3]]), 5)[1]) == 1


def test_permute_tensor_moves_slots():
    vectors = unit_tensor(2)
    moved = permute_tensor((2, 1, 3, 4), vectors, 4)
    # slot (1,3) now holds the old (2,3) vector
    assert moved[1] == vectors[3]
    identity = permute_tensor((1, 2, 3, 4), vectors, 4)
    assert identity == vectors


def test_sigma_action_law_d2(ctx2):
    from treedet.symmetry import perm_sign

    rng = np.random.default_rng(40)
    for _ in range(25):
        vectors = helpers.rand_rational_tensor(rng, 2)
        sigma = tuple(int(v) + 1 for v in rng.permutation(4))
        lhs = det_eval(permute_tensor(sigma, vectors, 4), ctx2.pset, ctx2.signature)
        rhs = perm_sign(sigma) * det_eval(vectors, ctx2.pset, ctx2.signature)
        assert lhs == rhs


def test_matrix_action_law_d2(ctx2):
    rng = np.random.default_rng(41)
    for _ in range(25):
        vectors = helpers.rand_rational_tensor(rng, 2)
        T = [[helpers.rand_fraction(rng, 3) for _ in range(2)] for _ in range(2)]
        lhs = det_eval(transform_tensor(T, vectors, 4), ctx2.pset, ctx2.signature)
        rhs = matrix_determinant(T) ** 3 * det_eval(vectors, ctx2.pset, ctx2.signature)
        assert lhs == rhs


def test_singular_matrix_action_allowed(ctx2):
    vectors = unit_tensor(2)
    T = [[1, 1], [1, 1]]
    assert det_eval(transform_tensor(T, vectors, 4), ctx2.pset, ctx2.signature) == 0


def test_matrix_determinant():
    assert matrix_determinant([[2, 0], [0, 3]]) == 6
    assert matrix_determinant([[1, 2], [2, 4]]) == 0
    assert matrix_determinant([[0, 1], [1, 0]]) == -1
    assert matrix_determinant([["1/2", 1], [3, "4"]]) == Fraction(-1)
    with pytest.raises(ValueError):
        matrix_determinant([[1, 2]])


def test_zero_by_multiplicity():
    e1 = (1, 0, 0)
    other = unit_tensor(3)
    flooded = (e1,) * 6 + tuple(other[6:])
    assert zero_by_multiplicity(flooded, 3)
    assert not zero_by_multiplicity(unit_tensor(3), 3)
    assert zero_by_multiplicity(((1, 0, 0),) * 15, 3)
    with pytest.raises(ValueError):
        zero_by_multiplicity(((1, 1, 0),) * 15, 3)


def test_zero_by_multiplicity_forces_zero_determinant(ctx3):
    e1 = (1, 0, 0)
    flooded = (e1,) * 6 + tuple(unit_tensor(3)[6:])
    assert zero_by_multiplicity(flooded, 3)
    assert det_eval(flooded, ctx3.pset, ctx3.signature) == 0


def test_geometric_check_unit_input():
    report = geometric_check_d2(unit_tensor(2))
    assert not report.det_zero and not report.lambda_exists
    assert report.lambda_witness is None
    assert report.consistent


def test_geometric_check_quadrilateral():
    rng = np.random.default_rng(77)
    points = [tuple(helpers.rand_fraction(rng) for _ in range(2)) for _ in range(4)]
    from treedet.model import edge_list

    vectors = tuple(
        tuple(points[j - 1][c] - points[i - 1][c] for c in range(2))
        for (i, j) in edge_list(4)
    )
    report = geometric_check_d2(vectors)
    assert report.det_zero and report.lambda_exists
    # the all-ones lambda solves every face equation by telescoping
    from treedet.model import face_edge_indices, faces_of

    for face in faces_of(4):
        exy, exz, eyz = face_edge_indices(face, 4)
        for c in range(2):
            assert vectors[exy][c] + vectors[eyz][c] - vectors[exz][c] == 0
    # the reported witness is a nonzero solution as well
    lam = report.lambda_witness
    assert any(lam)
    for face in faces_of(4):
        exy, exz, eyz = face_edge_indices(face, 4)
        for c in range(2):
            assert lam[exy] * vectors[exy][c] + lam[eyz] * vectors[eyz][c] - lam[exz] * vectors[exz][c] == 0


def test_validate_prime():
    assert validate_prime(5) == 5
    assert validate_prime(101) == 101
    for bad in (2, 3, 4, 9, 91, 1):
        with pytest.raises(ValueError):
            validate_prime(bad)
    # every n below 3000 against trial division
    for n in range(5, 3000):
        is_prime = all(n % q for q in range(2, int(n ** 0.5) + 1))
        try:
            validate_prime(n)
            assert is_prime, n
        except ValueError:
            assert not is_prime, n
    # psi_t, the least strong pseudoprime to the first t prime bases, for
    # t = 1..7, 9 and 12: each is the first number of the range that
    # needs one more base, so an off-by-one range would accept it
    for bad in (
        2047,
        1373653,
        25326001,
        3215031751,
        2152302898747,
        3474749660383,
        341550071728321,
        3825123056546413051,
        318665857834031151167461,
    ):
        assert not helpers.mr13_is_prime(bad)
        with pytest.raises(ValueError, match="not prime"):
            validate_prime(bad)
    with pytest.raises(ValueError, match="cannot be certified"):
        validate_prime(2 ** 89 - 1)


def test_validate_prime_is_fast_for_large_primes():
    start = time.perf_counter()
    assert validate_prime(2 ** 61 - 1) == 2 ** 61 - 1
    assert validate_prime(2 ** 64 - 59) == 2 ** 64 - 59
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("p", [3037000493, 4294967311, 2 ** 61 - 1])
def test_large_prime_value_is_the_rational_residue(ctx3, p):
    # 3037000493 is the largest prime whose residue products fit in int64
    vectors = helpers.rand_int_tensor(np.random.default_rng(p % 1000), 3)
    rational = det_eval(vectors, ctx3.pset, ctx3.signature)
    assert rational.denominator == 1
    assert det_eval(vectors, ctx3.pset, ctx3.signature, p=p) == rational.numerator % p


def test_parse_scalar_is_strict():
    assert parse_scalar("-3/6") == Fraction(-1, 2)
    for bad in ("1/0", True, False, 1.5, None):
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_tensor_json_roundtrip():
    vectors = unit_tensor(2)
    doc = tensor_to_json(vectors, 2, 4)
    assert doc["field"] == "rational"
    back, d, p = tensor_from_json(doc)
    assert (back, d, p) == (vectors, 2, None)
    doc_p = tensor_to_json(vectors, 2, 4, p=101)
    back, d, p = tensor_from_json(doc_p)
    assert p == 101
    with pytest.raises(ValueError):
        tensor_from_json({"d": 2, "field": "complex", "vectors": []})
    for bad in ({**doc_p, "p": True}, {**doc_p, "p": 101.0}, {**doc, "d": True}):
        with pytest.raises(ValueError, match="must be an integer"):
            tensor_from_json(bad)

"""Acceptance suite: one test per exit criterion, each printing a
PASS line with the measured numbers (run with -s to see them live).

The heavyweight shared objects (partition sets, flip graphs, signature
tables, orbit tables) come from session fixtures, so the criteria
statements below time only their own work.
"""

import math
import time
from fractions import Fraction

import numpy as np

import helpers
from treedet import catalog
from treedet.algebra import (
    DET2_EXPLICIT_SIGN,
    det2_explicit,
    det_eval,
    geometric_check_d2,
    matrix_determinant,
    permute_tensor,
    rank_certify_d2,
    transform_tensor,
    unit_tensor,
    verify_relations,
)
from treedet.enumeration import enumerate_partitions
from treedet.flips import build_flip_graph, check_connected, flip, verify_flip_soundness
from treedet.model import edge_list, faces_of, normalize_face
from treedet.symmetry import (
    PermPair,
    act,
    epsilon_formula_check,
    match_catalog,
    orbit_decomposition,
    perm_sign,
    signature_character,
    stabilizer,
)


def _report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_01_counts():
    t0 = time.time()
    counts = {
        (3, False): len(enumerate_partitions(3, cycle_free=False)),
        (3, True): len(enumerate_partitions(3, cycle_free=True)),
        (2, True): len(enumerate_partitions(2, cycle_free=True)),
        (2, False): len(enumerate_partitions(2, cycle_free=False)),
    }
    elapsed = time.time() - t0
    assert counts[(3, False)] == 756756
    assert counts[(3, True)] == 66240
    assert counts[(2, True)] == 12
    assert counts[(2, False)] == 20
    assert elapsed < 60
    _report(1, f"counts 756756/66240/12/20 in {elapsed:.1f}s")


def test_criterion_02_flip_soundness_exhaustive(ctx3):
    report = verify_flip_soundness(ctx3.graph)
    assert report.pairs_checked == 66240 * 20
    assert report.diff_two + report.diff_three == report.pairs_checked
    assert report.involution_ok
    _report(
        2,
        f"all {report.pairs_checked} (partition, face) pairs have a unique "
        f"partner ({report.diff_two} change 2 edges, {report.diff_three} change 3); "
        f"double-flip is the identity",
    )


def test_criterion_03_signature_certificate(ctx2, ctx3):
    assert ctx3.signature.class_sizes() == (33120, 33120)
    signs3 = ctx3.signature.signs
    assert np.all(signs3[ctx3.graph.adjacency] == -signs3[:, None])
    assert ctx2.signature.class_sizes() == (6, 6)
    signs2 = ctx2.signature.signs
    assert np.all(signs2[ctx2.graph.adjacency] == -signs2[:, None])
    assert check_connected(ctx2.graph).n_components == 1
    _report(
        3,
        "d=3 bipartite 33120/33120 with all 662400 flip edges alternating; "
        "d=2 bipartite 6/6 and connected",
    )


def test_criterion_04_connectivity_report(ctx3):
    first = check_connected(ctx3.graph)
    rebuilt = build_flip_graph(enumerate_partitions(3, cycle_free=True))
    second = check_connected(rebuilt)
    assert first.n_components == second.n_components
    assert np.array_equal(ctx3.graph.adjacency, rebuilt.adjacency)
    note = (
        "transitive flip action, so the members are pairwise proportional in the quotient"
        if first.n_components == 1
        else "not transitive"
    )
    _report(4, f"d=3 flip graph has {first.n_components} component(s), stable across runs; {note}")


def test_criterion_05_orbits(orbits3):
    sizes = sorted((e.size for e in orbits3.entries), reverse=True)
    assert len(sizes) == 19
    assert sizes == [4320] * 14 + [2160, 1440, 720, 720, 720]
    assert sum(sizes) == 66240
    group_order = math.factorial(6) * math.factorial(3)
    assert all(e.size * e.stabilizer_order == group_order for e in orbits3.entries)
    report = match_catalog(orbits3)
    assert report.ok, report.mismatches
    for cid, expected in ((1, 1), (2, 6), (10, 2), (12, 3), (19, 6)):
        assert len(stabilizer(catalog.reference_partition(cid))) == expected
    _report(
        5,
        "19 orbits, size multiset {4320^14, 2160, 1440, 720^3}, "
        "orbit-stabilizer identity holds, catalog representatives all match",
    )


def test_criterion_06_epsilon_formula(ctx2, ctx3, orbits3):
    report = epsilon_formula_check(orbits3, ctx3.signature)
    assert report.ok, report.violations
    assert report.samples == 82080 and report.character == signature_character(3) == "sgn_tau"
    refs = catalog.reference_partitions()  # anchored at +1, relabeled by the whole group
    assert all(ctx3.signature.signature(r) == 1 for r in refs)
    oracle = helpers.searchsorted_parity_form_check(ctx3.signature, refs)
    assert oracle.samples == 82080 and oracle.counts["sgn_tau"] == 0
    d2 = epsilon_formula_check(orbit_decomposition(ctx2.pset), ctx2.signature)
    assert d2.character == "sgn_sigma_sgn_tau" and d2.samples == 48
    _report(
        6,
        "all 82080 relabelings of the 19 orbit roots follow sgn tau, and so do "
        "those of the 19 references; d=2 follows sgn sigma * sgn tau on all 48 "
        "group elements",
    )


def test_criterion_07_determinant_anchors(ctx2, ctx3):
    assert det_eval(unit_tensor(2), ctx2.pset, ctx2.signature) == 1
    assert det_eval(unit_tensor(3), ctx3.pset, ctx3.signature) == 1
    rng = np.random.default_rng(7001)
    for _ in range(100):
        vectors = helpers.rand_rational_tensor(rng, 2)
        assert det2_explicit(vectors) == DET2_EXPLICIT_SIGN * det_eval(
            vectors, ctx2.pset, ctx2.signature
        )
    _report(
        7,
        "determinant is exactly 1 on both generator inputs; the expanded "
        "12-term form agrees with the partition sum up to the frozen sign "
        f"{DET2_EXPLICIT_SIGN:+d} on 100 random rational inputs",
    )


def test_criterion_08_face_vanishing(ctx2, ctx3):
    rng = np.random.default_rng(8001)
    checked = 0
    for ctx in (ctx2, ctx3):
        d = ctx.pset.d
        for _ in range(1000):
            vectors = helpers.rand_rational_tensor(rng, d)
            vectors, _ = helpers.with_constant_face(rng, vectors, d)
            assert det_eval(vectors, ctx.pset, ctx.signature) == 0
            assert det_eval(vectors, ctx.pset, ctx.signature, p=101) == 0
            checked += 2
    _report(8, f"{checked} constant-face inputs vanish exactly (rationals and GF(101))")


def test_criterion_09_relation_sweeps(ctx2, ctx3):
    full2 = verify_relations(ctx2.graph, ctx2.signature)
    assert full2.ok and full2.instances_checked == 128
    t0 = time.time()
    full3 = verify_relations(ctx3.graph, ctx3.signature)
    elapsed = time.time() - t0
    assert full3.ok and full3.instances_checked == 106_288_200
    sampled = verify_relations(ctx3.graph, ctx3.signature, sample=1_000_000, seed=909)
    assert sampled.ok and sampled.instances_checked == 1_000_000
    _report(
        9,
        f"relation sums vanish: d=2 full (128), d=3 full (106288200, {elapsed:.1f}s), "
        "and 10^6 seeded samples",
    )


def test_criterion_10_rank_certificate():
    assert rank_certify_d2(101) == 1
    assert rank_certify_d2(5) == 1
    _report(10, "d=2 quotient dimension is 64 - 63 = 1 over GF(101) and GF(5)")


def test_criterion_11_action_laws(ctx2, ctx3):
    rng = np.random.default_rng(11001)

    for _ in range(1000):  # d=3 slot permutation: invariant
        vectors = helpers.rand_int_tensor(rng, 3, lo=-4, hi=4)
        sigma = tuple(int(v) + 1 for v in rng.permutation(6))
        assert det_eval(
            permute_tensor(sigma, vectors, 6), ctx3.pset, ctx3.signature
        ) == det_eval(vectors, ctx3.pset, ctx3.signature)

    for _ in range(1000):  # d=2 slot permutation: multiplies by sign
        vectors = helpers.rand_rational_tensor(rng, 2)
        sigma = tuple(int(v) + 1 for v in rng.permutation(4))
        assert det_eval(
            permute_tensor(sigma, vectors, 4), ctx2.pset, ctx2.signature
        ) == perm_sign(sigma) * det_eval(vectors, ctx2.pset, ctx2.signature)

    for _ in range(1000):  # d=3 matrix action: scales by det^5 (integer T)
        vectors = helpers.rand_int_tensor(rng, 3, lo=-2, hi=2)
        T = [[int(x) for x in rng.integers(-2, 3, size=3)] for _ in range(3)]
        lhs = det_eval(transform_tensor(T, vectors, 6), ctx3.pset, ctx3.signature)
        rhs = matrix_determinant(T) ** 5 * det_eval(vectors, ctx3.pset, ctx3.signature)
        assert lhs == rhs

    for _ in range(25):  # T in halves: the front end clears each edge's denominators
        vectors = helpers.rand_int_tensor(rng, 3, lo=-2, hi=2)
        T = [[Fraction(int(rng.integers(-2, 3)), 2) for _ in range(3)] for _ in range(3)]
        lhs = det_eval(transform_tensor(T, vectors, 6), ctx3.pset, ctx3.signature)
        rhs = matrix_determinant(T) ** 5 * det_eval(vectors, ctx3.pset, ctx3.signature)
        assert lhs == rhs

    for _ in range(1000):  # d=2 matrix action: scales by det^3 (rational T)
        vectors = helpers.rand_rational_tensor(rng, 2, max_num=4)
        T = [[helpers.rand_fraction(rng, 3) for _ in range(2)] for _ in range(2)]
        lhs = det_eval(transform_tensor(T, vectors, 4), ctx2.pset, ctx2.signature)
        rhs = matrix_determinant(T) ** 3 * det_eval(vectors, ctx2.pset, ctx2.signature)
        assert lhs == rhs

    for _ in range(1000):  # flip equivariance under the relabeling action
        i = int(rng.integers(len(ctx3.pset)))
        member = ctx3.pset.partition(i)
        face = faces_of(6)[int(rng.integers(20))]
        sigma = tuple(int(v) + 1 for v in rng.permutation(6))
        tau = tuple(int(v) + 1 for v in rng.permutation(3))
        pair = PermPair(sigma, tau)
        partner = ctx3.pset.partition(ctx3.graph.neighbor(i, face))
        moved_face = normalize_face(*(sigma[v - 1] for v in face), 6)
        moved = act(pair, member)
        j = ctx3.pset.index_of(moved)
        assert act(pair, partner) == ctx3.pset.partition(
            ctx3.graph.neighbor(j, moved_face)
        )

    _report(
        11,
        "1000 seeded samples per law: slot-permutation invariance (d=3), "
        "sign scaling (d=2), matrix action scaling by det^(2d-1), and flip "
        "equivariance all hold exactly",
    )


def test_criterion_12_geometric_equivalence():
    rng = np.random.default_rng(12001)
    zeros = 0
    for _ in range(1000):
        vectors = helpers.rand_rational_tensor(rng, 2, max_num=4)
        report = geometric_check_d2(vectors)
        assert report.consistent
        zeros += report.det_zero
    for _ in range(50):
        points = [tuple(helpers.rand_fraction(rng) for _ in range(2)) for _ in range(4)]
        vectors = tuple(
            tuple(points[j - 1][c] - points[i - 1][c] for c in range(2))
            for (i, j) in edge_list(4)
        )
        report = geometric_check_d2(vectors)
        assert report.det_zero and report.lambda_exists
    _report(
        12,
        f"det=0 and nonzero-lambda agree on 1000 random inputs ({zeros} vanishing) "
        "and on 50 quadrilateral-direction inputs (all vanishing)",
    )

"""Property tests: the diagram build on signed subsets against the
prefix-rescan oracle, the diagram determinant against the enumerative oracle
(also with product bounds on both sides of the float64 and int64
limits), each level's dtype run against the whole-diagram oracles over
Q and GF(p), GF(p) against the rational residue (small entries, and
full-size residues that force the mod-p pass), validate_prime against
Miller-Rabin with all 13 bases, `det --input` on arbitrary JSON, and
row_reduce over Q and GF(p) against the Leibniz determinant and the
largest nonzero minor."""

import contextlib
import io
import json
import math
import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

import helpers
from treedet.algebra import det_eval, row_reduce, validate_prime
from treedet.cli import main
from treedet.context import standard_context
from treedet.diagram import SignedDiagram

EDGES = {d: d * (2 * d - 1) for d in (1, 2, 3)}


def tensors(d, scalars):
    return st.lists(
        st.lists(scalars, min_size=d, max_size=d), min_size=EDGES[d], max_size=EDGES[d]
    )


small_ints = st.integers(-8, 8)
fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))
huge_ints = st.integers(-(10 ** 40), 10 ** 40)

# the slow d = 3 oracles stop at their first counterexample: each example
# takes up to half a second, and shrinking one ran past ten minutes
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("scalars", [small_ints, fractions], ids=["int", "rational"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_diagram_equals_enumerative_oracle(d, scalars, data):
    ctx = standard_context(d)
    vectors = data.draw(tensors(d, scalars))
    expected = helpers.enumerative_det_eval(vectors, ctx.pset, ctx.signature)
    assert det_eval(vectors, ctx.pset, ctx.signature) == expected


@pytest.mark.parametrize("d, examples", [(1, 20), (2, 20), (3, 3)])
def test_diagram_equals_enumerative_oracle_on_huge_entries(d, examples):
    # the d = 3 oracle takes about half a second per call on such entries;
    # zeros are drawn often so that zero edge vectors sit next to huge ones
    huge = st.one_of(st.just(0), huge_ints, st.builds(Fraction, huge_ints, huge_ints.filter(bool)))

    @settings(max_examples=examples, deadline=None, phases=NO_SHRINK)
    @given(vectors=tensors(d, huge))
    def check(vectors):
        ctx = standard_context(d)
        expected = helpers.enumerative_det_eval(vectors, ctx.pset, ctx.signature)
        assert det_eval(vectors, ctx.pset, ctx.signature) == expected

    check()


@pytest.mark.parametrize("limit", [53, 63])
@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
@given(data=st.data())
def test_diagram_equals_enumerative_oracle_across_the_dtype_limits(limit, data):
    # small entries scaled on every edge, and once more on one edge, so
    # that the product bound lands between 2^(limit - 2) and 2^(limit + 1)
    nonzero = st.lists(st.integers(-2, 2), min_size=3, max_size=3).filter(any)
    vectors = data.draw(st.lists(nonzero, min_size=15, max_size=15))
    target = data.draw(st.integers(2 ** (limit - 1), 2 ** (limit + 1)))
    rest = target // math.prod(sum(map(abs, row)) for row in vectors)
    r = int(rest ** (1 / 15))
    k = data.draw(st.integers(0, 14))
    scales = [r * (max(1, rest // r ** 15) if e == k else 1) for e in range(15)]
    vectors = [[x * scale for x in row] for row, scale in zip(vectors, scales)]
    ctx = standard_context(3)
    expected = helpers.enumerative_det_eval(vectors, ctx.pset, ctx.signature)
    assert det_eval(vectors, ctx.pset, ctx.signature) == expected
    p = 4294967311
    assert det_eval(vectors, ctx.pset, ctx.signature, p=p) == expected % p


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), share=st.sampled_from([1e-4, 1e-3, 0.02, 0.3, 1.0]))
def test_diagram_levels_of_signed_subsets_equal_the_prefix_rescan_oracle(seed, share):
    # code-sorted subsets of the d = 3 set with random signs: levels with
    # many rows for their key range dedupe by a seen-table (the bottom ones
    # of large subsets), the others by a sort (nearly all of small subsets)
    ctx = standard_context(3)
    rng = np.random.default_rng(seed)
    keep = rng.random(len(ctx.pset)) < share
    keep[rng.integers(len(keep))] = True
    colors, codes = ctx.pset.colors[keep], ctx.pset.codes[keep]
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=len(codes))
    levels = SignedDiagram(colors, codes, signs, 3).levels
    for level, oracle in zip(levels, helpers.prefix_rescan_levels(colors, codes, signs, 3), strict=True):
        assert level.dtype == oracle.dtype and level.flags.f_contiguous
        assert np.array_equal(level, oracle)


# the primes of test_flat_pass_equals_level_pass_oracle: the mod-p pass
# unsplit, split into 16-bit halves (the last two int64 primes at d = 3),
# and in Python ints
PRIMES = (101, 2147483647, 3037000493, 4294967311, 897747452029, 897747452117)


@settings(max_examples=30, deadline=None, phases=NO_SHRINK)
@given(data=st.data())
def test_level_runs_equal_the_whole_diagram_oracles(data):
    # every edge row scaled by about 2^u for a drawn u in [0, 12], so the
    # suffix bounds cross 2^53 and 2^63 at drawn levels, or never
    nonzero = st.lists(st.integers(-2, 2), min_size=3, max_size=3).filter(any)
    rows = data.draw(st.lists(nonzero, min_size=15, max_size=15))
    scale = st.integers(0, 12).flatmap(lambda u: st.integers(2 ** u, 2 ** (u + 1) - 1))
    scales = data.draw(st.lists(scale, min_size=15, max_size=15))
    vectors = [[x * r for x in row] for row, r in zip(rows, scales)]
    ctx = standard_context(3)
    diagram = ctx.signature.diagram
    value = det_eval(vectors, ctx.pset, ctx.signature)
    assert value == helpers.enumerative_det_eval(vectors, ctx.pset, ctx.signature)
    assert value == helpers.level_pass_evaluate(diagram, vectors, object)
    for p in PRIMES:
        residues = [[x % p for x in row] for row in vectors]
        oracle_dtype = np.int64 if (p - 1) ** 2 < 2 ** 63 else object
        expected = helpers.level_pass_evaluate(diagram, residues, oracle_dtype, p)
        assert det_eval(vectors, ctx.pset, ctx.signature, p=p) == expected


@settings(max_examples=300, deadline=None)
@given(
    n=st.one_of(st.integers(2, 10 ** 7), st.integers(2, 2 ** 63 - 1)).map(lambda k: 2 * k + 1)
)
def test_validate_prime_equals_the_13_base_test(n):
    try:
        validate_prime(n)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == helpers.mr13_is_prime(n)


def next_prime(n):
    while True:
        try:
            return validate_prime(n)
        except ValueError:
            n += 2


@settings(max_examples=15, deadline=None)
@given(
    vectors=tensors(3, st.builds(Fraction, st.integers(-50, 50), st.integers(1, 4))),
    start=st.integers(3, 2 ** 63 - 2000).map(lambda k: 2 * k + 1),
)
def test_gfp_value_is_the_rational_residue(vectors, start):
    p = next_prime(start)
    assert p < 2 ** 64
    ctx = standard_context(3)
    rational = det_eval(vectors, ctx.pset, ctx.signature)
    assert det_eval(vectors, ctx.pset, ctx.signature, p=p) == helpers.residue(rational, p)


@pytest.mark.parametrize("p", [101, 2147483647, 3037000493, 4294967311])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_mod_p_pass_on_full_size_residues(p, data):
    # every first coordinate has a balanced residue of at least p/4, so the
    # product bound passes 2^63 and det_eval takes the mod-p pass
    big, full = st.integers(p // 4 + 1, p - p // 4 - 1), st.integers(0, p - 1)
    vectors = data.draw(st.lists(st.tuples(big, full, full), min_size=15, max_size=15))
    ctx = standard_context(3)
    rational = det_eval(vectors, ctx.pset, ctx.signature)
    assert det_eval(vectors, ctx.pset, ctx.signature, p=p) == helpers.residue(rational, p)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
scalar_like = st.one_of(
    st.integers(-5, 5),
    st.sampled_from(["1/2", "-3", "0", "x", "1/0", "2/4", " 1"]),
    json_values,
)
near_valid_docs = st.fixed_dictionaries(
    {
        "d": st.one_of(st.sampled_from([1, 2, 3]), json_values),
        "field": st.one_of(st.sampled_from(["rational", "gfp"]), json_values),
        "vectors": st.one_of(
            st.sampled_from([1, 2, 3]).flatmap(lambda d: tensors(d, scalar_like)),
            json_values,
            st.lists(st.one_of(json_values, st.lists(scalar_like, max_size=4)), max_size=16),
        ),
    },
    optional={"p": st.one_of(st.sampled_from([5, 7, 101, 4294967311, 9]), json_values)},
)
# well-formed but for the values: these reach det_eval, or fail on p or a denominator
shaped_docs = st.sampled_from([1, 2, 3]).flatmap(
    lambda d: st.fixed_dictionaries(
        {
            "d": st.just(d),
            "field": st.sampled_from(["rational", "gfp"]),
            "p": st.sampled_from([5, 7, 101, 4294967311, 9]),
            "vectors": tensors(d, st.one_of(st.integers(-5, 5), st.sampled_from(["1/2", "-7/5", " 3"]))),
        }
    )
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=st.one_of(json_values, near_valid_docs, shaped_docs))
def test_det_input_never_exits_one_or_three(doc):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["det", "--input", path])
    finally:
        os.unlink(path)
    assert code in (0, 2), err.getvalue()
    assert (code == 0) == (out.getvalue() != "")


def _entries(p):
    if p is None:
        return st.one_of(st.integers(-2, 2), fractions)
    return st.one_of(st.integers(-2, 2), st.integers(-2 * p, 2 * p), st.just(p))


@pytest.mark.parametrize("p", [None, 5, 101, 2 ** 31 - 1, 4294967311])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_row_reduce_equals_the_elimination_free_oracles(p, data):
    n_rows, n_cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    rows = data.draw(
        st.lists(st.lists(_entries(p), min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows)
    )
    reduced, pivots, det = row_reduce(rows, p)
    assert len(pivots) == helpers.minor_rank(rows, p)
    assert det == (helpers.leibniz_determinant(rows, p) if n_rows == n_cols else 0)
    for k, col in enumerate(pivots):  # reduced row echelon form
        assert [row[col] for row in reduced] == [int(i == k) for i in range(n_rows)]
    assert not any(any(row) for row in reduced[len(pivots):])
    free = [c for c in range(n_cols) if c not in pivots]
    if free:  # the kernel vector that geometric_check_d2 reads off the reduced rows
        v = [0] * n_cols
        v[free[0]] = 1
        for row, col in zip(reduced, pivots):
            v[col] = -row[free[0]]
        products = [sum(a * x for a, x in zip(row, v)) for row in rows]
        assert all((y if p is None else y % p) == 0 for y in products)

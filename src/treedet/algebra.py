"""Exact multilinear algebra over the partition sets.

The central map assigns to a tuple of vectors (v_ij), one vector of
dimension d per edge of K_{2d}, the signed sum over all homogeneous
cycle-free partitions of the product of selected coordinates: class c
owns its edges' coordinate number c, and each partition contributes its
signature times that monomial.  The map is multilinear, normalized to 1
on the nested generator input, and vanishes whenever the three vectors
of some face coincide; those vanishing sums are exactly the face
relations swept by verify_relations.  The nonzero terms of one relation
instance are the members of one face group, and the flip graph has
certified that every such group is one flip pair, so the full sweep is
one sum s_i + s_partner per pair and never visits the instances that no
member reaches.

det_eval walks the signature table's reduced decision diagram (see
diagram.py) bottom-up in one flat pass.  Each edge vector is scaled to
integers by the lcm of its denominators, and, over GF(p) for a prime
p > 3, taken to balanced residues in (-p/2, p/2].  The product over the
edges from level k down of each vector's absolute coordinate sum (at
least 1, so a zero vector cannot hide a huge neighbour) bounds every
value of that level, and each level runs in the cheapest exact dtype
its own bound allows: float64 below 2^53, int64 below 2^63, and above
that Python ints over Q, or over GF(p) the mod-p pass (in int64 for p
below about 9 * 10^11 at d = 3).  The form has integer coefficients, so
a root reached without the mod-p pass is reduced mod p once.  Every
result is exact.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from typing import Iterable, Optional

import numpy as np

from .enumeration import PartitionSet
from .flips import FlipGraph, SignatureTable, group_keys, sorted_face_keys
from .model import (
    EdgePartition,
    edge_count,
    edge_index,
    edge_list,
    face_edge_indices,
    faces_of,
    json_int,
)

Tensor = tuple  # one d-coordinate vector per edge, lexicographic edge order


# Miller-Rabin with the first t prime bases decides primality exactly
# below psi_t, the least strong pseudoprime to all of them (Jaeschke,
# Math. Comp. 1993, up to psi_8; Jiang & Deng, Math. Comp. 2014, psi_9
# to psi_11; Sorenson & Webster, Math. Comp. 2017, psi_12 and psi_13).
# Each p uses the shortest prefix of the bases up to 41 that its range
# allows; psi_7 = psi_8 and psi_9 = psi_10 = psi_11, so t = 8, 10 and 11
# never occur.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_RANGES = (  # (psi_t, t)
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (3317044064679887385961981, 13),
)
_MR_EXACT_BELOW = _MR_RANGES[-1][0]


def validate_prime(p: int) -> int:
    if p in (2, 3):
        raise ValueError("characteristic 2 and 3 are excluded")
    if p >= _MR_EXACT_BELOW:
        raise ValueError(f"primality of {p} cannot be certified above {_MR_EXACT_BELOW}")
    if p < 5 or not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin for 5 <= p < _MR_EXACT_BELOW."""
    bases = _MR_BASES[: next(t for bound, t in _MR_RANGES if p < bound)]
    if any(p % q == 0 for q in bases):
        return p in bases
    odd = p - 1
    while odd % 2 == 0:
        odd //= 2
    for a in bases:  # a must reach p - 1 by squaring, or start at 1
        x, e = pow(a, odd, p), odd
        while e != p - 1 and x not in (1, p - 1):
            x, e = x * x % p, e * 2
        if x != p - 1 and e % 2 == 0:
            return False
    return True


def parse_scalar(text) -> Fraction:
    """Accept ints, Fractions, and 'a/b' or 'a' strings; anything else,
    booleans and zero denominators included, raises ValueError."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, bool) or not isinstance(text, (int, str)):
        raise ValueError(f"cannot parse scalar {text!r} (floats and booleans are refused)")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"cannot parse scalar {text!r}: zero denominator") from exc


def format_scalar(x) -> str:
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return str(x)


def _scalars(vectors, d: int, n: int) -> list:
    """The scalars edge by edge in one flat list, after as_tensor's checks:
    ints and Fractions as they are, anything else through parse_scalar."""
    if not isinstance(vectors, (list, tuple)) or not all(
        isinstance(vec, (list, tuple)) for vec in vectors
    ):
        raise ValueError("a tensor is a list of edge vectors, each a list of scalars")
    flat = [x if type(x) in (Fraction, int) else parse_scalar(x) for vec in vectors for x in vec]
    E = edge_count(n)
    if len(vectors) != E:
        raise ValueError(f"expected {E} edge vectors, got {len(vectors)}")
    if any(len(vec) != d for vec in vectors):
        raise ValueError(f"every edge vector must have {d} coordinates")
    return flat


def as_tensor(vectors, d: int, n: int) -> Tensor:
    """A list or tuple of edge vectors, each a list or tuple of scalars;
    anything else, strings and bare numbers included, raises ValueError."""
    return tuple(zip(*[map(Fraction, _scalars(vectors, d, n))] * d))


# ---------------------------------------------------------------------------
# the nested generator


def unit_partition(d: int) -> EdgePartition:
    """The distinguished basis-valued input normalizing the determinant.

    Built inductively: the K_{2d-2} block is the (d-1)-color generator;
    the two new columns alternate colors (d, s) and (s, d) on rows
    2s-1 and 2s, and the final new edge gets color d.  Colors here are
    0-based, so "color d" is d - 1.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    n = 2 * d
    colors = [0] * edge_count(n)
    for s in range(1, d + 1):
        m = 2 * s
        for i in range(1, m - 1):
            t = (i + 1) // 2
            if i % 2 == 1:
                colors[edge_index(i, m - 1, n)] = s - 1
                colors[edge_index(i, m, n)] = t - 1
            else:
                colors[edge_index(i, m - 1, n)] = t - 1
                colors[edge_index(i, m, n)] = s - 1
        colors[edge_index(m - 1, m, n)] = s - 1
    return EdgePartition(d, n, tuple(colors))


def unit_tensor(d: int) -> Tensor:
    """Basis-vector tensor matching unit_partition: the edge of color c
    carries the c-th basis vector."""
    part = unit_partition(d)
    return tuple(
        tuple(Fraction(1 if i == c else 0) for i in range(d)) for c in part.colors
    )


def basis_tensor(partition: EdgePartition) -> Tensor:
    """One-hot tensor whose edge vectors spell out a partition."""
    return tuple(
        tuple(Fraction(1 if i == c else 0) for i in range(partition.d))
        for c in partition.colors
    )


def unit_matrix_text(d: int) -> str:
    """The generator as an upper-triangular matrix of basis labels."""
    part = unit_partition(d)
    n = part.n
    cells = [["." for _ in range(n)] for _ in range(n)]
    for v in range(n):
        cells[v][v] = "1"
    for k, (i, j) in enumerate(edge_list(n)):
        cells[i - 1][j - 1] = f"e{part.colors[k] + 1}"
    width = max(len(c) for row in cells for c in row)
    return "\n".join(" ".join(c.rjust(width) for c in row) for row in cells)


# ---------------------------------------------------------------------------
# determinant evaluation

def _check_table(pset: PartitionSet, table: SignatureTable):
    if table.pset is not pset and not np.array_equal(table.codes, pset.codes):
        raise ValueError("signature table was built on a different partition set")


def det_eval(
    vectors,
    pset: PartitionSet,
    table: SignatureTable,
    p: Optional[int] = None,
):
    """Signed sum over the partition set of the edge-coordinate monomials.

    Each member partition contributes its signature times the product,
    over all edges, of the edge vector's coordinate selected by the
    edge's color.  Exact over the rationals (Fraction result) or over
    GF(p) (int result) for a prime p > 3.  The sum is one bottom-up pass
    over the table's decision diagram, each level in float64, int64,
    Python ints or residues mod p as its suffix bound allows (see the
    module docstring and SignedDiagram.evaluate).
    """
    d, n = pset.d, pset.n
    _check_table(pset, table)
    flat = _scalars(vectors, d, n)
    nums, dens, den = [x.numerator for x in flat], [x.denominator for x in flat], 1
    if dens.count(1) < len(dens):  # clear each edge's denominators
        lcms = list(map(math.lcm, *[iter(dens)] * d))
        nums = [x * (lcms[i // d] // y) for i, (x, y) in enumerate(zip(nums, dens))]
        den = math.prod(lcms)
    if p is None:
        return Fraction(int(table.diagram.evaluate(nums)), den)
    validate_prime(p)
    if den % p == 0:
        raise ValueError(f"a denominator of the tensor vanishes mod {p}")
    h = p // 2
    nums = [(x + h) % p - h for x in nums]
    # the form has integer coefficients, so any value congruent mod p will do
    return int(table.diagram.evaluate(nums, p)) * pow(den, -1, p) % p


# The twelve monomials of the d = 2 determinant in expanded form, written
# against coordinates a = first, b = second of the six edge vectors in
# lexicographic edge order; the first six carry +, the last six carry -.
_DET2_PLUS = (
    "a12 a23 a34 b13 b24 b14",
    "a12 b23 a34 b13 b24 a14",
    "a12 b23 b34 a13 a24 b14",
    "b12 b23 a34 a13 a24 b14",
    "b12 a23 b34 b13 a24 a14",
    "b12 a23 b34 a13 b24 a14",
)
_DET2_MINUS = (
    "b12 b23 b34 a13 a24 a14",
    "b12 a23 b34 a13 a24 b14",
    "b12 a23 a34 b13 b24 a14",
    "a12 a23 b34 b13 b24 a14",
    "a12 b23 a34 a13 b24 b14",
    "a12 b23 a34 b13 a24 b14",
)

# det2_explicit equals this constant times det_eval at d = 2.  The value
# was measured once by evaluating both forms on random rational inputs
# and is pinned by tests; it is a convention mismatch between the
# expanded polynomial and the signature normalization, not a bug.
DET2_EXPLICIT_SIGN = -1


def _parse_det2_term(term: str):
    factors = []
    for tok in term.split():
        coord = 0 if tok[0] == "a" else 1
        i, j = int(tok[1]), int(tok[2])
        factors.append((edge_index(i, j, 4), coord))
    return tuple(factors)


_DET2_TERMS = tuple((+1, _parse_det2_term(t)) for t in _DET2_PLUS) + tuple(
    (-1, _parse_det2_term(t)) for t in _DET2_MINUS
)


def det2_explicit(vectors):
    """Direct evaluation of the printed twelve-term d = 2 polynomial."""
    vectors = as_tensor(vectors, 2, 4)
    total = Fraction(0)
    for sign, factors in _DET2_TERMS:
        term = Fraction(sign)
        for (e, coord) in factors:
            term *= vectors[e][coord]
        total += term
    return total


# ---------------------------------------------------------------------------
# face relations

@dataclass(frozen=True)
class RelationInstance:
    """One face relation: a face, a color multiset for its three edges,
    and a fixed coloring of all remaining edges.

    The relation asserts that the signed sum over all distinct
    arrangements of the multiset on the face (1, 3, or 6 terms, all with
    coefficient +1) vanishes after projecting onto the homogeneous
    cycle-free partitions.
    """

    d: int
    n: int
    face: tuple[int, int, int]
    color_multiset: tuple[int, int, int]  # ascending, 0-based
    context: tuple  # colors of the non-face edges, lexicographic order

    def arrangements(self):
        return sorted(set(permutations(self.color_multiset)))

    def expansions(self):
        """Full color sequences of the relation's terms."""
        E = edge_count(self.n)
        pos = face_edge_indices(self.face, self.n)
        others = [k for k in range(E) if k not in pos]
        out = []
        for arr in self.arrangements():
            colors = [0] * E
            for k, c in zip(others, self.context):
                colors[k] = c
            for k, c in zip(pos, arr):
                colors[k] = c
            out.append(tuple(colors))
        return out


def count_relation_instances(d: int) -> int:
    n = 2 * d
    n_faces = len(faces_of(n))
    n_multisets = math.comb(d + 2, 3)
    return n_faces * n_multisets * d ** (edge_count(n) - 3)


def _sample_rng(sample: int, seed: Optional[int]) -> np.random.Generator:
    """The seeded generator of a sampled mode, which draws at least once."""
    if sample < 1:
        raise ValueError(f"sampled mode needs a sample of at least 1, got {sample}")
    if seed is None:
        raise ValueError("sampled mode needs an explicit seed")
    return np.random.default_rng(seed)


def relation_instances(
    d: int, *, sample: Optional[int] = None, seed: Optional[int] = None
) -> Iterable[RelationInstance]:
    """Stream relation instances, exhaustively or as a seeded sample.

    Full mode yields faces x multisets x contexts in lexicographic
    order; at d = 3 that is 106 288 200 instances, so prefer
    verify_relations for bulk checking and this stream for inspection.
    """
    n = 2 * d
    E = edge_count(n)
    multisets = list(combinations_with_replacement(range(d), 3))
    if sample is None:
        for face in faces_of(n):
            for ms in multisets:
                for ctx in product(range(d), repeat=E - 3):
                    yield RelationInstance(d, n, face, ms, ctx)
        return
    rng = _sample_rng(sample, seed)
    faces = faces_of(n)
    for _ in range(sample):
        face = faces[int(rng.integers(len(faces)))]
        ms = multisets[int(rng.integers(len(multisets)))]
        ctx = tuple(int(c) for c in rng.integers(0, d, size=E - 3))
        yield RelationInstance(d, n, face, ms, ctx)


@dataclass
class RelationReport:
    instances_checked: int
    violations: int
    witnesses: list  # up to 5 offending RelationInstance values
    mode: str

    @property
    def ok(self) -> bool:
        return self.violations == 0


def verify_relations(
    graph: FlipGraph,
    table: SignatureTable,
    *,
    sample: Optional[int] = None,
    seed: Optional[int] = None,
) -> RelationReport:
    """Check that every relation instance sums to zero.

    Each term of an instance is a single basis generator, so members of
    the set contribute their sign and everything else contributes 0.
    The members among an instance's terms are one flip pair of the
    graph (its face sweep aborts on any other group), so the instance
    sums to s_i + s_partner, or to 0 when no member is a term (it still
    counts as checked).  Full mode sums every pair; witnesses come in
    stream order: face, multiset, then context with the first non-face
    edge least significant.  Sampled mode draws seeded instances and
    looks each up once in the face's sorted pair keys (flips.sorted_face_keys).
    """
    pset = graph.pset
    d, n = pset.d, pset.n
    _check_table(pset, table)
    E = edge_count(n)
    faces = faces_of(n)
    multisets = list(combinations_with_replacement(range(d), 3))
    signs, adjacency = table.signs, graph.adjacency
    witnesses = []

    if sample is None:
        violations = 0
        ids = np.arange(len(pset), dtype=np.int32)
        for fi, face in enumerate(faces):
            partner = adjacency[:, fi]  # contiguous in the face-major table
            first = np.flatnonzero(ids < partner)
            bad = first[signs[first] + signs[partner[first]] != 0]
            violations += len(bad)
            if len(bad) and len(witnesses) < 5:
                pos = list(face_edge_indices(face, n))
                others = [k for k in range(E) if k not in pos]
                ms = np.sort(pset.colors[bad][:, pos], axis=1)
                ctx = pset.colors[bad][:, others]
                flat = ctx.astype(np.int64) @ d ** np.arange(E - 3, dtype=np.int64)
                for r in np.lexsort((flat, *ms.T[::-1]))[: 5 - len(witnesses)]:
                    ms_r, ctx_r = (tuple(int(c) for c in row) for row in (ms[r], ctx[r]))
                    witnesses.append(RelationInstance(d, n, face, ms_r, ctx_r))
        return RelationReport(count_relation_instances(d), violations, witnesses, mode="full")

    rng = _sample_rng(sample, seed)
    face_idx = rng.integers(0, len(faces), size=sample)
    ms_idx = rng.integers(0, len(multisets), size=sample)
    ctx_int = rng.integers(0, d ** (E - 3), size=sample, dtype=np.int64)
    # context codes come from two tables, one for each half of the context digits
    split = (E - 3) // 2
    high, low = np.divmod(ctx_int, d ** split)
    digits = [np.arange(d ** m)[:, None] // d ** np.arange(m) % d for m in (split, E - 3 - split)]
    ms_colors = np.array(multisets, dtype=np.int64)
    sums = np.zeros(sample, dtype=np.int16)
    for fi, face in enumerate(faces):
        pos = face_edge_indices(face, n)
        w = pset.weights[[k for k in range(E) if k not in pos]]  # digit j colors w[j]'s edge
        rows = np.flatnonzero(face_idx == fi)
        context = (digits[0] @ w[:split])[low[rows]] + (digits[1] @ w[split:])[high[rows]]
        keys = group_keys(d, context, *ms_colors[ms_idx[rows]].T)
        member_keys, order = sorted_face_keys(pset, face)
        member_keys, first = member_keys[0::2], order[0::2]  # one member of each pair, by key
        at = np.searchsorted(member_keys, keys)  # len(first) reads the appended sentinel
        hit = np.append(member_keys, -1)[at] == keys
        pair = first[at[hit]]
        sums[rows[hit]] = signs[pair] + signs[adjacency[pair, fi]]
    bad = np.flatnonzero(sums)
    for r in bad[np.lexsort((bad, ms_idx[bad]))][:5]:
        ctx = tuple(int(ctx_int[r]) // d ** j % d for j in range(E - 3))
        face, ms = faces[int(face_idx[r])], multisets[int(ms_idx[r])]
        witnesses.append(RelationInstance(d, n, face, ms, ctx))
    return RelationReport(sample, len(bad), witnesses, mode=f"sample({sample}, seed={seed})")


def relation_sum(inst: RelationInstance, pset: PartitionSet, table: SignatureTable) -> int:
    """Signed sum of one instance, term by term (the streaming route)."""
    total = 0
    for colors in inst.expansions():
        p = EdgePartition(inst.d, inst.n, colors)
        try:
            total += table.signature(p)
        except KeyError:
            pass
    return total


# ---------------------------------------------------------------------------
# exact row reduction, and the rank of the d = 2 relation space

def row_reduce(rows, p=None):
    """Gauss-Jordan elimination over Q, or over GF(p) in Python ints mod
    the prime p.

    Returns (reduced, pivots, det): the reduced row echelon rows, the
    pivot column of each nonzero row, and the determinant, which is 0
    unless the matrix is square and invertible.  Each pivot is the first
    nonzero entry at or below the current row.  Entries over Q go
    through parse_scalar; over GF(p) they must be integers.
    """
    if p is None:
        m = [[parse_scalar(x) for x in row] for row in rows]
    else:
        validate_prime(p)
        m = [[operator.index(x) % p for x in row] for row in rows]
    n_cols = len(m[0]) if m else 0
    if any(len(row) != n_cols for row in m):
        raise ValueError("rows of unequal length")
    reduce = (lambda x: x) if p is None else (lambda x: x % p)
    pivots, det = [], 1
    for col in range(n_cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            det = -det
        det = reduce(det * m[r][col])
        inv = 1 / m[r][col] if p is None else pow(m[r][col], -1, p)
        m[r] = [reduce(x * inv) for x in m[r]]
        nonzero = [(c, x) for c, x in enumerate(m[r]) if x]  # relation rows are sparse
        for i, row in enumerate(m):
            f = row[col]
            if f and i != r:
                for c, x in nonzero:
                    row[c] = reduce(row[c] - f * x)
        pivots.append(col)
    square = len(pivots) == len(m) == n_cols
    return m, pivots, (det if square else 0)


def rank_certify_d2(p: int) -> int:
    """Dimension of the d = 2 quotient over GF(p) by direct elimination.

    The 64 basis generators of the K_4 tensor space are spanned against
    all 128 relation vectors; the quotient dimension is 64 - rank.
    """
    E = edge_count(4)
    n_gens = 2 ** E
    rows = []
    for inst in relation_instances(2):
        vec = [0] * n_gens
        for colors in inst.expansions():
            code = 0
            for c in colors:
                code = code * 2 + c
            vec[code] += 1
        rows.append(vec)
    return n_gens - len(row_reduce(rows, p)[1])


# ---------------------------------------------------------------------------
# actions on tensors

def permute_tensor(sigma, vectors, n: int) -> Tensor:
    """Relabel the edge slots: slot (i, j) receives the vector formerly
    at (sigma^-1 i, sigma^-1 j)."""
    from .symmetry import vertex_perm_edge_map

    d = len(vectors[0])
    vectors = as_tensor(vectors, d, n)
    return tuple(vectors[k] for k in vertex_perm_edge_map(sigma, n))


def transform_tensor(matrix, vectors, n: int) -> Tensor:
    """Apply a d x d matrix to every edge vector (singular allowed)."""
    d = len(vectors[0])
    vectors = as_tensor(vectors, d, n)
    rows = [[parse_scalar(x) for x in row] for row in matrix]
    if len(rows) != d or any(len(r) != d for r in rows):
        raise ValueError(f"expected a {d} x {d} matrix")
    return tuple(
        tuple(sum(rows[i][j] * vec[j] for j in range(d)) for i in range(d))
        for vec in vectors
    )


def matrix_determinant(matrix) -> Fraction:
    """Exact determinant of a small square rational matrix."""
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("expected a square matrix")
    return Fraction(row_reduce(matrix)[2])


# ---------------------------------------------------------------------------
# vanishing predicates and the d = 2 geometric reading

def zero_by_multiplicity(vectors, d: int) -> bool:
    """True when some basis vector fills at least 2d edge slots.

    Only defined for basis-valued tensors (every edge vector one-hot).
    Such inputs can never be homogeneous, so the determinant vanishes.
    """
    n = 2 * d
    vectors = as_tensor(vectors, d, n)
    counts = [0] * d
    for vec in vectors:
        hot = [i for i, x in enumerate(vec) if x != 0]
        if len(hot) != 1 or vec[hot[0]] != 1:
            raise ValueError("tensor is not basis-valued")
        counts[hot[0]] += 1
    return max(counts) >= 2 * d


@dataclass
class GeometricReport:
    det_zero: bool
    lambda_exists: bool
    lambda_witness: Optional[tuple]

    @property
    def consistent(self) -> bool:
        return self.det_zero == self.lambda_exists


def geometric_check_d2(vectors) -> GeometricReport:
    """d = 2 equivalence: the determinant vanishes exactly when some
    nonzero symmetric lambda solves, for every face (x, y, z),

        lambda_xy v_xy + lambda_yz v_yz + lambda_zx v_zx = 0,

    with the conventions lambda_ij = lambda_ji and v_ij = -v_ji.
    Reports both sides and a witness lambda when one exists.
    """
    vectors = as_tensor(vectors, 2, 4)
    rows = []
    for face in faces_of(4):
        x, y, z = face
        exy, exz, eyz = face_edge_indices(face, 4)
        for coord in range(2):
            row = [Fraction(0)] * 6
            row[exy] += vectors[exy][coord]
            row[eyz] += vectors[eyz][coord]
            row[exz] -= vectors[exz][coord]  # v_zx = -v_xz
            rows.append(row)
    reduced, pivots, _ = row_reduce(rows)
    free = [c for c in range(6) if c not in pivots]
    witness = None
    if free:  # the first free column set to 1, each pivot column read off its row
        vec = [Fraction(0)] * 6
        vec[free[0]] = Fraction(1)
        for row, col in zip(reduced, pivots):
            vec[col] = -row[free[0]]
        witness = tuple(vec)
    from .context import standard_context

    ctx = standard_context(2)
    det = det_eval(vectors, ctx.pset, ctx.signature)
    return GeometricReport(det == 0, witness is not None, witness)


# ---------------------------------------------------------------------------
# tensor JSON

def tensor_to_json(vectors, d: int, n: int, p: Optional[int] = None) -> dict:
    vectors = as_tensor(vectors, d, n)
    doc = {
        "d": d,
        "field": "rational" if p is None else "gfp",
        "vectors": [[format_scalar(x) for x in vec] for vec in vectors],
    }
    if p is not None:
        doc["p"] = p
    return doc


def tensor_from_json(doc: dict):
    """Returns (vectors, d, p_or_None)."""
    try:
        d = json_int(doc["d"], "d")
        field = doc["field"]
        raw = doc["vectors"]
        p = json_int(doc["p"], "p") if field == "gfp" else None
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed tensor object: {exc}") from exc
    if field == "gfp":
        validate_prime(p)
    elif field != "rational":
        raise ValueError(f"unknown field {field!r}")
    vectors = as_tensor(raw, d, 2 * d)
    return vectors, d, p

"""Independent oracles and input generators shared by the tests.

Everything in here deliberately avoids the library's own data paths:
the enumeration oracle walks all colorings directly, the flip oracle
re-derives partners from first principles, and the tensor generators
only use numpy RNGs and fractions.

The last section keeps the library's earlier algorithms, replaced by
faster kernels, as reference implementations: the depth-first
enumeration and the numpy one that grows all admissible edge prefixes,
the union-find orbit closure and the breadth-first one over the
generator images, the relabeling of color rows by Horner's rule over the
moved edge columns and the exhaustive parity-form check that relabels
its references a second time and looks the images up by one plain
binary search, the pair-by-pair stabilizer loop,
the enumerative determinant (one product per member partition), the
decision-diagram build that rescans every row at each level, the
decision-diagram pass one color at a time (per level a gather, a product
and an add for each color), the relation sweeps over a dense
code-indexed sign table (full mode with precomputed context digit
columns, and sampled mode), the full relation sweep over the face groups
(sorted by np.lexsort) and the sampled one that looks up every term, the
flip that tries all d^3 - 1 other colorings of a face, where flip()
tries only the other arrangements of its colors, the face sweep over
all candidate recolorings (with its (N, C(2d,3)) table
of changed face edges), the flip-soundness check that reads the strided
columns of the flip table, the min-label hooking components kernel and
the two-coloring read off it on the parity double cover of the flip
graph, the sampled check of the d = 3 parity form, the acyclic-subset
table filled one mask at a time, Miller-Rabin with all 13 prime bases up
to 41 for every number, and the determinant and rank of a matrix by
Leibniz expansion and by its largest nonzero minor, without elimination.
"""

import functools
import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product

import numpy as np

K4_EDGES = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def _acyclic(edge_subset, n=4):
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for (i, j) in edge_subset:
        ri, rj = find(i), find(j)
        if ri == rj:
            return False
        parent[ri] = rj
    return True


def oracle_enumerate_d2(cycle_free=True):
    """All homogeneous (cycle-free) 2-colorings of K_4, as color tuples."""
    found = []
    for colors in product((0, 1), repeat=6):
        if sum(colors) != 3:
            continue
        if cycle_free:
            cls0 = [e for e, c in zip(K4_EDGES, colors) if c == 0]
            cls1 = [e for e, c in zip(K4_EDGES, colors) if c == 1]
            if not (_acyclic(cls0) and _acyclic(cls1)):
                continue
        found.append(colors)
    return found


def oracle_flip_d2(colors, face):
    """Flip partner of a d = 2 coloring of K_4, derived from scratch."""
    pos = [K4_EDGES.index(tuple(sorted((face[a], face[b])))) for a, b in ((0, 1), (0, 2), (1, 2))]
    valid = set(oracle_enumerate_d2())
    survivors = []
    for cand in product((0, 1), repeat=3):
        trial = list(colors)
        for k, c in zip(pos, cand):
            trial[k] = c
        trial = tuple(trial)
        ndiff = sum(1 for k in pos if trial[k] != colors[k])
        if ndiff >= 2 and trial in valid:
            survivors.append(trial)
    assert len(survivors) == 1, survivors
    return survivors[0]


def rand_fraction(rng, max_num=8, denominators=(1, 2, 3)):
    num = int(rng.integers(-max_num, max_num + 1))
    den = int(denominators[rng.integers(len(denominators))])
    return Fraction(num, den)


def rand_int_tensor(rng, d, lo=-8, hi=8):
    """Integer-valued edge vectors for K_{2d}."""
    n = 2 * d
    E = n * (n - 1) // 2
    return tuple(
        tuple(Fraction(int(x)) for x in rng.integers(lo, hi + 1, size=d)) for _ in range(E)
    )


def rand_rational_tensor(rng, d, max_num=8, denominators=(1, 2, 3)):
    """Rational edge vectors; the coordinates of one edge share a
    denominator, so clearing denominators keeps numerators small."""
    n = 2 * d
    E = n * (n - 1) // 2
    out = []
    for _ in range(E):
        den = int(denominators[rng.integers(len(denominators))])
        out.append(
            tuple(Fraction(int(x), den) for x in rng.integers(-max_num, max_num + 1, size=d))
        )
    return tuple(out)


def with_constant_face(rng, vectors, d, n=None):
    """Overwrite a random face's three edges with one shared vector."""
    from treedet.model import face_edge_indices, faces_of

    n = n or 2 * d
    faces = faces_of(n)
    face = faces[int(rng.integers(len(faces)))]
    den = int((1, 2, 3)[rng.integers(3)])
    shared = tuple(Fraction(int(x), den) for x in rng.integers(-8, 9, size=d))
    vectors = list(vectors)
    for k in face_edge_indices(face, n):
        vectors[k] = shared
    return tuple(vectors), face


# ---------------------------------------------------------------------------
# earlier library algorithms, kept as references for the numpy kernels


def dfs_blob(d, cycle_free):
    """All valid colorings in code order, concatenated as raw bytes, by a
    depth-first scan with per-color budgets and union-find."""
    from treedet.model import edge_list

    n = 2 * d
    edges = edge_list(n)
    E = len(edges)
    budget = [2 * d - 1] * d
    colors = bytearray(E)
    # per-color union-find without path compression so moves undo in O(1)
    parent = [list(range(n + 1)) for _ in range(d)]
    size = [[1] * (n + 1) for _ in range(d)]
    out = []

    def find(par, x):
        while par[x] != x:
            x = par[x]
        return x

    def place(k, c):
        """Try to color edge k with c; return an undo token or None."""
        if budget[c] == 0:
            return None
        if cycle_free:
            i, j = edges[k]
            par, sz = parent[c], size[c]
            ri, rj = find(par, i), find(par, j)
            if ri == rj:
                return None
            if sz[ri] < sz[rj]:
                ri, rj = rj, ri
            par[rj] = ri
            sz[ri] += sz[rj]
        else:
            ri = rj = 0
        budget[c] -= 1
        colors[k] = c
        return (c, ri, rj)

    def unplace(token):
        c, ri, rj = token
        budget[c] += 1
        if cycle_free:
            parent[c][rj] = rj
            size[c][ri] -= size[c][rj]

    def rec(k):
        if k == E:
            out.append(bytes(colors))
            return
        for c in range(d):
            token = place(k, c)
            if token is None:
                continue
            rec(k + 1)
            unplace(token)

    rec(0)
    return b"".join(out)


def prefix_enumeration(d, cycle_free):
    """The (N, E) color array of the set, grown one edge at a time as all
    admissible prefixes: each prefix is extended by the colors 0..d-1 in
    order while the color is under its budget and, in cycle-free mode,
    its edge bitmask stays acyclic, so the rows come out code-sorted."""
    from treedet.model import edge_count

    n = 2 * d
    E = edge_count(n)
    budget = 2 * d - 1
    acyc = acyclic_mask_table(n) if cycle_free else None
    colors = np.zeros((1, E), dtype=np.uint8)
    counts = np.zeros((1, d), dtype=np.uint8)  # edges per color so far
    masks = np.zeros((1, d), dtype=np.int64)  # edge bitmask per color so far
    for k in range(E):
        ok = counts < budget
        if cycle_free:
            ok &= acyc[masks | (1 << k)]
        # row-major order: prefix first, then color, so rows stay code-sorted
        rows, new = np.nonzero(ok)
        colors = colors[rows]
        colors[:, k] = new
        at = (np.arange(len(rows)), new)
        counts = counts[rows]
        counts[at] += 1
        if cycle_free:
            masks = masks[rows]
            masks[at] |= 1 << k
    return colors


def generator_bfs_orbit_roots(pset):
    """Minimal member index of each orbit, by the breadth-first search of
    flips.bfs_levels over the adjacent transpositions of both factors.
    Raises OrbitClosureError on the first generator image that is not a
    member."""
    from treedet.flips import bfs_levels
    from treedet.model import EdgePartition
    from treedet.symmetry import OrbitClosureError, vertex_perm_edge_map

    n, d = pset.n, pset.d

    def images():
        for a in range(1, n):
            sigma = (*range(1, a), a + 1, a, *range(a + 2, n + 1))
            yield pset.colors[:, vertex_perm_edge_map(sigma, n)]
        for a in range(d - 1):
            yield np.array([*range(a), a + 1, a, *range(a + 2, d)], dtype=np.uint8)[pset.colors]

    neighbor_maps = []
    for moved in images():
        moved_codes = moved.astype(np.int64) @ pset.weights
        idx = np.searchsorted(pset.codes, moved_codes)
        missing = np.flatnonzero(np.append(pset.codes, -1)[idx] != moved_codes)
        if missing.size:
            raise OrbitClosureError(EdgePartition(d, n, tuple(int(c) for c in moved[missing[0]])))
        neighbor_maps.append(idx.astype(np.int32))
    return bfs_levels(np.stack(neighbor_maps, axis=1))[0]


def union_find_orbit_roots(pset):
    """Minimal member index of each orbit, by union-find closure under
    adjacent transpositions of both factors."""
    from treedet.symmetry import vertex_perm_edge_map

    n, d, N = pset.n, pset.d, len(pset)
    colors = pset.colors
    weights = pset.weights
    codes = pset.codes
    neighbor_maps = []
    for a in range(1, n):
        sigma = list(range(1, n + 1))
        sigma[a - 1], sigma[a] = sigma[a], sigma[a - 1]
        src = vertex_perm_edge_map(tuple(sigma), n)
        moved_codes = colors[:, src].astype(np.int64) @ weights
        neighbor_maps.append(np.searchsorted(codes, moved_codes).astype(np.int32))
    for a in range(d - 1):
        tmap = np.arange(d, dtype=np.uint8)
        tmap[a], tmap[a + 1] = tmap[a + 1], tmap[a]
        moved_codes = tmap[colors].astype(np.int64) @ weights
        neighbor_maps.append(np.searchsorted(codes, moved_codes).astype(np.int32))

    parent = np.arange(N, dtype=np.int32)

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for gmap in neighbor_maps:
        for i in range(N):
            a, b = find(i), find(int(gmap[i]))
            if a != b:
                parent[max(a, b)] = min(a, b)  # keep minimal index as root
    return np.array([find(i) for i in range(N)], dtype=np.int32)


def loop_stabilizer(partition):
    """Stabilizer inside S_{2d} x S_d, one (sigma, tau) pair at a time."""
    from treedet.symmetry import PermPair, _all_edge_maps

    n, d = partition.n, partition.d
    perms, maps = _all_edge_maps(n)
    base = np.array(partition.colors, dtype=np.uint8)
    taus = tuple(permutations(range(1, d + 1)))
    tau_maps = [np.array([t[c] - 1 for c in range(d)], dtype=np.uint8) for t in taus]
    found = []
    for sigma, src in zip(perms, maps):
        moved = base[src]
        for tau, tmap in zip(taus, tau_maps):
            if np.array_equal(tmap[moved], base):
                found.append(PermPair(sigma, tau))
    return found


def horner_image_codes(colors, n, d):
    """Canonical codes of the images of each row of `colors` under all of
    S_n x S_d, out[i, s, t] for (sigma_s, tau_t) in group_elements order,
    by Horner's rule over the edge columns moved by every sigma."""
    from treedet.model import edge_count
    from treedet.symmetry import _all_edge_maps

    E = edge_count(n)
    _, maps = _all_edge_maps(n)
    recolor = np.array(list(permutations(range(1, d + 1))), dtype=np.uint8).T - 1
    moved = np.asarray(colors, dtype=np.uint8)[:, maps.T]  # (rows, E, n!): edge-major
    codes = np.zeros((moved.shape[0], moved.shape[2], recolor.shape[1]), dtype=np.int64)
    for k in range(E):
        codes *= d
        codes += recolor[moved[:, k]]
    return codes


def plain_member_positions(members, queries):
    """The member lookup as one plain binary search over all queries."""
    return np.minimum(np.searchsorted(members, queries), len(members) - 1)


ORACLE_CHARACTERS = {
    "trivial": lambda sgn_sigma, sgn_tau: 1,
    "sgn_sigma": lambda sgn_sigma, sgn_tau: sgn_sigma,
    "sgn_tau": lambda sgn_sigma, sgn_tau: sgn_tau,
    "sgn_sigma_sgn_tau": lambda sgn_sigma, sgn_tau: sgn_sigma * sgn_tau,
}


def searchsorted_parity_form_check(table, refs):
    """s((sigma, tau) * refs[i]) = chi(sigma, tau) * s(refs[i]) for each
    of the four characters chi, over every group element and member
    reference: Horner image codes, one plain binary search, and perm_sign
    on every sigma and tau; an image outside the set reads as sign 0.
    The count and the first five violations of each character, in
    (reference, sigma, tau) order, with 0-based reference numbers."""
    from treedet.symmetry import EpsilonFormulaReport, perm_sign

    pset = table.pset
    perms = list(permutations(range(1, pset.n + 1)))
    taus = list(permutations(range(1, pset.d + 1)))
    base = np.array([r.colors for r in refs], dtype=np.uint8)
    codes = horner_image_codes(base, pset.n, pset.d)  # (reference, sigma, tau)
    pos = plain_member_positions(pset.codes, codes)
    got = np.where(pset.codes[pos] == codes, table.signs[pos], 0)
    ref_signs = np.array([table.signature(r) for r in refs])[:, None, None]
    sigma_signs = np.array([perm_sign(s) for s in perms])
    tau_signs = np.array([perm_sign(t) for t in taus])
    counts, violations = {}, {}
    for name, character in ORACLE_CHARACTERS.items():
        chi = character(sigma_signs[:, None], tau_signs)
        expected = np.broadcast_to(ref_signs * chi, got.shape)
        bad = np.argwhere(got != expected)
        counts[name] = len(bad)
        violations[name] = [
            (int(i), perms[s], taus[t], int(got[i, s, t]), int(expected[i, s, t]))
            for i, s, t in bad[:5]
        ]
    return EpsilonFormulaReport(samples=got.size, counts=counts, violations=violations)


_INT64_SAFE = 2 ** 62


def _segments(E, max_abs):
    """Split edge positions so every per-segment product fits in int64."""
    if max_abs <= 1:
        return [range(E)]
    per = max(1, int(62 // math.log2(max_abs + 1)))
    return [range(s, min(s + per, E)) for s in range(0, E, per)]


def _monomial_sum_int(colors, signs, nums):
    """Exact signed sum of per-partition products of integer entries:
    int64 products segment by segment, combined as Python ints, and plain
    Python products once an entry reaches 2^62."""
    N, E = colors.shape
    max_abs = max((abs(v) for row in nums for v in row), default=0)
    if max_abs >= _INT64_SAFE:
        total = 0
        for i in range(N):
            m = int(signs[i])
            for e in range(E):
                m *= nums[e][colors[i, e]]
                if m == 0:
                    break
            total += m
        return total
    parts = []
    for seg in _segments(E, max_abs):
        prod = np.ones(N, dtype=np.int64)
        for e in seg:
            prod *= np.asarray(nums[e], dtype=np.int64)[colors[:, e]]
        parts.append(prod)
    if len(parts) == 1:
        prod = parts[0] * signs
        bound = max_abs ** E if max_abs else 1
        chunk = max(1, int(_INT64_SAFE // max(bound, 1)))
        return sum(int(prod[s : s + chunk].sum()) for s in range(0, N, chunk))
    total_prod = parts[0].astype(object)
    for extra in parts[1:]:
        total_prod = total_prod * extra
    return int((total_prod * signs).sum())


def residue(x, p):
    """Image of an exact scalar in GF(p)."""
    from treedet.algebra import parse_scalar

    x = parse_scalar(x)
    if x.denominator % p == 0:
        raise ValueError(f"denominator of {x} vanishes mod {p}")
    return x.numerator * pow(x.denominator, -1, p) % p


# primes across the range that validate_prime accepts: small, 2^31 - 1, the
# first above 2^32, one near 2^40, the last below 2^63, the first above 2^64
# (2^64 + 13), and the largest below psi_13 = 3317044064679887385961981
PRIMES = (
    101,
    2147483647,
    4294967311,
    897747452029,
    9223372036854775783,
    18446744073709551629,
    3317044064679887385961813,
)


def enumerative_det_eval(vectors, pset, table, p=None):
    """The determinant form as one monomial per member partition."""
    from treedet.algebra import as_tensor, validate_prime

    vectors = as_tensor(vectors, pset.d, pset.n)
    colors, signs = pset.colors, table.signs
    if p is not None:
        validate_prime(p)
        dtype = np.int64 if (p - 1) ** 2 < 2 ** 63 else object
        vals = np.array([[residue(x, p) for x in vec] for vec in vectors], dtype=dtype)
        res = np.ones(len(pset), dtype=dtype)
        for e in range(colors.shape[1]):
            res = res * vals[e][colors[:, e]] % p
        return int((signs.astype(dtype) * res).sum() % p) % p
    dens = [math.lcm(*(x.denominator for x in vec)) for vec in vectors]
    nums = [[int(x * den) for x in vec] for vec, den in zip(vectors, dens)]
    total = _monomial_sum_int(colors, signs.astype(np.int64), nums)
    return Fraction(total, math.prod(dens))


def prefix_rescan_levels(colors, codes, signs, d):
    """The decision diagram's child tables, level by level from the bottom,
    each level rescanning all N rows: the groups of rows sharing k leading
    colors (a cumsum over the code prefixes), their child rows, and the
    distinct child rows by np.unique of one int64 key each, whose sorted
    order numbers the level's nodes."""
    N, E = colors.shape
    ids = (1 - signs.astype(np.intp)) // 2  # each row's node one level down
    n_below = 2  # the two terminals
    levels = [None] * E
    for k in range(E - 1, -1, -1):
        prefix = codes // d ** (E - k)
        starts = np.ones(N, dtype=bool)
        starts[1:] = prefix[1:] != prefix[:-1]
        group = np.cumsum(starts) - 1
        table = np.full((int(group[-1]) + 1, d), -1, dtype=np.intp)
        table[group, colors[:, k]] = ids
        base = n_below + 1
        key = np.zeros(len(table), dtype=np.int64)
        for c in range(d):  # digits in base n_below + 1
            key *= base
            key += table[:, c] + 1
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        levels[k] = np.asfortranarray(table[first])
        ids = inverse.reshape(-1)[group]
        n_below = len(first)
    return levels


def level_pass_evaluate(diagram, coeffs, dtype, p=None):
    """The diagram's bottom-up pass one color at a time: per level, one
    gather, one product and one add per nonzero coordinate, on values
    that end in a zero sentinel for the missing arcs (-1).  With p the
    coefficients are residues in [0, p), and every product and every
    node value is reduced mod p."""
    coeffs = np.array(coeffs, dtype=dtype)
    val = np.array([1, -1 if p is None else p - 1, 0], dtype=dtype)
    for k in range(len(diagram.levels) - 1, -1, -1):
        child = diagram.levels[k]
        out = np.zeros(len(child) + 1, dtype=dtype)
        acc = out[:-1]
        for c, factor in enumerate(coeffs[k]):
            if not factor:
                continue
            term = val[child[:, c]] * factor
            if p is not None:
                term %= p
            acc += term
        if p is not None:
            acc %= p
        val = out
    return val[0]


def digit_column_relation_sweep(pset, table):
    """Full-mode relation sweep that decodes every context from 3^(E-3)
    precomputed digit columns, held all at once."""
    from treedet.algebra import RelationInstance, RelationReport
    from treedet.model import face_edge_indices, faces_of

    d, n = pset.d, pset.n
    E = n * (n - 1) // 2
    dense = signature_lookup_table(pset, table)
    weights = pset.weights
    multisets = list(combinations_with_replacement(range(d), 3))
    checked = violations = 0
    witnesses = []
    n_ctx = d ** (E - 3)
    # digit j colors the j-th non-face edge, the last one least significant
    ctx_digits = [((np.arange(n_ctx, dtype=np.int64) // d ** (E - 4 - j)) % d) for j in range(E - 3)]
    for face in faces_of(n):
        pos = face_edge_indices(face, n)
        others = [k for k in range(E) if k not in pos]
        ctx_codes = np.zeros(n_ctx, dtype=np.int64)
        for dig, k in zip(ctx_digits, others):
            ctx_codes += dig * weights[k]
        w3 = weights[list(pos)]
        for ms in multisets:
            sums = np.zeros(n_ctx, dtype=np.int16)
            for arr in sorted(set(permutations(ms))):
                sums += dense[ctx_codes + int(arr[0] * w3[0] + arr[1] * w3[1] + arr[2] * w3[2])]
            checked += n_ctx
            bad = sums != 0
            violations += int(bad.sum())
            for flat in np.nonzero(bad)[0][: 5 - len(witnesses)]:
                ctx = tuple(int(col[flat]) for col in ctx_digits)
                witnesses.append(RelationInstance(d, n, face, ms, ctx))
    return RelationReport(checked, violations, witnesses, mode="full")


def signature_lookup_table(pset, table):
    """Dense code-indexed sign table: +-1 on members, 0 elsewhere."""
    size = pset.d ** pset.colors.shape[1]
    if size > 200_000_000:
        raise ValueError("dense signature table too large for this d")
    dense = np.zeros(size, dtype=np.int8)
    dense[pset.codes] = table.signs
    return dense


def dense_sampled_relation_sweep(pset, table, sample, seed):
    """Sampled-mode relation sweep that reads every term's sign from the
    dense code-indexed table."""
    from treedet.algebra import RelationInstance, RelationReport
    from treedet.model import face_edge_indices, faces_of

    d, n = pset.d, pset.n
    E = n * (n - 1) // 2
    dense = signature_lookup_table(pset, table)
    weights = pset.weights
    faces = faces_of(n)
    multisets = list(combinations_with_replacement(range(d), 3))
    checked = 0
    violations = 0
    witnesses = []
    if seed is None:
        raise ValueError("sampled mode needs an explicit seed")
    rng = np.random.default_rng(seed)
    face_idx = rng.integers(0, len(faces), size=sample)
    ms_idx = rng.integers(0, len(multisets), size=sample)
    ctx_int = rng.integers(0, d ** (E - 3), size=sample, dtype=np.int64)
    w_face = np.zeros((len(faces), 3), dtype=np.int64)
    w_ctx = np.zeros((len(faces), E - 3), dtype=np.int64)
    for fi, face in enumerate(faces):
        pos = face_edge_indices(face, n)
        w_face[fi] = weights[list(pos)]
        w_ctx[fi] = weights[[k for k in range(E) if k not in pos]]
    ctx_digit_cols = [((ctx_int // d ** j) % d) for j in range(E - 3)]
    ctx_codes = np.zeros(sample, dtype=np.int64)
    for j, dig in enumerate(ctx_digit_cols):
        ctx_codes += dig * w_ctx[face_idx, j]
    for mi, ms in enumerate(multisets):
        rows = np.nonzero(ms_idx == mi)[0]
        if rows.size == 0:
            continue
        sums = np.zeros(rows.size, dtype=np.int16)
        for arr in sorted(set(permutations(ms))):
            add = (
                arr[0] * w_face[face_idx[rows], 0]
                + arr[1] * w_face[face_idx[rows], 1]
                + arr[2] * w_face[face_idx[rows], 2]
            )
            sums += dense[ctx_codes[rows] + add]
        checked += rows.size
        if np.any(sums):
            bad = sums != 0
            violations += int(bad.sum())
            for r in rows[bad][: 5 - len(witnesses)]:
                ctx = tuple(int(col[r]) for col in ctx_digit_cols)
                witnesses.append(
                    RelationInstance(d, n, faces[int(face_idx[r])], ms, ctx)
                )
    return RelationReport(checked, violations, witnesses, mode=f"sample({sample}, seed={seed})")


def brute_force_flip(partition, face):
    """The flip partner of `partition` across `face` by trying all d^3 - 1
    other colorings of the face: those that are homogeneous, cycle-free
    and differ from it on at least two face edges survive, and the
    survivor must be unique.  It reads is_homogeneous and is_cycle_free
    from treedet.flips when called, so a test that patches them there
    patches them for flip() and for this oracle alike."""
    from treedet.flips import (
        EdgePartition,
        FlipUniquenessError,
        face_edge_indices,
        is_cycle_free,
        is_homogeneous,
        normalize_face,
    )

    if not is_homogeneous(partition):
        raise ValueError("flip needs a homogeneous partition")
    if not is_cycle_free(partition):
        raise ValueError("flip needs a cycle-free partition")
    d, n = partition.d, partition.n
    face = normalize_face(*face, n)
    pos = face_edge_indices(face, n)
    orig = tuple(partition.colors[k] for k in pos)
    survivors = []
    for cand in product(range(d), repeat=3):
        if cand == orig:
            continue
        ndiff = sum(1 for a, b in zip(cand, orig) if a != b)
        colors = list(partition.colors)
        for k, c in zip(pos, cand):
            colors[k] = c
        q = EdgePartition(d, n, tuple(colors))
        if ndiff >= 2 and is_homogeneous(q) and is_cycle_free(q):
            survivors.append(q)
    if len(survivors) != 1:
        raise FlipUniquenessError(partition, face, survivors)
    return survivors[0]


def candidate_face_sweep(pset):
    """Flip partners of every (partition, face) pair by trying all d^3
    recolorings of each face.

    Returns (adjacency, diff_counts) where diff_counts[i, f] in {2, 3}
    records on how many face edges node i and its partner differ.
    Raises FlipUniquenessError if any pair has survivor count != 1.

    For each candidate recoloring, homogeneity reduces to preserving the
    multiset of the three face colors, and acyclicity of the three
    touched classes is read off a precomputed table over edge bitmasks.
    """
    from treedet.flips import FlipUniquenessError, flip
    from treedet.model import edge_count, face_edge_indices, faces_of

    d, n = pset.d, pset.n
    E = edge_count(n)
    N = len(pset)
    colors = pset.colors
    codes = pset.codes
    weights = pset.weights
    acyc = acyclic_mask_table(n)
    bits = (1 << np.arange(E)).astype(np.int64)
    class_masks = np.zeros((N, d), dtype=np.int64)
    for c in range(d):
        class_masks[:, c] = ((colors == c) * bits).sum(axis=1)

    faces = faces_of(n)
    adjacency = np.full((N, len(faces)), -1, dtype=np.int32)
    n_survivors = np.zeros((N, len(faces)), dtype=np.int8)
    diff_counts = np.zeros((N, len(faces)), dtype=np.int8)

    for fi, face in enumerate(faces):
        pos = face_edge_indices(face, n)
        w3 = weights[list(pos)]
        b3 = bits[list(pos)]
        face_mask = int(b3.sum())
        da = colors[:, pos[0]].astype(np.int64)
        db = colors[:, pos[1]].astype(np.int64)
        dc = colors[:, pos[2]].astype(np.int64)
        ctx_codes = codes - (da * w3[0] + db * w3[1] + dc * w3[2])
        ctx_masks = class_masks & ~np.int64(face_mask)
        orig_face_count = np.stack(
            [(da == c).astype(np.int8) + (db == c) + (dc == c) for c in range(d)],
            axis=1,
        )
        for cand in product(range(d), repeat=3):
            ca, cb, cc = cand
            cand_count = np.array(
                [(ca == c) + (cb == c) + (cc == c) for c in range(d)], dtype=np.int8
            )
            homogeneous = np.all(orig_face_count == cand_count, axis=1)
            ndiff = (da != ca).astype(np.int8) + (db != cb) + (dc != cc)
            alive = homogeneous & (ndiff >= 2)
            if not alive.any():
                continue
            add_mask = np.zeros(d, dtype=np.int64)
            for c, b in zip(cand, b3):
                add_mask[c] |= b
            for c in range(d):
                if add_mask[c]:
                    alive = alive & acyc[ctx_masks[:, c] | add_mask[c]]
            if not alive.any():
                continue
            rows = np.nonzero(alive)[0]
            cand_codes = ctx_codes[rows] + (ca * w3[0] + cb * w3[1] + cc * w3[2])
            idx = np.searchsorted(codes, cand_codes)
            missing = (idx == len(codes)) | (
                codes[np.minimum(idx, len(codes) - 1)] != cand_codes
            )
            if missing.any():  # pragma: no cover
                raise AssertionError("homogeneous cycle-free candidate missing from set")
            n_survivors[rows, fi] += 1
            adjacency[rows, fi] = idx
            diff_counts[rows, fi] = ndiff[rows]
        if not np.all(n_survivors[:, fi] == 1):
            bad = int(np.nonzero(n_survivors[:, fi] != 1)[0][0])
            partition = pset.partition(bad)
            survivors = []  # recover the survivor list the slow way for the report
            try:
                survivors = [flip(partition, face)]
            except FlipUniquenessError as exc:
                survivors = exc.survivors
            raise FlipUniquenessError(partition, face, survivors)
    return adjacency, diff_counts


def strided_flip_soundness(adjacency, diff_table):
    """The flip-soundness report from the (N, C(2d,3)) flip table, each
    face read through its strided column, and the (N, C(2d,3)) table of
    changed face edges that candidate_face_sweep returns."""
    from treedet.flips import FlipSoundnessReport

    ids = np.arange(len(adjacency))
    involution_ok = all(
        np.array_equal(adjacency[adjacency[:, f], f], ids)
        and not np.any(adjacency[:, f] == ids)
        for f in range(adjacency.shape[1])
    )
    return FlipSoundnessReport(
        pairs_checked=int(adjacency.size),
        diff_two=int((diff_table == 2).sum()),
        diff_three=int((diff_table == 3).sum()),
        involution_ok=bool(involution_ok),
    )


def sampled_epsilon_check(table, samples, seed):
    """The d = 3 parity form s((sigma, tau) * P_i) = sgn tau on random
    (sigma, tau, i), one relabeling at a time, with P_i the catalog
    references anchored at +1; the first five violations, as
    (sigma, tau, i, got, expected)."""
    from treedet import catalog
    from treedet.symmetry import PermPair, act, perm_sign

    rng = np.random.default_rng(seed)
    refs = catalog.reference_partitions()
    violations = []
    for _ in range(samples):
        sigma = tuple(int(v) + 1 for v in rng.permutation(6))
        tau = tuple(int(v) + 1 for v in rng.permutation(3))
        i = int(rng.integers(1, 20))
        moved = act(PermPair(sigma, tau), refs[i - 1])
        expected = perm_sign(tau)
        got = table.signature(moved)
        if got != expected:
            violations.append((sigma, tau, i, got, expected))
            if len(violations) >= 5:
                break
    return violations


@functools.lru_cache(maxsize=None)
def acyclic_mask_table(n):
    """Boolean table over all 2^E edge subsets of K_n: True iff acyclic.

    The oracle of the enumeration's tree filter, which reads
    treedet.trees.signs_by_mask instead.  Edge k corresponds to bit k of
    the mask.  One union-find runs over all masks at once, with a
    component label per vertex and mask.  The masks below 2^(k+1)
    holding edge k are those below 2^k plus the edge: each either closes
    a cycle (both ends already share a label) or merges the two labels.
    Only sensible for small n (the table has 2^E entries); n = 6 gives
    32768.
    """
    from treedet.model import edge_count, edge_list

    E = edge_count(n)
    if E > 21:
        raise ValueError(f"subset table for K_{n} would need 2^{E} entries")
    labels = np.arange(n, dtype=np.int8)[None, :]
    table = np.ones(1, dtype=bool)
    for i, j in edge_list(n):
        a, b = labels[:, i - 1, None], labels[:, j - 1, None]
        table = np.concatenate([table, table & (a != b)[:, 0]])
        labels = np.concatenate([labels, np.where(labels == b, a, labels)])
    return table


def loop_acyclic_mask_table(n):
    """Acyclicity of every edge subset of K_n (bit k = edge k), by a
    union-find over each mask in turn."""
    from treedet.model import _find, edge_count, edge_list

    E = edge_count(n)
    edges = edge_list(n)
    table = np.zeros(1 << E, dtype=bool)
    for mask in range(1 << E):
        parent = list(range(n + 1))
        acyclic = True
        m, k = mask, 0
        while m:
            if m & 1:
                i, j = edges[k]
                ri, rj = _find(parent, i), _find(parent, j)
                if ri == rj:
                    acyclic = False
                    break
                parent[ri] = rj
            m >>= 1
            k += 1
        table[mask] = acyclic
    return table


MR13_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def mr13_is_prime(p):
    """Miller-Rabin with all 13 prime bases up to 41, exact for
    5 <= p < 3317044064679887385961981."""
    if any(p % q == 0 for q in MR13_BASES):
        return p in MR13_BASES
    odd = p - 1
    while odd % 2 == 0:
        odd //= 2
    for a in MR13_BASES:
        x, e = pow(a, odd, p), odd
        while e != p - 1 and x not in (1, p - 1):
            x, e = x * x % p, e * 2
        if x != p - 1 and e % 2 == 0:
            return False
    return True


def hooking_components(neighbors):
    """Connected components by min-label hooking and pointer jumping
    (Shiloach & Vishkin, J. Algorithms 1982), vectorized in numpy.

    Row i of the (N, k) table `neighbors` lists nodes joined to node i
    (an edge may be listed from one end only; k may be 0).  Returns int32
    labels: labels[i] is the smallest node index in i's component.
    """
    table = np.asarray(neighbors, dtype=np.int32)
    labels = np.arange(len(table), dtype=np.int32)
    while True:
        near = labels[table]
        if np.all(near == labels[:, None]):
            return labels
        # Hook roots under the smaller label across each edge, both ways.
        # Labels only decrease and stay within the component.
        np.minimum.at(labels, labels.copy(), near.min(axis=1))
        np.minimum.at(labels, near.ravel(), np.repeat(labels, table.shape[1]))
        jumped = labels[labels]
        while not np.array_equal(jumped, labels):  # pointer jumping to the roots
            labels, jumped = jumped, jumped[jumped]


def same_level_flip(graph, level):
    """The flip graph with the face-0 pairs (a, b), (c, e) of its first two
    nodes a, c at `level` re-paired as (a, c), (b, e): a flip that joins
    one level, so the graph has an odd cycle."""
    from treedet.flips import FlipGraph

    adjacency = graph.adjacency.copy(order="F")
    a, c = np.flatnonzero(graph.levels[1] == level)[:2]
    column = adjacency[:, 0]
    b, e = column[a], column[c]
    column[[a, c, b, e]] = c, a, e, b
    return FlipGraph(graph.pset, adjacency, graph.diff_counts)


def cover_check_bipartite(graph):
    """check_bipartite read off the components of the parity double
    cover: node i has its even copy at i and its odd copy at i + N, and
    each flip joins one parity to the other.  Returns the signature
    table, +1 at each component's minimal node; on an odd cycle,
    two_color raises OddCycleError with it."""
    from treedet.flips import SignatureTable, two_color

    N = len(graph.adjacency)
    cover = np.concatenate([graph.adjacency + N, graph.adjacency])
    even, odd = hooking_components(cover).reshape(2, N)
    if np.any(even == odd):  # a node reaches its own odd copy: an odd cycle
        two_color(graph.adjacency)  # raises OddCycleError with the cycle
        raise AssertionError("the parity cover has an odd cycle that two_color does not find")
    root = np.minimum(even, odd)
    return SignatureTable(graph.pset, np.where(even == root, 1, -1).astype(np.int8))


def face_groups(pset, face):
    """Members grouped by their coloring off `face` and the multiset of
    their three face colors.

    Returns (order, starts): the member indices sorted by (context code,
    face-color multiset), and the position in `order` where each group
    begins.  The context code is the canonical code with the face colors
    taken out; the multiset is the per-color count of the face colors,
    one base-4 digit per color.
    """
    from treedet.model import face_edge_indices

    pos = list(face_edge_indices(face, pset.n))
    face_colors = pset.colors[:, pos].astype(np.int64)
    context = pset.codes - face_colors @ pset.weights[pos]
    multiset = (1 << 2 * face_colors).sum(axis=1)
    order = np.lexsort((multiset, context))
    context, multiset = context[order], multiset[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (context[1:] != context[:-1]) | (multiset[1:] != multiset[:-1])
    return order, np.flatnonzero(new)


def face_group_relation_sweep(pset, table):
    """Full-mode relation sweep that sums each face group's signs, the
    groups sorted by (context code, face-color multiset)."""
    from treedet.algebra import RelationInstance, RelationReport, count_relation_instances
    from treedet.model import face_edge_indices, faces_of

    d, n = pset.d, pset.n
    E = n * (n - 1) // 2
    violations = 0
    witnesses = []
    for face in faces_of(n):
        order, starts = face_groups(pset, face)
        sums = np.add.reduceat(table.signs[order], starts, dtype=np.int16)
        bad = order[starts[np.flatnonzero(sums)]]  # one member of each failing group
        violations += len(bad)
        if len(bad) and len(witnesses) < 5:
            pos = list(face_edge_indices(face, n))
            others = [k for k in range(E) if k not in pos]
            ms = np.sort(pset.colors[bad][:, pos], axis=1)
            ctx = pset.colors[bad][:, others]
            flat = ctx.astype(np.int64) @ d ** np.arange(E - 4, -1, -1, dtype=np.int64)
            for r in np.lexsort((flat, *ms.T[::-1]))[: 5 - len(witnesses)]:
                ms_r, ctx_r = (tuple(int(c) for c in row) for row in (ms[r], ctx[r]))
                witnesses.append(RelationInstance(d, n, face, ms_r, ctx_r))
    return RelationReport(count_relation_instances(d), violations, witnesses, mode="full")


def per_term_sampled_relation_sweep(pset, table, sample, seed):
    """Sampled-mode relation sweep that reads every term's sign by a
    checked binary search on the member codes."""
    from treedet.algebra import RelationInstance, RelationReport
    from treedet.model import face_edge_indices, faces_of

    d, n = pset.d, pset.n
    E = n * (n - 1) // 2
    weights = pset.weights
    faces = faces_of(n)
    multisets = list(combinations_with_replacement(range(d), 3))
    checked = violations = 0
    witnesses = []
    rng = np.random.default_rng(seed)
    face_idx = rng.integers(0, len(faces), size=sample)
    ms_idx = rng.integers(0, len(multisets), size=sample)
    ctx_int = rng.integers(0, d ** (E - 3), size=sample, dtype=np.int64)
    w_face = np.zeros((len(faces), 3), dtype=np.int64)
    w_ctx = np.zeros((len(faces), E - 3), dtype=np.int64)
    for fi, face in enumerate(faces):
        pos = face_edge_indices(face, n)
        w_face[fi] = weights[list(pos)]
        w_ctx[fi] = weights[[k for k in range(E) if k not in pos]]
    ctx_digit_cols = [((ctx_int // d ** j) % d) for j in range(E - 3)]
    ctx_codes = np.zeros(sample, dtype=np.int64)
    for j, dig in enumerate(ctx_digit_cols):
        ctx_codes += dig * w_ctx[face_idx, j]
    for mi, ms in enumerate(multisets):
        rows = np.nonzero(ms_idx == mi)[0]
        if rows.size == 0:
            continue
        sums = np.zeros(rows.size, dtype=np.int16)
        for arr in sorted(set(permutations(ms))):
            codes = ctx_codes[rows] + (
                arr[0] * w_face[face_idx[rows], 0]
                + arr[1] * w_face[face_idx[rows], 1]
                + arr[2] * w_face[face_idx[rows], 2]
            )
            idx = np.searchsorted(pset.codes, codes)  # len(pset) reads the appended sentinels
            member = np.append(pset.codes, -1)[idx] == codes
            sums += np.where(member, np.append(table.signs, 0)[idx], 0)
        checked += rows.size
        if np.any(sums):
            bad = sums != 0
            violations += int(bad.sum())
            for r in rows[bad][: 5 - len(witnesses)]:
                ctx = tuple(int(col[r]) for col in ctx_digit_cols)
                witnesses.append(RelationInstance(d, n, faces[int(face_idx[r])], ms, ctx))
    return RelationReport(checked, violations, witnesses, mode=f"sample({sample}, seed={seed})")


def leibniz_determinant(rows, p=None):
    """Determinant as the signed sum over all permutations of the
    products of one entry per row and column; mod p when p is given."""
    m = len(rows)
    total = 0
    for perm in permutations(range(m)):
        inversions = sum(perm[a] > perm[b] for a in range(m) for b in range(a + 1, m))
        total += (-1) ** inversions * math.prod(rows[r][perm[r]] for r in range(m))
    return total if p is None else total % p


def minor_rank(rows, p=None):
    """Rank as the size of the largest square minor whose Leibniz
    determinant is nonzero (mod p when p is given)."""
    n_rows, n_cols = len(rows), len(rows[0]) if rows else 0
    for k in range(min(n_rows, n_cols), 0, -1):
        for rs in combinations(range(n_rows), k):
            for cs in combinations(range(n_cols), k):
                if leibniz_determinant([[rows[r][c] for c in cs] for r in rs], p):
                    return k
    return 0

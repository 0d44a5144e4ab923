"""Independent oracles and input generators shared by the tests.

Everything in here deliberately avoids the library's own data paths:
the enumeration oracle walks all colorings directly, the flip oracle
re-derives partners from first principles, and the tensor generators
only use numpy RNGs and fractions.

The last section keeps the library's earlier algorithms, replaced by
numpy kernels, as reference implementations: the depth-first
enumeration, the union-find orbit closure and the pair-by-pair
stabilizer loop.
"""

from fractions import Fraction
from itertools import permutations, product

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

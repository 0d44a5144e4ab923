"""The S_{2d} x S_d action on partitions: orbits and stabilizers.

A pair (sigma, tau) acts by relabeling vertices through sigma and colors
through tau: the edge (i, j) of color c goes to the edge
(sigma i, sigma j) of color tau(c).  One kernel, _image_codes, relabels
color sequences by every group element at once ((2d)! * d! images, 4320
at d = 3) and returns the images' canonical codes, by one matrix product
with a digit-weight table built once per (n, d).  The member lookup,
enumeration.member_positions, finds image codes in the code-sorted set
(the sampled relation sweep finds its terms with it too).  Orbits
come from the least member not yet covered: its images are looked up,
every image gets it as orbit root, and the images equal to it are its
stabilizer; an image outside the set raises OrbitClosureError, since the
set is then no union of orbits.  The d = 3 set takes 19 such rounds.
The orbit table keeps the member position of every root's images, and
the parity form of the signature (which character of S_{2d} x S_d the
signs follow, signature_character(d) at every d) is read off them:
82,080 cases at d = 3, 48 at d = 2.  Only match_catalog reads the catalog.

Permutations are plain image tuples with 1-based values: sigma[i-1] is
the image of vertex i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, permutations

import numpy as np

from .enumeration import PartitionSet, member_positions
from .flips import SignatureTable
from .model import EdgePartition, classify_tree, edge_count, edge_index, edge_list

Perm = tuple  # image tuple, 1-based values


class OrbitClosureError(RuntimeError):
    """A member's image under an element of S_{2d} x S_d is not in the set."""

    def __init__(self, image: EdgePartition):
        self.image = image
        super().__init__(f"image code {image.canonical_code()} of a member is not in the set")

    def witness(self) -> dict:
        """The failed certificate's witness: the image, by canonical code."""
        image = self.image.canonical_code()
        return {"property": "orbit_closure", "detail": str(self), "image": image}


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def perm_compose(a: Perm, b: Perm) -> Perm:
    """(a o b)(x) = a(b(x))."""
    return tuple(a[b[x] - 1] for x in range(len(a)))


def perm_sign(a: Perm) -> int:
    """Parity of a permutation via its cycle decomposition."""
    seen = [False] * len(a)
    sign = 1
    for x in range(len(a)):
        if seen[x]:
            continue
        length = 0
        y = x
        while not seen[y]:
            seen[y] = True
            y = a[y] - 1
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@dataclass(frozen=True)
class PermPair:
    """A vertex relabeling together with a color relabeling."""

    sigma: Perm
    tau: Perm

    def __post_init__(self):
        for p in (self.sigma, self.tau):
            if sorted(p) != list(range(1, len(p) + 1)):
                raise ValueError(f"not a permutation: {p}")

    def compose(self, other: "PermPair") -> "PermPair":
        return PermPair(perm_compose(self.sigma, other.sigma), perm_compose(self.tau, other.tau))

    @classmethod
    def identity(cls, n: int, d: int) -> "PermPair":
        return cls(identity_perm(n), identity_perm(d))


def vertex_perm_edge_map(sigma: Perm, n: int) -> np.ndarray:
    """Source-position map of a vertex relabeling on edge slots.

    If Q is the image of P then Q.colors[k] = P.colors[map[k]]; the edge
    in slot k of Q came from the slot holding its sigma-preimage in P.
    """
    src = np.empty(edge_count(n), dtype=np.int64)
    for k, (i, j) in enumerate(edge_list(n)):
        a, b = sigma[i - 1], sigma[j - 1]
        if a > b:
            a, b = b, a
        src[edge_index(a, b, n)] = k
    return src


def act(pair: PermPair, partition: EdgePartition) -> EdgePartition:
    """Left action: edge (i, j) of color c maps to (sigma i, sigma j) of
    color tau(c)."""
    n, d = partition.n, partition.d
    if len(pair.sigma) != n or len(pair.tau) != d:
        raise ValueError(
            f"pair acts on (n, d) = ({len(pair.sigma)}, {len(pair.tau)}), "
            f"partition has ({n}, {d})"
        )
    src = vertex_perm_edge_map(pair.sigma, n)
    colors = tuple(pair.tau[partition.colors[int(k)]] - 1 for k in src)
    return EdgePartition(d, n, colors)


@lru_cache(maxsize=None)
def _all_edge_maps(n: int) -> tuple[tuple[Perm, ...], np.ndarray]:
    """All n! vertex relabelings, in lexicographic order, with their
    edge-slot source maps: maps[s] is vertex_perm_edge_map(perms[s], n)."""
    if n > 8:
        raise ValueError(f"full S_{n} sweep is out of reach")
    perms = tuple(permutations(range(1, n + 1)))
    E = edge_count(n)
    images = np.array(perms, dtype=np.int64) - 1
    ends = np.array(edge_list(n)) - 1
    slot = np.zeros((n, n), dtype=np.int64)
    slot[ends[:, 0], ends[:, 1]] = slot[ends[:, 1], ends[:, 0]] = np.arange(E)
    dest = slot[images[:, ends[:, 0]], images[:, ends[:, 1]]]  # edge k lands in slot dest[s, k]
    maps = np.empty_like(dest)
    np.put_along_axis(maps, dest, np.broadcast_to(np.arange(E), dest.shape), axis=1)
    return perms, maps


@lru_cache(maxsize=None)
def _color_perms(d: int) -> tuple[Perm, ...]:
    return tuple(permutations(range(1, d + 1)))


@lru_cache(maxsize=None)
def _relabel_tables(n: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(weights, recolor, sigma_signs, tau_signs) for relabeling color
    sequences by S_n x S_d, in group_elements order.  weights[s, e] is
    the digit weight d^(E-1-k) of the slot k that edge e lands in under
    sigma_s, in int64.  recolor[c, t] is tau_t(c), 0-based."""
    E = edge_count(n)
    perms, maps = _all_edge_maps(n)
    taus = _color_perms(d)
    weights = np.empty(maps.shape, dtype=np.int64)
    slot_weights = np.broadcast_to(d ** np.arange(E - 1, -1, -1, dtype=np.int64), maps.shape)
    np.put_along_axis(weights, maps, slot_weights, axis=1)  # slot k receives edge maps[s, k]
    recolor = np.array(taus, dtype=np.uint8).T - 1
    sigma_signs = np.array([perm_sign(s) for s in perms], dtype=np.int8)
    tau_signs = np.array([perm_sign(t) for t in taus], dtype=np.int8)
    return weights, recolor, sigma_signs, tau_signs


def _image_codes(colors: np.ndarray, n: int, d: int) -> np.ndarray:
    """Canonical codes of the images of each row of `colors` under all of
    S_n x S_d: out[i, s, t] is the code of (sigma_s, tau_t) * row i, in
    the order of group_elements.

    The code of (sigma, tau) * P is sum_e tau(P_e) * weights[sigma, e],
    so one int64 matrix product, (n!, E) by (E, rows * d!), gives every
    image; every partial sum is a non-negative integer no larger than the
    code, below 2^63.  The array is laid out (sigma, row, tau) in memory.
    """
    E = edge_count(n)
    if d ** E >= 2 ** 63:
        raise ValueError(f"canonical codes for d={d}, n={n} exceed 64-bit range")
    weights, recolor = _relabel_tables(n, d)[:2]
    moved = recolor[np.asarray(colors, dtype=np.uint8)]  # (rows, E, d!): tau_t of each edge's color
    rows, taus = len(moved), recolor.shape[1]
    codes = weights @ moved.transpose(1, 0, 2).reshape(E, rows * taus).astype(np.int64)
    return codes.reshape(len(weights), rows, taus).transpose(1, 0, 2)


def _pairs(sigma_idx, tau_idx, n: int, d: int) -> list:
    perms, taus = _all_edge_maps(n)[0], _color_perms(d)
    return [PermPair(perms[s], taus[t]) for s, t in zip(sigma_idx, tau_idx)]


def group_elements(n: int, d: int):
    """Every element of S_n x S_d as a PermPair, in lexicographic order."""
    for sigma in permutations(range(1, n + 1)):
        for tau in permutations(range(1, d + 1)):
            yield PermPair(sigma, tau)


def stabilizer(partition: EdgePartition) -> list[PermPair]:
    """Stabilizer of a partition inside S_{2d} x S_d, in the order of
    group_elements: the pairs whose image has the partition's code."""
    n, d = partition.n, partition.d
    codes = _image_codes(np.array([partition.colors]), n, d)[0]
    return _pairs(*np.nonzero(codes == partition.canonical_code()), n, d)


@dataclass
class OrbitEntry:
    orbit_id: int
    representative: EdgePartition  # minimal canonical code in the orbit
    size: int
    stabilizer_order: int
    type_triple: tuple[str, ...]


@dataclass
class OrbitTable:
    """Orbit decomposition of a partition set under S_{2d} x S_d."""

    pset: PartitionSet
    roots: np.ndarray  # (N,) minimal member index of each node's orbit
    images: np.ndarray  # (orbits, n!, d!) int32: member position of (sigma, tau) * root
    entries: list

    def orbit_id_of(self, partition: EdgePartition) -> int:
        root = self.roots[self.pset.index_of(partition)]  # the identity's image is the root
        return int(np.searchsorted(self.images[:, 0, 0], root))


def _orbit_kernel(pset: PartitionSet) -> tuple[np.ndarray, np.ndarray]:
    """Orbit roots (int32, the minimal member index of each orbit) and
    the member positions of every root's images, (orbits, n!, d!) int32
    in root order and group_elements order.

    Each round seeds the least member not yet covered, which is then the
    least member of its orbit, and relabels it by the whole group.
    Raises OrbitClosureError on the first image, in group_elements
    order, that is not a member.
    """
    N, n, d = len(pset), pset.n, pset.d
    roots = np.full(N, -1, dtype=np.int32)
    images = []
    seed = 0
    while seed < N:
        codes = _image_codes(pset.colors[seed:seed + 1], n, d)[0]  # (n!, d!)
        idx = member_positions(pset.codes, codes)
        missing = np.argwhere(pset.codes[idx] != codes)
        if missing.size:
            (pair,) = _pairs(*missing[:1].T, n, d)
            raise OrbitClosureError(act(pair, pset.partition(seed)))
        roots[idx] = seed
        images.append(idx)
        uncovered = np.flatnonzero(roots[seed:] < 0)
        seed = seed + int(uncovered[0]) if uncovered.size else N
    group = (len(_all_edge_maps(n)[0]), len(_color_perms(d)))  # (n!, d!)
    return roots, np.array(images, dtype=np.int32).reshape(len(images), *group)


def orbit_decomposition(pset: PartitionSet) -> OrbitTable:
    """Orbits of the set under S_{2d} x S_d, with representatives,
    sizes, stabilizer orders, and tree-shape triples.

    Representatives are the minimal-code members; orbit ids follow the
    representatives' code order.  A stabilizer order counts the kept
    images equal to the root; the elements are stabilizer(rep).
    """
    roots, images = _orbit_kernel(pset)
    root_ids, counts = np.unique(roots, return_counts=True)
    entries = []
    for oid, (root, size, idx) in enumerate(zip(root_ids, counts, images)):
        rep = pset.partition(int(root))
        entries.append(
            OrbitEntry(
                orbit_id=oid,
                representative=rep,
                size=int(size),
                stabilizer_order=int(np.count_nonzero(idx == root)),
                type_triple=tuple(classify_tree(cls) for cls in rep.color_classes())
                if pset.n == 6
                else (),
            )
        )
    return OrbitTable(pset, roots, images, entries)


@dataclass
class CatalogMatchReport:
    checked: int
    mismatches: list  # human-readable strings
    orbit_of: dict  # catalog id -> orbit id of every member reference, shared orbits too

    @property
    def ok(self) -> bool:
        return not self.mismatches


def match_catalog(table: OrbitTable) -> CatalogMatchReport:
    """Cross-check the computed d = 3 orbit table against the catalog.

    Verifies that each labeled representative is homogeneous and
    cycle-free, lands in a distinct orbit, and that its orbit's size,
    stabilizer order, and tree-shape triple agree with the catalog; and
    that the 19 orbits are hit exactly.
    """
    from . import catalog
    from .model import is_cycle_free, is_homogeneous

    mismatches = []
    seen_orbits, orbit_of = {}, {}
    for cid in catalog.CATALOG_IDS:
        p = catalog.reference_partition(cid)
        if not is_homogeneous(p):
            mismatches.append(f"reference {cid} is not homogeneous")
            continue
        if not is_cycle_free(p):
            mismatches.append(f"reference {cid} is not cycle-free")
            continue
        triple = tuple(classify_tree(cls) for cls in p.color_classes())
        if triple != catalog.EXPECTED_TYPE_TRIPLES[cid]:
            mismatches.append(
                f"reference {cid}: shape triple {triple} != "
                f"{catalog.EXPECTED_TYPE_TRIPLES[cid]}"
            )
        try:
            oid = table.orbit_id_of(p)
        except KeyError:
            mismatches.append(f"reference {cid} is not a member of the set")
            continue
        orbit_of[cid] = oid
        if oid in seen_orbits:
            mismatches.append(
                f"references {seen_orbits[oid]} and {cid} fall in the same orbit"
            )
        seen_orbits[oid] = cid
        entry = table.entries[oid]
        if entry.size != catalog.EXPECTED_ORBIT_SIZES[cid]:
            mismatches.append(
                f"reference {cid}: orbit size {entry.size} != "
                f"{catalog.EXPECTED_ORBIT_SIZES[cid]}"
            )
        stab_order = entry.stabilizer_order  # conjugate stabilizers have one order
        if stab_order != catalog.EXPECTED_STABILIZER_ORDERS[cid]:
            mismatches.append(
                f"reference {cid}: stabilizer order {stab_order} != "
                f"{catalog.EXPECTED_STABILIZER_ORDERS[cid]}"
            )
    if len(seen_orbits) != len(table.entries):
        mismatches.append(
            f"{len(seen_orbits)} orbits hit by references, table has {len(table.entries)}"
        )
    return CatalogMatchReport(len(catalog.CATALOG_IDS), mismatches, orbit_of)


# The four characters of S_{2d} x S_d by name: (a, b) is sgn(sigma)^a * sgn(tau)^b.
CHARACTERS = dict(trivial=(0, 0), sgn_sigma=(1, 0), sgn_tau=(0, 1), sgn_sigma_sgn_tau=(1, 1))


def signature_character(d: int) -> str:
    """The character the signature follows at d: sgn(sigma)^(d+1) * sgn(tau)."""
    return "sgn_tau" if d % 2 else "sgn_sigma_sgn_tau"


@dataclass
class EpsilonFormulaReport:
    samples: int  # the number of (orbit root, sigma, tau) cases checked
    counts: dict  # character name -> the number of cases that violate it
    violations: dict  # character name -> its first five (orbit id, sigma, tau, got, expected)

    @property
    def character(self):
        """The name of the character the signs follow, or None."""
        return next((name for name, count in self.counts.items() if count == 0), None)

    @property
    def ok(self) -> bool:
        return self.character is not None


def epsilon_formula_check(orbits: OrbitTable, table: SignatureTable) -> EpsilonFormulaReport:
    """Which character chi of S_{2d} x S_d the signature follows:
    s((sigma, tau) * r) = chi(sigma, tau) * s(r) for every orbit root r
    and every group element, read off the orbit table's images (82,080
    cases at d = 3, 48 at d = 2).

    The roots suffice: a member is h * r for some root r, and then
    s(g * h * r) = chi(g) chi(h) s(r) = chi(g) s(h * r).  Two distinct
    characters differ on some element, so at most one holds, but at d = 1
    S_1 makes sgn tau trivial and `character` names the first.  Violations
    are listed in (orbit, sigma, tau) order, the first five of each.
    """
    pset = orbits.pset
    perms, taus = _all_edge_maps(pset.n)[0], _color_perms(pset.d)
    sigma_signs, tau_signs = _relabel_tables(pset.n, pset.d)[2:]
    got = table.signs[orbits.images]  # (orbit, sigma, tau)
    root_signs = got[:, :1, :1]  # the identity comes first in group_elements order
    counts, violations = {}, {}
    for name, (a, b) in CHARACTERS.items():
        expected = root_signs * (sigma_signs[:, None] ** a * tau_signs ** b)
        bad = got != expected
        counts[name] = int(np.count_nonzero(bad))
        rows = np.flatnonzero(bad.any(axis=(1, 2)))  # a wrong character fails half the cases:
        hits = ((o, s, t) for o in rows for s, t in np.argwhere(bad[o]))  # search orbit by orbit
        violations[name] = [
            (int(o), perms[s], taus[t], int(got[o, s, t]), int(expected[o, s, t]))
            for o, s, t in islice(hits, 5)
        ]
    return EpsilonFormulaReport(samples=got.size, counts=counts, violations=violations)

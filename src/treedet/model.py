"""Edge-colored partitions of complete graphs.

An ordered d-partition of K_n assigns one of d colors to every edge;
color class c is the spanning subgraph carrying the edges of color c.
For n = 2d the partitions of interest are homogeneous (all classes the
same size, which forces exactly 2d - 1 edges per class) and cycle-free,
so that every class is a spanning tree.

Edges are ordered lexicographically, (1,2), (1,3), ..., (1,n), (2,3),
..., (n-1,n), matching the row-major reading of an upper-triangular
matrix indexed by vertex pairs.  A partition is therefore a flat color
sequence, and reading that sequence as a base-d integer (first edge =
most significant digit) gives an injective canonical code used for
sorting, hashing, and constant-time set membership.

Colors are 0-based everywhere in this package; reports and file formats
that talk about class subscripts use 1-based labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

NOT_TREE = "NotTree"


def json_int(value, what: str) -> int:
    """An integer read from JSON; `true`, 1.7 and "1" are refused, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def edge_count(n: int) -> int:
    return n * (n - 1) // 2


def edge_index(i: int, j: int, n: int) -> int:
    """Lexicographic rank (0-based) of the edge (i, j) of K_n.

    Vertices are 1-based and must satisfy 1 <= i < j <= n.
    """
    if not isinstance(i, int) or not isinstance(j, int):
        raise ValueError(f"vertex labels must be integers, got ({i!r}, {j!r})")
    if not (1 <= i < j <= n):
        raise ValueError(f"not an edge of K_{n}: ({i}, {j})")
    return (i - 1) * n - i * (i + 1) // 2 + j - 1


@lru_cache(maxsize=None)
def edge_list(n: int) -> tuple[tuple[int, int], ...]:
    """All edges of K_n in lexicographic order."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def normalize_face(x: int, y: int, z: int, n: int) -> tuple[int, int, int]:
    """Sort a triple of pairwise distinct vertices of K_n ascending."""
    face = tuple(sorted((x, y, z)))
    if len({x, y, z}) != 3 or not (1 <= face[0] and face[2] <= n):
        raise ValueError(f"not a face of K_{n}: ({x}, {y}, {z})")
    return face


def face_edge_indices(face: tuple[int, int, int], n: int) -> tuple[int, int, int]:
    x, y, z = face
    return (edge_index(x, y, n), edge_index(x, z, n), edge_index(y, z, n))


@lru_cache(maxsize=None)
def faces_of(n: int) -> tuple[tuple[int, int, int], ...]:
    """All C(n,3) vertex triples of K_n, each sorted ascending."""
    return tuple(
        (x, y, z)
        for x in range(1, n + 1)
        for y in range(x + 1, n + 1)
        for z in range(y + 1, n + 1)
    )


@dataclass(frozen=True)
class EdgePartition:
    """An ordered d-partition of the edges of K_n.

    colors[k] is the 0-based color of the k-th edge in lexicographic
    order; class c consists of the edges with colors[k] == c.
    """

    d: int
    n: int
    colors: tuple[int, ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"need at least one color, got d={self.d}")
        if self.n < 2:
            raise ValueError(f"need at least one edge, got n={self.n}")
        if len(self.colors) != edge_count(self.n):
            raise ValueError(
                f"expected {edge_count(self.n)} colors for K_{self.n}, "
                f"got {len(self.colors)}"
            )
        if any(not (0 <= c < self.d) for c in self.colors):
            raise ValueError(f"colors must lie in 0..{self.d - 1}")

    def canonical_code(self) -> int:
        """Base-d reading of the color sequence; injective by position."""
        code = 0
        for c in self.colors:
            code = code * self.d + c
        return code

    def color_classes(self) -> tuple[frozenset, ...]:
        """Edge sets of the d classes, indexed by color."""
        classes = [set() for _ in range(self.d)]
        for k, c in enumerate(self.colors):
            classes[c].add(edge_list(self.n)[k])
        return tuple(frozenset(s) for s in classes)

    @classmethod
    def from_classes(cls, d: int, n: int, classes: Sequence[Iterable]) -> "EdgePartition":
        """Build from explicit per-color edge sets (must tile all edges)."""
        if len(classes) != d:
            raise ValueError(f"expected {d} classes, got {len(classes)}")
        colors = [-1] * edge_count(n)
        for c, edges in enumerate(classes):
            for (i, j) in edges:
                if i > j:
                    i, j = j, i
                k = edge_index(i, j, n)
                if colors[k] != -1:
                    raise ValueError(f"edge ({i}, {j}) assigned twice")
                colors[k] = c
        if any(c == -1 for c in colors):
            missing = [edge_list(n)[k] for k, c in enumerate(colors) if c == -1]
            raise ValueError(f"edges left uncolored: {missing}")
        return cls(d, n, tuple(colors))

    def to_json_dict(self) -> dict:
        return {"d": self.d, "n": self.n, "colors": list(self.colors)}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "EdgePartition":
        try:
            colors = tuple(json_int(c, "color") for c in doc["colors"])
            return cls(json_int(doc["d"], "d"), json_int(doc["n"], "n"), colors)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed partition object: {exc}") from exc


def is_homogeneous(partition: EdgePartition) -> bool:
    """True iff every color class carries the same number of edges."""
    counts = [0] * partition.d
    for c in partition.colors:
        counts[c] += 1
    return len(set(counts)) == 1


def _find(parent: list, x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def is_cycle_free(partition: EdgePartition) -> bool:
    """True iff every color class, as an edge set, is acyclic.

    One union-find pass per color; an edge whose endpoints are already
    connected within its class witnesses a cycle.
    """
    n = partition.n
    parents = [list(range(n + 1)) for _ in range(partition.d)]
    for k, c in enumerate(partition.colors):
        i, j = edge_list(n)[k]
        par = parents[c]
        ri, rj = _find(par, i), _find(par, j)
        if ri == rj:
            return False
        par[ri] = rj
    return True


def component_count(edges: Iterable[tuple[int, int]], n: int) -> int:
    """Number of connected components of an edge set on vertices 1..n."""
    parent = list(range(n + 1))
    for (i, j) in edges:
        ri, rj = _find(parent, i), _find(parent, j)
        if ri != rj:
            parent[ri] = rj
    return len({_find(parent, v) for v in range(1, n + 1)})


def classify_tree(edges: Iterable[tuple[int, int]]) -> str:
    """Classify a 5-edge graph on vertices {1..6} into one of the six
    tree shapes, or NotTree when it contains a cycle.

    Degree multisets separate all shapes except Y6 and E6, which share
    (3,2,2,1,1,1); those two are split by the number of leaves adjacent
    to the degree-3 vertex (two for Y6, one for E6).
    """
    edges = [tuple(sorted(e)) for e in edges]
    if len(edges) != 5 or len(set(edges)) != 5:
        raise ValueError(f"expected exactly 5 distinct edges, got {edges}")
    adj = {v: set() for v in range(1, 7)}
    for (i, j) in edges:
        if not (1 <= i < j <= 6):
            raise ValueError(f"edge ({i}, {j}) is not an edge of K_6")
        adj[i].add(j)
        adj[j].add(i)
    if component_count(edges, 6) != 1:
        return NOT_TREE  # 5 edges, 6 vertices: disconnected means cyclic
    degs = sorted((len(adj[v]) for v in range(1, 7)), reverse=True)
    if degs == [2, 2, 2, 2, 1, 1]:
        return "I6"
    if degs == [5, 1, 1, 1, 1, 1]:
        return "S6"
    if degs == [4, 2, 1, 1, 1, 1]:
        return "C6"
    if degs == [3, 3, 1, 1, 1, 1]:
        return "H6"
    if degs == [3, 2, 2, 1, 1, 1]:
        branch = next(v for v in range(1, 7) if len(adj[v]) == 3)
        leaf_neighbors = sum(1 for u in adj[branch] if len(adj[u]) == 1)
        return "Y6" if leaf_neighbors == 2 else "E6"
    raise AssertionError(f"impossible degree multiset {degs} for an acyclic graph")

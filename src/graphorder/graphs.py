"""Immutable simple undirected graphs plus orderings, and the two routines
every symmetry computation is built on: color refinement and a
key-preserving isomorphism search.

Adjacency is stored as one Python int bitmask per node, which keeps neighbour
tests, induced subgraphs, and connectivity checks cheap at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np

from .errors import InputError

Ordering = tuple[int, ...]
Coloring = tuple[int, ...]


def _is_int(v) -> bool:
    """A Python or numpy integer, and not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def bit_indices(mask: int) -> list[int]:
    """Indices of set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..n-1; ``adj[i]`` is a neighbour bitmask."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n <= 0:
            raise InputError("graph must have at least one node")
        if len(self.adj) != self.n:
            raise InputError("adjacency row count must equal node count")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.adj):
            if row & ~full:
                raise InputError(f"adjacency row {i} references nodes outside 0..{self.n - 1}")
            if row >> i & 1:
                raise InputError(f"self-loop at node {i}")
        for i in range(self.n):
            for j in bit_indices(self.adj[i]):
                if j > i and not self.adj[j] >> i & 1:
                    raise InputError(f"asymmetric adjacency between {i} and {j}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Graph on n nodes with the given (u, v) edges.  Node ids must be
        Python or numpy integers: floats and bools are refused."""
        rows = [0] * max(n, 1)
        for u, v in edges:
            # plain ints, the common case, skip the slower type check
            if type(u) is not int or type(v) is not int:
                if not (_is_int(u) and _is_int(v)):
                    raise InputError(f"edge ({u!r}, {v!r}) node ids must be integers")
                u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at node {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, u: int) -> list[int]:
        return bit_indices(self.adj[u])

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) pairs with u < v, lexicographically sorted."""
        high = [(u, v) for u in range(self.n) for v in bit_indices(self.adj[u]) if v > u]
        return high

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


def degree_sequence(g: Graph) -> tuple[int, ...]:
    """Sorted (ascending) multiset of node degrees."""
    return tuple(sorted(g.degree(u) for u in range(g.n)))


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense symmetric 0/1 adjacency matrix, float64."""
    a = np.zeros((g.n, g.n))
    for u in range(g.n):
        for v in bit_indices(g.adj[u]):
            a[u, v] = 1.0
    return a


def is_connected(g: Graph) -> bool:
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for u in bit_indices(frontier):
            nxt |= g.adj[u]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1


def validate_ordering(g: Graph, order: Sequence[int]) -> Ordering:
    """``order`` as a tuple of ints that is a permutation of 0..n-1.  Entries
    must be Python or numpy integers: floats and bools are refused, not
    truncated."""
    pi = tuple(order)
    if not all(map(_is_int, pi)):
        raise InputError("ordering entries must be integers")
    pi = tuple(map(int, pi))
    if len(pi) != g.n or sorted(pi) != list(range(g.n)):
        raise InputError(f"ordering must be a permutation of 0..{g.n - 1}")
    return pi


def validate_orderings(g: Graph, orders) -> np.ndarray:
    """A nonempty (batch, n) int64 array of orderings of ``g``, each row a
    permutation of 0..n-1."""
    try:
        pis = np.asarray(orders)
    except ValueError:
        raise InputError("orderings must be a rectangular array") from None
    if pis.size and pis.dtype.kind not in "iu":
        raise InputError(f"orderings must be integers, got dtype {pis.dtype}")
    pis = pis.astype(np.int64, copy=False)
    if pis.ndim != 2 or pis.shape[0] < 1 or pis.shape[1] != g.n:
        raise InputError(f"orderings must have shape (batch, {g.n}) with batch >= 1, got {pis.shape}")
    if not (np.sort(pis, axis=1) == np.arange(g.n)).all():
        raise InputError(f"each ordering must be a permutation of 0..{g.n - 1}")
    return pis


def induced_subgraph(g: Graph, nodes: Sequence[int]) -> Graph:
    """Subgraph on ``nodes``; node i of the result is ``nodes[i]``."""
    sel = list(nodes)
    if len(set(sel)) != len(sel):
        raise InputError("induced subgraph nodes must be distinct")
    for u in sel:
        if not 0 <= u < g.n:
            raise InputError(f"node {u} out of range")
    k = len(sel)
    rows = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            if g.adj[sel[i]] >> sel[j] & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(k, tuple(rows))


def color_refinement(g: Graph, initial: Sequence[int] | None = None) -> Coloring:
    """Stable coloring from iterated neighbour-multiset refinement.

    Colors are dense ids assigned by lexicographic order of the
    (old color, sorted neighbour colors) signatures, so they are deterministic
    and only split (never merge) the initial classes.
    """
    colors = None
    if initial is not None:
        if len(initial) != g.n:
            raise InputError("initial coloring must assign every node a color")
        ids = {c: i for i, c in enumerate(sorted(set(initial)))}
        colors = [ids[c] for c in initial]
    return refine_neighbor_lists([bit_indices(row) for row in g.adj], colors)


def refine_neighbor_lists(
    nbrs: Sequence[Sequence[int]], colors: list[int] | None = None
) -> Coloring:
    """``color_refinement`` of the graph in which node u's neighbours are
    ``nbrs[u]``, from dense color ids ``colors``.

    With no colors it starts from the dense rank of each node's degree,
    which is what one pass from a single class assigns.
    """
    if colors is None:
        degrees = [len(row) for row in nbrs]
        ids = {d: i for i, d in enumerate(sorted(set(degrees)))}
        colors = [ids[d] for d in degrees]
    classes = len(set(colors))
    while True:
        sigs = [(colors[u], tuple(sorted(colors[v] for v in row))) for u, row in enumerate(nbrs)]
        ids = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ids[s] for s in sigs]
        if len(ids) == classes:
            return tuple(new)
        colors, classes = new, len(ids)


def find_isomorphism(
    g1: Graph, g2: Graph, keys1: Iterable[Hashable], keys2: Iterable[Hashable]
) -> list[int] | None:
    """A bijection f from g1's nodes onto g2's, or None if there is none.

    f matches on adjacency and on the keys: u and w are adjacent in g1 exactly
    when f(u) and f(w) are adjacent in g2, and keys1[u] == keys2[f(u)] for
    every u.  The search backtracks over nodes in label order and tries only
    the targets with an equal key, so finer keys prune more.
    """
    keys1, keys2 = list(keys1), list(keys2)
    if g1.n != g2.n or sorted(keys1) != sorted(keys2):
        return None
    n = g1.n
    targets: dict[Hashable, list[int]] = {}
    for j, key in enumerate(keys2):
        targets.setdefault(key, []).append(j)
    mapping = [-1] * n

    def extend(i: int, used: int) -> bool:
        if i == n:
            return True
        for j in targets.get(keys1[i], ()):
            if used >> j & 1:
                continue
            if all((g1.adj[i] >> k & 1) == (g2.adj[j] >> mapping[k] & 1) for k in range(i)):
                mapping[i] = j
                if extend(i + 1, used | 1 << j):
                    return True
        mapping[i] = -1
        return False

    return mapping if extend(0, 0) else None


def isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test: is there a bijection of g1's nodes onto g2's
    that maps edges onto edges and non-edges onto non-edges?

    Degree sequences filter most non-isomorphic pairs.  The rest are refined
    together as one disjoint union, so both graphs get colors from one
    numbering, and ``find_isomorphism`` matches on those colors.
    """
    if g1.n != g2.n or degree_sequence(g1) != degree_sequence(g2):
        return False
    n = g1.n
    colors = color_refinement(Graph(2 * n, g1.adj + tuple(row << n for row in g2.adj)))
    return find_isomorphism(g1, g2, colors[:n], colors[n:]) is not None

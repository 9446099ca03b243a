"""Exact and approximate graph symmetry: automorphism counting, node orbits,
and the ordering multiplicities they induce.

The number of orderings of a graph G that produce a given lower-triangular
matrix A equals |Aut(G)|; both model families emit such labelled matrices,
so both divide by it.  The number producing a given sequence of prefix
isomorphism classes, which can be larger, equals the product over steps t
of the orbit size of the node added at t inside the t-node prefix; no model
divides by this orbit product.  Replacing true orbits with color-refinement
classes gives a cheap upper bound on it, and so on |Aut(G)|, which a
sequence model may divide by instead (``cr`` mode) for a lower-bound joint.

Every exact answer takes one path: ``color_refinement`` colors the graph,
``find_isomorphism`` (both from ``graphs``) searches for an automorphism
that maps one individualized node to another, and ``_orbit`` collects the
nodes such automorphisms reach.  ``orbit_partition`` and
``automorphism_count`` are built on ``_orbit``.  ``sequence_multiplicity_exact``
reads each step's orbit size from ``_newest_orbit_size``, a bounded memo of
``_orbit`` keyed by (graph, prefix node bitmask, newest node).  The key leaves
out the order inside the prefix, which is exact: relabelling the nodes of a
graph does not change the size of any node's orbit.  ``sequence_multiplicity_cr``
builds no prefix graphs: it grows neighbour lists by ordering position, one
node per step, and refines each prefix's lists with
``graphs.refine_neighbor_lists``, the loop behind ``color_refinement``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .errors import ResourceError
from .graphs import (
    Coloring,
    Graph,
    bit_indices,
    color_refinement,
    find_isomorphism,
    induced_subgraph,
    refine_neighbor_lists,
    validate_ordering,
)

# exact symmetry searches refuse graphs with more nodes than this
NODE_BUDGET = 128

# entries of the prefix orbit-size memo; one graph has at most n * 2**(n-1)
# (graph, prefix, newest node) keys, 448 at n = 7
PREFIX_MEMO_SIZE = 4096


def _individualize(g: Graph, colors: Sequence[int], v: int) -> Coloring:
    marked = list(colors)
    marked[v] = max(colors) + 1
    return color_refinement(g, marked)


def _orbit(g: Graph, colors: Coloring, v: int) -> set[int]:
    """v's orbit under the automorphisms of g that preserve ``colors``.

    v is individualized once per call.  Each candidate u of v's color class
    not yet reached costs one individualization of u and one search for an
    automorphism mapping v to u.  The search keeps ``colors`` in its keys,
    so a found map stays in the color-preserving subgroup, and the whole
    cycle of that map through v joins the orbit.
    """
    orbit = {v}
    if colors.count(colors[v]) == 1:
        return orbit
    keys_v = list(zip(colors, _individualize(g, colors, v)))
    for u in range(g.n):
        if colors[u] != colors[v] or u in orbit:
            continue
        f = find_isomorphism(g, g, keys_v, zip(colors, _individualize(g, colors, u)))
        if f is None:
            continue
        w = f[v]
        while w != v:
            orbit.add(w)
            w = f[w]
    return orbit


def _check_budget(g: Graph) -> None:
    if g.n > NODE_BUDGET:
        raise ResourceError(
            f"graph has {g.n} nodes, exceeding the exact-symmetry budget of {NODE_BUDGET}"
        )


def automorphism_count(g: Graph) -> int:
    """|Aut(g)| by orbit-stabilizer recursion over individualized refinements."""
    _check_budget(g)
    value = 1
    colors = color_refinement(g)
    while len(set(colors)) < g.n:
        # the first node of the lowest color class with more than one node
        v = colors.index(min(c for c in colors if colors.count(c) > 1))
        value *= len(_orbit(g, colors, v))
        colors = _individualize(g, colors, v)
    return value


def orbit_partition(g: Graph) -> list[set[int]]:
    """Node orbits under Aut(g), sorted by smallest member."""
    _check_budget(g)
    colors = color_refinement(g)
    orbits: list[set[int]] = []
    covered: set[int] = set()
    for v in range(g.n):
        if v not in covered:
            orbits.append(_orbit(g, colors, v))
            covered |= orbits[-1]
    return orbits


@lru_cache(maxsize=PREFIX_MEMO_SIZE)
def _newest_orbit_size(g: Graph, mask: int, v: int) -> int:
    """Orbit size of v in the subgraph of g induced by the nodes of ``mask``
    (v among them), with v as the prefix's last node."""
    prefix = induced_subgraph(g, bit_indices(mask & ~(1 << v)) + [v])
    return len(_orbit(prefix, color_refinement(prefix), prefix.n - 1))


def sequence_multiplicity_exact(g: Graph, order: Sequence[int]) -> int:
    """Number of orderings whose prefix graphs match ``order``'s up to
    isomorphism: the product over t of the orbit size of the newest node.

    Each factor comes from ``_newest_orbit_size``, keyed by (g, prefix node
    set, newest node); the order inside the prefix only relabels its nodes,
    which leaves every orbit size as it is, so orderings that share a prefix
    set share the lookup. ``_newest_orbit_size.cache_info()`` reports the
    memo's hits and misses."""
    _check_budget(g)
    pi = validate_ordering(g, order)
    value = 1
    mask = 0
    for v in pi:
        mask |= 1 << v
        value *= _newest_orbit_size(g, mask, v)
    return value


def sequence_multiplicity_cr(g: Graph, order: Sequence[int]) -> int:
    """Color-refinement upper bound on sequence_multiplicity_exact: the
    product of refinement-class sizes of the newest node in each prefix.

    Position i of the ordering is node i of every prefix; ``nbrs`` holds the
    prefix's neighbour lists by position and grows by one node per step."""
    pi = validate_ordering(g, order)
    nbrs: list[list[int]] = []
    value = 1
    for t, v in enumerate(pi):
        nbrs.append([i for i in range(t) if g.adj[v] >> pi[i] & 1])
        for i in nbrs[t]:
            nbrs[i].append(t)
        if t == 1:
            # both nodes of a 2-node prefix have the same degree
            value *= 2
        elif t > 1:
            colors = refine_neighbor_lists(nbrs)
            value *= colors.count(colors[t])
    return value


def symmetry_report(g: Graph, order: Sequence[int] | None, exact_sequence: bool) -> dict:
    """The JSON summary of g's symmetry: |Aut(g)|, its orbits and stable
    colouring, and for an ordering, its colour-refinement bound and (with
    ``exact_sequence``, else null) its orbit product."""
    pi = None if order is None else validate_ordering(g, order)
    doc = {
        "nodeCount": g.n,
        "autCount": automorphism_count(g),
        "orbits": [sorted(cell) for cell in orbit_partition(g)],
        "stableColoring": list(color_refinement(g)),
    }
    if pi is not None:
        doc["order"] = list(pi)
        doc["sequenceMultiplicityExact"] = sequence_multiplicity_exact(g, pi) if exact_sequence else None
        doc["sequenceMultiplicityBound"] = sequence_multiplicity_cr(g, pi)
    return doc

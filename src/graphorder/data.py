"""Dataset containers, a plain-text multi-graph format, and synthetic generators."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import GenerationError, InputError, ParseError
from .files import read_text
from .graphs import Graph, is_connected

CONNECT_RETRY_CAP = 200


@dataclass(frozen=True)
class GraphDataset:
    """An ordered collection of graphs."""

    graphs: tuple[Graph, ...]

    def __post_init__(self):
        object.__setattr__(self, "graphs", tuple(self.graphs))

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self) -> Iterator[Graph]:
        return iter(self.graphs)


def _int_pair(line: str, lineno: int, what: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise ParseError(f"expected two integers in {what}, got {line!r}", lineno)
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"expected two integers in {what}, got {line!r}", lineno) from None


def parse_graphs(text: str) -> list[Graph]:
    """Parse blocks of ``n m`` headers followed by m ``u v`` edge lines."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    graphs: list[Graph] = []
    i = 0
    while i < len(lines):
        if lines[i].strip() == "":
            raise ParseError("expected graph header, got blank line", i + 1)
        n, m = _int_pair(lines[i], i + 1, "header")
        if n <= 0:
            raise ParseError(f"node count must be positive, got {n}", i + 1)
        if not 0 <= m <= n * (n - 1) // 2:
            raise ParseError(f"edge count {m} impossible for {n} nodes", i + 1)
        i += 1
        edges: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for _ in range(m):
            if i >= len(lines) or lines[i].strip() == "":
                raise ParseError(f"expected {m} edge lines, found {len(edges)}", i + 1)
            u, v = _int_pair(lines[i], i + 1, "edge")
            if u == v:
                raise ParseError(f"self-loop edge {u} {v}", i + 1)
            if not 0 <= u < v < n:
                raise ParseError(f"edge {u} {v} must satisfy 0 <= u < v < {n}", i + 1)
            if (u, v) in seen:
                raise ParseError(f"duplicate edge {u} {v}", i + 1)
            seen.add((u, v))
            edges.append((u, v))
            i += 1
        graphs.append(Graph.from_edges(n, edges))
        if i < len(lines):
            if lines[i].strip() != "":
                raise ParseError("expected a blank line between graph blocks", i + 1)
            if i + 1 >= len(lines):
                raise ParseError("trailing blank line without a following graph", i + 1)
            i += 1
    return graphs


def format_graphs(graphs: Iterator[Graph] | tuple[Graph, ...] | list[Graph]) -> str:
    blocks = []
    for g in graphs:
        lines = [f"{g.n} {g.edge_count}"]
        lines.extend(f"{u} {v}" for u, v in g.edges())
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


def load_dataset(path: str | Path) -> GraphDataset:
    return GraphDataset(parse_graphs(read_text(path, "dataset file")))


def _er_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    pairs = list(combinations(range(n), 2))
    keep = rng.random(len(pairs)) < p
    return Graph.from_edges(n, [pair for pair, k in zip(pairs, keep) if k])


def gen_er(count: int, n: int, p: float, rng: np.random.Generator) -> GraphDataset:
    """Sample graphs with each unordered pair edged independently with probability p."""
    if count < 0:
        raise InputError("graph count must be nonnegative")
    if n <= 0:
        raise InputError("node count must be positive")
    if not 0.0 <= p <= 1.0:
        raise InputError(f"edge probability must lie in [0, 1], got {p}")
    return GraphDataset(_er_graph(n, p, rng) for _ in range(count))


def _connected_er(n: int, p: float, rng: np.random.Generator) -> Graph:
    for _ in range(CONNECT_RETRY_CAP):
        g = _er_graph(n, p, rng)
        if is_connected(g):
            return g
    raise GenerationError(
        f"no connected {n}-node sample at edge probability {p} "
        f"within {CONNECT_RETRY_CAP} attempts"
    )


def community_halves(n: int) -> tuple[int, int]:
    """Planted community sizes: nodes [0, a) and [a, n) with a = ceil(n / 2)."""
    a = (n + 1) // 2
    return a, n - a


def gen_community_small(
    count: int, n_range: tuple[int, int], p_intra: float, rng: np.random.Generator
) -> GraphDataset:
    """Sample two connected communities joined by exactly one uniform bridge edge."""
    if count < 0:
        raise InputError("graph count must be nonnegative")
    lo, hi = n_range
    if not 4 <= lo <= hi:
        raise InputError(f"node range must satisfy 4 <= lo <= hi, got [{lo}, {hi}]")
    if not 0.0 <= p_intra <= 1.0:
        raise InputError(f"edge probability must lie in [0, 1], got {p_intra}")
    graphs = []
    for _ in range(count):
        n = int(rng.integers(lo, hi + 1))
        a, b = community_halves(n)
        left = _connected_er(a, p_intra, rng)
        right = _connected_er(b, p_intra, rng)
        edges = left.edges()
        edges.extend((a + u, a + v) for u, v in right.edges())
        edges.append((int(rng.integers(a)), a + int(rng.integers(b))))
        graphs.append(Graph.from_edges(n, edges))
    return GraphDataset(graphs)

"""Toolkit for autoregressive graph generation with learned node orderings.

Trains adjacency-row and node-by-node graph models jointly with a variational
posterior over generation orderings, counts ordering multiplicities exactly via
a graph-automorphism engine (or bounds them via color refinement), and
evaluates marginal likelihoods by importance sampling.
"""

from .errors import (
    GenerationError,
    GraphOrderError,
    InputError,
    NumericError,
    ParseError,
    ResourceError,
)
from .graphs import (
    Graph,
    degree_sequence,
    induced_subgraph,
    isomorphic,
)

__all__ = [
    "GenerationError",
    "Graph",
    "GraphOrderError",
    "InputError",
    "NumericError",
    "ParseError",
    "ResourceError",
    "degree_sequence",
    "induced_subgraph",
    "isomorphic",
]

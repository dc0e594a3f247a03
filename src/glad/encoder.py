"""Node embedding via isomorphism-network message passing.

Each layer is GIN-0: it aggregates ``h + A @ h`` (A the weighted
adjacency, zero diagonal) and pushes the result through a bias-free
two-layer MLP (ReLU after the first linear map, none after the second).
Only the last layer's node embeddings are exposed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Graph
from .numkit import GradSet, ParamSet


@dataclass(eq=False)
class EmbeddingSet:
    """Node embedding matrix of one graph: (node_count, d_hidden)."""

    graph_id: int
    vectors: np.ndarray

    @property
    def size(self) -> int:
        return self.vectors.shape[0]


def gin_forward(graph: Graph, params: ParamSet,
                with_cache: bool = False):
    """Embed one graph's nodes.

    Returns an :class:`EmbeddingSet`, or ``(EmbeddingSet, caches)`` when
    ``with_cache`` is set.  Caches hold, per layer, the MLP input, the
    hidden activation, and the ReLU mask needed by :func:`gin_backward`.
    """
    if graph.features is None:
        raise ValueError(f"graph {graph.graph_id} has no derived features")
    if graph.features.shape[1] != params.d_in:
        raise ValueError(f"graph {graph.graph_id} features width "
                         f"{graph.features.shape[1]} != d_in {params.d_in}")
    h = graph.features
    caches = []
    for w1, w2 in params.layers:
        z = h + graph.adjacency @ h
        m = z @ w1
        mask = m > 0
        a = np.where(mask, m, 0.0)
        h = a @ w2
        if with_cache:
            caches.append((z, a, mask))
    out = EmbeddingSet(graph_id=graph.graph_id, vectors=h)
    return (out, caches) if with_cache else out


def gin_backward(graph: Graph, params: ParamSet, caches,
                 d_out: np.ndarray, grads: GradSet) -> None:
    """Backpropagate ``d_out`` (gradient w.r.t. the final node embeddings)
    through the encoder, accumulating weight gradients into ``grads``.
    Propagation stops at layer 0's weights: no gradient w.r.t. the input
    features is formed.
    """
    dh = d_out
    for l in range(params.n_layers - 1, -1, -1):
        w1, w2 = params.layers[l]
        z, a, mask = caches[l]
        g1, g2 = grads.layers[l]
        g2 += a.T @ dh
        dm = np.where(mask, dh @ w2.T, 0.0)
        g1 += z.T @ dm
        if l:
            dz = dm @ w1.T
            # Aggregation is linear; A is symmetric so A^T = A.
            dh = dz + graph.adjacency @ dz

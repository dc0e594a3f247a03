"""Node embedding via isomorphism-network message passing.

Each layer is GIN-0: it aggregates ``h + A @ h`` (A the weighted
adjacency, zero diagonal) and pushes the result through a bias-free
two-layer MLP (ReLU after the first linear map, none after the second).
Only the last layer's node embeddings are exposed.

The unit of work is a block of consecutive graphs (:func:`blocks`),
embedded as one zero-padded ``(B, n_max, .)`` stack: the aggregation is
one batched product and each MLP map one GEMM over all ``B * n_max``
rows.  Padded rows stay exactly 0 (zero features and adjacency, no
bias, ReLU(0) = 0), and their ReLU mask keeps any upstream gradient
from reaching a weight, so no masking is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkit import GradSet, ParamSet

# Padded rows per block, B * n_max.  A block's temporaries must stay
# small enough for the allocator to reuse their memory: larger blocks
# map fresh pages on each call and page-fault through them.
BLOCK_ROWS = 400


@dataclass(eq=False)
class EmbeddingSet:
    """Node embedding matrix of one graph: (node_count, d_hidden)."""

    graph_id: int
    vectors: np.ndarray

    @property
    def size(self) -> int:
        return self.vectors.shape[0]


def blocks(sizes) -> list:
    """Split items with the given row counts, in order, into ``(start,
    stop)`` spans with ``count * max(rows) <= BLOCK_ROWS``.  Every span
    holds at least one item, so an item larger than the constant forms a
    span of its own."""
    spans, start, widest = [], 0, 0
    for i, n in enumerate(sizes):
        widest = max(widest, n)
        if i > start and (i + 1 - start) * widest > BLOCK_ROWS:
            spans.append((start, i))
            start, widest = i, n
    if len(sizes):
        spans.append((start, len(sizes)))
    return spans


def embed_block(graphs, params: ParamSet, with_cache: bool = False):
    """Embed the nodes of a block of graphs.

    Returns ``h`` of shape ``(B, n_max, d_hidden)``: node i of
    ``graphs[b]`` at ``h[b, i]``, rows at and past its node count exactly
    0.  With ``with_cache`` returns ``(h, cache)``; the cache holds the
    padded adjacency and, per layer, the MLP input, the hidden activation
    and the ReLU mask that :func:`backprop_block` needs.
    """
    for g in graphs:
        if g.features is None:
            raise ValueError(f"graph {g.graph_id} has no derived features")
        if g.features.shape[1] != params.d_in:
            raise ValueError(f"graph {g.graph_id} features width "
                             f"{g.features.shape[1]} != d_in {params.d_in}")
    n_max = max(g.node_count for g in graphs)
    h = np.zeros((len(graphs), n_max, params.d_in))
    adj = np.zeros((len(graphs), n_max, n_max))
    for b, g in enumerate(graphs):
        h[b, :g.node_count] = g.features
        adj[b, :g.node_count, :g.node_count] = g.adjacency
    layers = []
    for w1, w2 in params.layers:
        z = (h + adj @ h).reshape(-1, h.shape[2])
        m = z @ w1
        mask = m > 0
        a = np.where(mask, m, 0.0)
        h = (a @ w2).reshape(len(graphs), n_max, -1)
        if with_cache:
            layers.append((z, a, mask))
    return (h, (adj, layers)) if with_cache else h


def backprop_block(params: ParamSet, cache, d_out: np.ndarray,
                   grads: GradSet) -> None:
    """Backpropagate ``d_out`` (gradient w.r.t. a block's padded node
    embeddings, shaped like :func:`embed_block`'s ``h``) through the
    encoder, accumulating weight gradients into ``grads``.  Propagation
    stops at layer 0's weights: no gradient w.r.t. the input features is
    formed.
    """
    adj, layers = cache
    n_b, n_max = adj.shape[:2]
    dh = d_out.reshape(n_b * n_max, -1)
    for l in range(params.n_layers - 1, -1, -1):
        w1, w2 = params.layers[l]
        z, a, mask = layers[l]
        g1, g2 = grads.layers[l]
        g2 += a.T @ dh
        dm = np.where(mask, dh @ w2.T, 0.0)
        g1 += z.T @ dm
        if l:
            dz = (dm @ w1.T).reshape(n_b, n_max, -1)
            # Aggregation is linear; A is symmetric so A^T = A.
            dh = (dz + adj @ dz).reshape(n_b * n_max, -1)

"""Node embedding via isomorphism-network message passing.

Each layer is GIN-0: it aggregates ``h + A @ h`` (A the weighted
adjacency, zero diagonal) and pushes the result through a bias-free
two-layer MLP (ReLU after the first linear map, none after the second).
Only the last layer's node embeddings are exposed.

The unit of work is a block of consecutive graphs (:func:`blocks`),
embedded as one zero-padded ``(B, n_max, .)`` stack: the aggregation is
one batched product and each MLP map one GEMM over all ``B * n_max``
rows.  The adjacency stack (8 * B * n_max**2 bytes) is the only dense
adjacency: built from the edge arrays in a reused buffer, one block's at
a time.  Padded rows stay exactly 0 (zero features and adjacency, no
bias, ReLU(0) = 0), and their ReLU mask keeps any upstream gradient
from reaching a weight, so no masking is needed.
"""

from __future__ import annotations

import numpy as np

from .numkit import ParamSet, Workspace

# Padded rows per block, B * n_max.  The block size sets how graphs are
# grouped into GEMMs and set-kernel sums, so it fixes the score bits:
# 800 changes them.
BLOCK_ROWS = 400


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


def embed_block(graphs, params: ParamSet, with_cache: bool = False,
                ws: Workspace | None = None):
    """Embed the nodes of a block of graphs.

    Returns ``h`` of shape ``(B, n_max, d_hidden)``: node i of
    ``graphs[b]`` at ``h[b, i]``, rows at and past its node count exactly
    0.  With ``with_cache`` returns ``(h, cache)``; the cache holds the
    padded adjacency (edge (u, v, w) puts w at ``[b, u, v]`` and ``[b, v,
    u]``, all else 0) and, per layer, the pair ``(z, a)`` that
    :func:`backprop_block` needs: the MLP input ``z`` and the hidden
    activation ``a``, bit-equal to ``np.where(m > 0, m, 0.0)`` for the
    pre-activation ``m = z @ w1`` (NaN and -0.0 map to +0.0).
    Arrays live in ``ws`` (a fresh :class:`Workspace` if omitted), ``h``
    and the cache until the next block is embedded there.
    """
    for g in graphs:
        if g.features is None:
            raise ValueError(f"graph {g.graph_id} has no derived features")
        if g.features.shape[1] != params.d_in:
            raise ValueError(f"graph {g.graph_id} features width "
                             f"{g.features.shape[1]} != d_in {params.d_in}")
    ws = ws or Workspace()
    n_b, n_max = len(graphs), max(g.node_count for g in graphs)
    h = ws("stack", (n_b, n_max, params.d_in), fill=0.0)
    for b, g in enumerate(graphs):
        h[b, :g.node_count] = g.features
    # The block's edge records as int64 rows (u, v, bits of w), one scatter.
    u, v, w = np.frombuffer(b"".join([g.edges.tobytes() for g in graphs]),
                            np.int64).reshape(-1, 3).T
    base = np.repeat(np.arange(0, n_b * n_max, n_max), [len(g.edges) for g in graphs])
    adj = ws("adj", (n_b, n_max, n_max), fill=0.0)
    flat = adj.reshape(-1)
    flat[(base + u) * n_max + v] = flat[(base + v) * n_max + u] = w.view(np.float64)
    layers = []
    for l, (w1, w2) in enumerate(params.layers):
        z = np.matmul(adj, h, out=ws(("z", l), h.shape))
        z += h
        z = z.reshape(-1, h.shape[2])
        a = np.matmul(z, w1, out=ws(("a", l), (len(z), w1.shape[1])))
        # fmax maps NaN to 0 but may keep -0.0; adding +0.0 makes it +0.0.
        np.fmax(a, 0.0, out=a)
        a += 0.0
        h = np.matmul(a, w2, out=ws(("h", l), a.shape)).reshape(n_b, n_max, -1)
        layers.append((z, a))
    return (h, (adj, layers)) if with_cache else h


def backprop_block(params: ParamSet, cache, d_out: np.ndarray,
                   grads: ParamSet, ws: Workspace | None = None) -> None:
    """Backpropagate ``d_out`` (gradient w.r.t. a block's padded node
    embeddings, shaped like :func:`embed_block`'s ``h``) through the
    encoder, adding weight gradients into ``grads``, a ParamSet shaped
    like ``params``; propagation stops at layer 0's weights, forming no
    gradient w.r.t. the input features.  The ReLU mask is ``a > 0`` from
    the cached ``(z, a)``, which equals ``m > 0`` for every
    pre-activation, and is applied with ``np.where`` semantics: a masked
    entry becomes +0.0 even when the upstream gradient there is NaN or
    inf.  Temporaries live in ``ws``.
    """
    ws = ws or Workspace()
    adj, layers = cache
    n_b, n_max = adj.shape[:2]
    dh = d_out.reshape(n_b * n_max, -1)
    for l in range(params.n_layers - 1, -1, -1):
        w1, w2 = params.layers[l]
        z, a = layers[l]
        g1, g2 = grads.layers[l]
        g2 += a.T @ dh
        # a holds no -0.0 or NaN, so as int64 its bits are 0 at +0.0 and
        # positive elsewhere, and -bits >> 63 is all ones where a > 0: the
        # AND selects as np.where does, a masked NaN or inf becoming +0.0.
        dm = np.matmul(dh, w2.T, out=ws("dm", a.shape))
        m = np.negative(a.view(np.int64), out=ws("relu", a.shape, np.int64))
        dm.view(np.int64)[...] &= np.right_shift(m, 63, out=m)
        g1 += z.T @ dm
        if l:
            dz = np.matmul(dm, w1.T, out=ws("dz", z.shape))
            dz = dz.reshape(n_b, n_max, -1)
            # Aggregation is linear; A is symmetric so A^T = A.
            dh = np.matmul(adj, dz, out=ws("dh", dz.shape))
            dh += dz
            dh = dh.reshape(n_b * n_max, -1)

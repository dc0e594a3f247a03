"""Parameter containers, Glorot initialization, SGD with
decoupled-from-the-data-term weight decay, and scratch buffers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class ParamSet:
    """Weights of a stack of two-layer bias-free MLPs.

    ``layers[l]`` is a pair ``(w1, w2)``; layer 0 maps d_in -> d_hidden,
    all later layers map d_hidden -> d_hidden.
    """

    layers: list
    d_in: int
    d_hidden: int

    def __post_init__(self):
        if not self.layers:
            raise ValueError("need at least one layer")
        for l, (w1, w2) in enumerate(self.layers):
            want_in = self.d_in if l == 0 else self.d_hidden
            if w1.shape != (want_in, self.d_hidden):
                raise ValueError(f"layer {l} w1 shape {w1.shape}, "
                                 f"expected {(want_in, self.d_hidden)}")
            if w2.shape != (self.d_hidden, self.d_hidden):
                raise ValueError(f"layer {l} w2 shape {w2.shape}, "
                                 f"expected {(self.d_hidden, self.d_hidden)}")

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def sq_norm(self) -> float:
        """Sum of squared Frobenius norms over all weight matrices."""
        return float(sum(np.sum(w * w) for pair in self.layers for w in pair))

    def zeros_like(self) -> "ParamSet":
        """Zero matrices of these shapes: the container for gradients."""
        return ParamSet([(np.zeros_like(w1), np.zeros_like(w2))
                         for w1, w2 in self.layers], self.d_in, self.d_hidden)


class Workspace:
    """Scratch arrays kept across calls: one buffer per key (a role, plus a
    layer where layers coexist), grown only when a request is larger.
    A request gets a C-contiguous view of it, set to ``fill`` if given."""

    def __init__(self):
        self.bufs, self.views = {}, {}  # views: (key, shape) -> view

    def __call__(self, key, shape, dtype=np.float64, fill=None):
        view = self.views.get((key, shape))
        if view is None:
            n, buf = math.prod(shape), self.bufs.get(key)
            if buf is None or buf.size < n:
                buf = self.bufs[key] = np.empty(n, dtype)
                self.views.clear()
            view = self.views[key, shape] = buf[:n].reshape(shape)
        if fill is not None:
            view[...] = fill
        return view


def init_params(d_in: int, d_hidden: int, n_layers: int, seed: int) -> ParamSet:
    """Glorot-uniform weights."""
    if min(d_in, d_hidden, n_layers) < 1:
        raise ValueError("dimensions and layer count must be positive")
    rng = np.random.default_rng(seed)
    layers = []
    for l in range(n_layers):
        fan_in = d_in if l == 0 else d_hidden
        b1 = np.sqrt(6.0 / (fan_in + d_hidden))
        b2 = np.sqrt(6.0 / (d_hidden + d_hidden))
        w1 = rng.uniform(-b1, b1, size=(fan_in, d_hidden))
        w2 = rng.uniform(-b2, b2, size=(d_hidden, d_hidden))
        layers.append((w1, w2))
    return ParamSet(layers=layers, d_in=d_in, d_hidden=d_hidden)


def sgd_step(params: ParamSet, grads: ParamSet, lr: float,
             weight_decay: float) -> ParamSet:
    """One descent step ``w <- w - lr * (g + weight_decay * w)``.

    ``grads``, a ParamSet shaped like ``params``, must hold the gradient
    of the data term only; the decay term is applied here exactly once.
    """
    if len(grads.layers) != len(params.layers):
        raise ValueError("gradient/parameter layer count mismatch")
    new_layers = []
    for (w1, w2), (g1, g2) in zip(params.layers, grads.layers):
        if g1.shape != w1.shape or g2.shape != w2.shape:
            raise ValueError("gradient/parameter shape mismatch")
        new_layers.append((w1 - lr * (g1 + weight_decay * w1),
                           w2 - lr * (g2 + weight_decay * w2)))
    return ParamSet(layers=new_layers, d_in=params.d_in,
                    d_hidden=params.d_hidden)

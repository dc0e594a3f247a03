"""Parameter containers and small numerical utilities: Glorot
initialization, SGD with decoupled-from-the-data-term weight decay, and
central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class ParamSet:
    """Weights of a stack of two-layer bias-free MLPs.

    ``layers[l]`` is a pair ``(w1, w2)``; layer 0 maps d_in -> d_hidden,
    all later layers map d_hidden -> d_hidden.  ``epsilons[l]`` is the
    self-loop coefficient of layer ``l`` (fixed, not trained).
    """

    layers: list
    epsilons: list
    d_in: int
    d_hidden: int

    def __post_init__(self):
        if len(self.layers) != len(self.epsilons) or not self.layers:
            raise ValueError("need one epsilon per layer, at least one layer")
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

    @property
    def n_params(self) -> int:
        return sum(w1.size + w2.size for w1, w2 in self.layers)

    def copy(self) -> "ParamSet":
        return ParamSet(layers=[(w1.copy(), w2.copy()) for w1, w2 in self.layers],
                        epsilons=list(self.epsilons),
                        d_in=self.d_in, d_hidden=self.d_hidden)

    def matrices(self):
        """All weight matrices in order (w1 before w2, layer by layer)."""
        for w1, w2 in self.layers:
            yield w1
            yield w2

    def sq_norm(self) -> float:
        """Sum of squared Frobenius norms over all weight matrices."""
        return float(sum(np.sum(w * w) for w in self.matrices()))

    def flatten(self) -> np.ndarray:
        return np.concatenate([w.ravel() for w in self.matrices()])


@dataclass(eq=False)
class GradSet:
    """Gradients congruent to a :class:`ParamSet` (same matrix shapes)."""

    layers: list

    @classmethod
    def zeros_like(cls, params: ParamSet) -> "GradSet":
        return cls(layers=[(np.zeros_like(w1), np.zeros_like(w2))
                           for w1, w2 in params.layers])

    def scale(self, factor: float) -> None:
        for g1, g2 in self.layers:
            g1 *= factor
            g2 *= factor

    def matrices(self):
        for g1, g2 in self.layers:
            yield g1
            yield g2

    def flatten(self) -> np.ndarray:
        return np.concatenate([g.ravel() for g in self.matrices()])


def init_params(d_in: int, d_hidden: int, n_layers: int, seed: int) -> ParamSet:
    """Glorot-uniform weights, epsilon fixed to zero for every layer."""
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
    return ParamSet(layers=layers, epsilons=[0.0] * n_layers,
                    d_in=d_in, d_hidden=d_hidden)


def sgd_step(params: ParamSet, grads: GradSet, lr: float,
             weight_decay: float) -> ParamSet:
    """One descent step ``w <- w - lr * (g + weight_decay * w)``.

    ``grads`` must hold the gradient of the data term only; the decay
    term is applied here exactly once.
    """
    if len(grads.layers) != len(params.layers):
        raise ValueError("gradient/parameter layer count mismatch")
    new_layers = []
    for (w1, w2), (g1, g2) in zip(params.layers, grads.layers):
        if g1.shape != w1.shape or g2.shape != w2.shape:
            raise ValueError("gradient/parameter shape mismatch")
        new_layers.append((w1 - lr * (g1 + weight_decay * w1),
                           w2 - lr * (g2 + weight_decay * w2)))
    return ParamSet(layers=new_layers, epsilons=list(params.epsilons),
                    d_in=params.d_in, d_hidden=params.d_hidden)


def finite_diff_grad(loss_fn, params: ParamSet, h: float = 1e-5,
                     indices=None) -> GradSet:
    """Central-difference gradient of ``loss_fn`` at ``params``.

    ``loss_fn`` maps a ParamSet to a float and must not mutate it.  When
    ``indices`` (positions into the flattened parameter vector) is given,
    only those entries are filled; the rest stay zero.
    """
    work = params.copy()
    grads = GradSet.zeros_like(params)
    mats = list(work.matrices())
    gmats = list(grads.matrices())
    sizes = [m.size for m in mats]
    bounds = np.cumsum([0] + sizes)
    if indices is None:
        indices = range(int(bounds[-1]))
    for flat_idx in indices:
        k = int(np.searchsorted(bounds, flat_idx, side="right") - 1)
        off = flat_idx - bounds[k]
        pos = np.unravel_index(off, mats[k].shape)
        orig = mats[k][pos]
        mats[k][pos] = orig + h
        up = loss_fn(work)
        mats[k][pos] = orig - h
        down = loss_fn(work)
        mats[k][pos] = orig
        gmats[k][pos] = (up - down) / (2.0 * h)
    return grads


"""Distribution-aware readout over node embedding sets.

A Gaussian kernel between embedding sets (mean of all pairwise node
kernels), its bandwidth rule, and a Nystrom approximation anchored on
landmark graphs that compresses it to finite coordinates.  The plain
mean readout is a per-block sum in :mod:`glad.trainer`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoder
from .errors import DegenerateInputError

EIGEN_CUTOFF = 1e-8
DEFAULT_SAMPLE_CAP = 100_000


@dataclass(eq=False)
class NystromMap:
    """Finite-dimensional surrogate for the set-kernel feature space.

    ``factor`` has one column per retained eigenpair; mapping a set's
    kernel row against the landmarks through ``factor`` yields coordinates
    whose inner products approximate the set kernel.  ``gamma`` is the
    exponent coefficient in ``exp(-gamma * ||x - y||^2)``.
    """

    landmarks: list
    factor: np.ndarray
    gamma: float

    @property
    def rank(self) -> int:
        return self.factor.shape[1]


def _sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, clipped at zero."""
    xx = np.sum(x * x, axis=1)[:, None]
    yy = np.sum(y * y, axis=1)[None, :]
    return np.maximum(xx + yy - 2.0 * (x @ y.T), 0.0)


def _stack(sets):
    """Concatenate set vectors; returns (matrix, sizes, row offsets)."""
    sizes = np.array([s.vectors.shape[0] for s in sets], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    return np.concatenate([s.vectors for s in sets], axis=0), sizes, offsets


def set_kernel_matrix(sets_a, sets_b, gamma: float,
                      with_pullback: bool = False):
    """All set-kernel values between two lists of embedding sets.

    Entry (a, b) is the mean of ``exp(-gamma * ||x - y||^2)`` over all
    node pairs x in set a, y in set b.  ``sets_a`` is processed in blocks
    of consecutive sets (:func:`glad.encoder.blocks`).  A block's
    node-pair kernel is one product of augmented operands, ``[2 gamma x,
    -gamma ||x||^2, 1] @ [y, 1, -gamma ||y||^2]^T``, clipped at 0 (so
    rounding cannot push a squared distance below zero) and exponentiated
    in place.  Block sums reduce columns per set b first, then rows per
    set a.  Every set must have at least one row.

    With ``with_pullback`` returns ``(k, pullback)``.  ``pullback(coeffs)``
    gives the gradients of ``sum(coeffs * k)`` w.r.t. the node vectors of
    both lists as ``(grads_a, grads_b)``, lists of arrays shaped like each
    set's vectors; it reuses the node-pair kernel computed here, runs
    set by set through ``sets_a``, sums the ``sets_b`` gradients in that
    order and may be called any number of times.  Every block's node-pair
    kernel stays alive with the pullback, so a caller bounds memory by
    passing one block of ``sets_a`` per call.  When a set object appears
    on both sides the caller must add the two contributions.
    """
    for s in (*sets_a, *sets_b):
        if s.size == 0:
            raise ValueError(f"embedding set of graph {s.graph_id} has no rows")
    sa = np.array([s.size for s in sets_a], dtype=np.int64)
    xb, sb, ob = _stack(sets_b)
    d = xb.shape[1]
    bm = np.empty((xb.shape[0], d + 2))
    bm[:, :d] = xb
    bm[:, d] = 1.0
    bm[:, d + 1] = -gamma * np.sum(xb * xb, axis=1)
    spans = encoder.blocks(sa)
    parts, ks = [], []
    for lo, hi in spans:
        xa, _, oa = _stack(sets_a[lo:hi])
        am = np.empty((xa.shape[0], d + 2))
        np.multiply(xa, 2.0 * gamma, out=am[:, :d])
        am[:, d] = -gamma * np.sum(xa * xa, axis=1)
        am[:, d + 1] = 1.0
        e = am @ bm.T
        np.minimum(e, 0.0, out=e)
        np.exp(e, out=e)
        cols = np.add.reduceat(e, ob[:-1], axis=1)
        ks.append(np.add.reduceat(cols, oa[:-1], axis=0))
        if with_pullback:
            parts.append((xa, oa, e, cols))
        del e  # without a pullback, free this block's kernel before the next
    norm = sa[:, None] * sb[None, :]
    k = np.concatenate(ks) / norm
    if not with_pullback:
        return k

    owner = np.repeat(np.arange(len(sets_b)), sb)  # set b of each column

    def pullback(coeffs):
        # Per-node-pair coefficient upstream / (n_a * m_b).  One set a at
        # a time, its rows of e scaled by its coefficients spread over
        # columns: e is never written and no block-sized temporary is made.
        c = coeffs / norm
        grads_a, gsum, gx = [], np.zeros(len(xb)), np.zeros_like(xb)
        for (lo, hi), (xa, oa, e, cols) in zip(spans, parts):
            for i in range(hi - lo):
                r = slice(oa[i], oa[i + 1])
                g = e[r] * c[lo + i, owner]
                row_sums = cols[r] @ c[lo + i]
                grads_a.append(-2.0 * gamma
                               * (xa[r] * row_sums[:, None] - g @ xb))
                gsum += g.sum(axis=0)
                gx += g.T @ xa[r]
        db = -2.0 * gamma * (xb * gsum[:, None] - gx)
        return grads_a, np.split(db, ob[1:-1])

    return k, pullback


def median_heuristic(sets, sample_cap: int = DEFAULT_SAMPLE_CAP,
                     rng=None) -> float:
    """Bandwidth rule: ``gamma = 1 / median(squared pairwise distances)``
    over all node vectors in ``sets``.

    All distinct pairs are used when their count is at most
    ``sample_cap``; otherwise ``sample_cap`` pairs are sampled with
    ``rng`` (a fresh deterministic generator when omitted) and their
    distances computed ``BLOCK_ROWS`` pairs at a time.  Falls back to
    ``gamma = 1`` when the median vanishes.
    """
    x, _, _ = _stack(sets)
    n = x.shape[0]
    if n < 2:
        return 1.0
    n_pairs = n * (n - 1) // 2
    if n_pairs <= sample_cap:
        d = _sq_dists(x, x)
        vals = d[np.triu_indices(n, k=1)]
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        i = rng.integers(0, n, size=sample_cap)
        j = rng.integers(0, n - 1, size=sample_cap)
        j += j >= i  # distinct partner
        vals = np.empty(sample_cap)
        step = encoder.BLOCK_ROWS
        for lo in range(0, sample_cap, step):
            diff = (np.take(x, i[lo:lo + step], axis=0)
                    - np.take(x, j[lo:lo + step], axis=0))
            vals[lo:lo + step] = np.sum(diff * diff, axis=1)
    med = float(np.median(vals, overwrite_input=True))
    if med <= 0.0:
        return 1.0
    return 1.0 / med


def nystrom_fit(landmarks, gamma: float,
                rank: int | None = None) -> NystromMap:
    """Eigendecompose the landmark set-kernel matrix at bandwidth
    ``gamma`` and keep the well-conditioned part.

    With ``rank=None`` all eigenvalues above ``EIGEN_CUTOFF * lambda_max``
    (and above zero) are retained.  With a fixed ``rank`` the top that
    many admissible eigenpairs are kept and the factor is zero-padded if
    fewer exist, so the output width never changes between refits.
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not landmarks:
        raise ValueError("need at least one landmark set")
    k = set_kernel_matrix(landmarks, landmarks, gamma)
    evals, evecs = np.linalg.eigh(k)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    floor = EIGEN_CUTOFF * max(evals[0], 0.0)
    keep = evals > floor
    if not np.any(keep):
        raise DegenerateInputError("landmark kernel matrix has no admissible "
                                   "eigenvalues")
    n_keep = int(np.sum(keep)) if rank is None else min(rank, int(np.sum(keep)))
    vals = evals[:n_keep]
    vecs = evecs[:, :n_keep]
    # Deterministic eigenvector orientation: largest-magnitude entry positive.
    lead = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[lead, np.arange(n_keep)])
    signs[signs == 0] = 1.0
    factor = (vecs * signs) / np.sqrt(vals)
    if rank is not None and n_keep < rank:
        factor = np.hstack([factor, np.zeros((len(landmarks), rank - n_keep))])
    return NystromMap(landmarks=list(landmarks), factor=factor, gamma=gamma)


def mmd_pool_batch(sets, nmap: NystromMap) -> np.ndarray:
    """Nystrom coordinates of each set, (len(sets), rank): its kernel
    row against the landmarks pushed through the eigen factor."""
    krows = set_kernel_matrix(sets, nmap.landmarks, nmap.gamma)
    return krows @ nmap.factor

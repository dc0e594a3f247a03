"""Distribution-aware readout over node embedding sets.

A Gaussian kernel between embedding sets (mean of all pairwise node
kernels), its bandwidth rule, and a Nystrom approximation anchored on
landmark graphs that compresses it to finite coordinates.  Sets come
packed: rows ``x`` (set after set) and int64 offsets ``o`` from 0, set
i being ``x[o[i]:o[i + 1]]``.  Mean pooling lives in :mod:`glad.trainer`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoder
from .errors import DegenerateInputError
from .numkit import Workspace

EIGEN_CUTOFF = 1e-8
SAMPLE_CAP = 100_000


@dataclass(eq=False)
class NystromMap:
    """Finite-dimensional surrogate for the set-kernel feature space.

    ``landmarks`` and ``offsets`` pack the landmark sets.  ``factor`` has
    one column per retained eigenpair; mapping a set's kernel row against
    the landmarks through ``factor`` yields coordinates whose inner
    products approximate the set kernel.  ``gamma`` is the exponent
    coefficient in ``exp(-gamma * ||x - y||^2)``.
    """

    landmarks: np.ndarray
    offsets: np.ndarray
    factor: np.ndarray
    gamma: float

    @property
    def rank(self) -> int:
        return self.factor.shape[1]


def set_kernel(xa, oa, xb, ob, gamma: float, d_k=None, ws=None):
    """All set-kernel values between the packed sets ``(xa, oa)`` and
    ``(xb, ob)``.

    Entry (a, b) is the mean of ``exp(-gamma * ||x - y||^2)`` over all
    node pairs x in set a, y in set b.  The sets a are processed in blocks
    of consecutive sets (:func:`glad.encoder.blocks`).  A block's
    node-pair kernel is one product of augmented operands, ``[2 gamma x,
    -gamma ||x||^2, 1] @ [y, 1, -gamma ||y||^2]^T``, clipped at 0 (so
    rounding cannot push a squared distance below zero) and exponentiated
    in place.  Block sums reduce columns per set b first, then rows per
    set a.  Every set must have at least one row; rows of ``xa`` past
    ``oa[-1]`` are in no set.

    With ``d_k`` returns ``(k, ga, gb)``: the gradients of ``sum(c * k)``
    w.r.t. ``xa`` and ``xb``, shaped like them, where a block's rows of
    the coefficients ``c`` are ``d_k`` of its rows of ``k``.  Each block
    is pulled back set by set while its node-pair kernel is live; ``gb``
    adds up block by block.  When a set appears on both sides the caller
    must add the two contributions.  Every block-sized array, ``ga`` and
    ``gb`` too, lives in ``ws``, a fresh :class:`Workspace` if None.
    """
    sa, sb = np.diff(oa), np.diff(ob)
    for name, sizes in (("xa", sa), ("xb", sb)):
        if not np.all(sizes > 0):
            raise ValueError(f"set {np.argmin(sizes > 0)} of {name} has no rows")
    ws = ws or Workspace()
    d = xb.shape[1]
    bm = ws("bm", (xb.shape[0], d + 2))
    bm[:, :d] = xb
    bm[:, d] = 1.0
    sq = np.multiply(xb, xb, out=ws("sq", xb.shape))
    bm[:, d + 1] = -gamma * np.sum(sq, axis=1)
    ks = []
    if d_k is not None:
        owner = np.repeat(np.arange(len(sb)), sb)  # set b of each column
        ga, gb = ws("ga", xa.shape, fill=0.0), ws("gb", xb.shape, fill=0.0)
    for lo, hi in encoder.blocks(sa):
        x, o = xa[oa[lo]:oa[hi]], oa[lo:hi + 1] - oa[lo]
        am = ws("am", (x.shape[0], d + 2))
        np.multiply(x, 2.0 * gamma, out=am[:, :d])
        sq = np.multiply(x, x, out=ws("sq", x.shape))
        am[:, d] = -gamma * np.sum(sq, axis=1)
        am[:, d + 1] = 1.0
        e = np.matmul(am, bm.T, out=ws("e", (len(x), len(xb))))
        np.minimum(e, 0.0, out=e)
        np.exp(e, out=e)
        cols = np.add.reduceat(e, ob[:-1], axis=1,
                               out=ws("cols", (len(x), len(sb))))
        norm = sa[lo:hi, None] * sb[None, :]
        ks.append(np.add.reduceat(cols, o[:-1], axis=0) / norm)
        if d_k is not None:
            # Per-node-pair coefficient upstream / (n_a * m_b).  One set a at
            # a time, its rows of e scaled in place by its coefficients
            # spread over columns: those rows are dead after its pullback.
            c = d_k(ks[-1]) / norm
            gsum, gx = ws("gsum", (len(xb),), fill=0), ws("gx", xb.shape, fill=0)
            for i in range(hi - lo):
                r, s = slice(oa[lo + i], oa[lo + i + 1]), slice(o[i], o[i + 1])
                g = np.multiply(e[s], c[i, owner], out=e[s])
                ga[r] += -2.0 * gamma * (x[s] * (cols[s] @ c[i])[:, None]
                                         - g @ xb)
                gsum += g.sum(axis=0)
                gx += np.matmul(g.T, x[s], out=ws("gtx", xb.shape))
            t = np.multiply(xb, gsum[:, None], out=ws("sq", xb.shape))
            t -= gx
            gb += np.multiply(t, -2.0 * gamma, out=t)
    k = np.concatenate(ks)
    return k if d_k is None else (k, ga, gb)


def median_heuristic(x, rng=None) -> float:
    """Bandwidth rule: ``gamma = 1 / median(squared pairwise distances)``
    over all node rows ``x``.

    All distinct pairs are used when their count is at most
    ``SAMPLE_CAP``; otherwise ``SAMPLE_CAP`` pairs are sampled with
    ``rng`` (a fresh deterministic generator when omitted) and their
    distances computed ``BLOCK_ROWS`` pairs at a time.  Falls back to
    ``gamma = 1`` when the median vanishes.
    """
    n = x.shape[0]
    if n < 2:
        return 1.0
    n_pairs = n * (n - 1) // 2
    if n_pairs <= SAMPLE_CAP:
        xx = np.sum(x * x, axis=1)  # squared distances, clipped at zero
        d = np.maximum(xx[:, None] + xx[None, :] - 2.0 * (x @ x.T), 0.0)
        vals = d[np.triu_indices(n, k=1)]
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        i = rng.integers(0, n, size=SAMPLE_CAP)
        j = rng.integers(0, n - 1, size=SAMPLE_CAP)
        j += j >= i  # distinct partner
        vals = np.empty(SAMPLE_CAP)
        step = encoder.BLOCK_ROWS
        for lo in range(0, SAMPLE_CAP, step):
            diff = (np.take(x, i[lo:lo + step], axis=0)
                    - np.take(x, j[lo:lo + step], axis=0))
            vals[lo:lo + step] = np.sum(diff * diff, axis=1)
    med = float(np.median(vals, overwrite_input=True))
    if med <= 0.0:
        return 1.0
    return 1.0 / med


def nystrom_fit(x, offsets, gamma: float, rank: int | None = None,
                ws=None) -> NystromMap:
    """Eigendecompose the set-kernel matrix of the packed landmark sets
    ``(x, offsets)`` at bandwidth ``gamma``; keep the well-conditioned part.

    With ``rank=None`` all eigenvalues above ``EIGEN_CUTOFF * lambda_max``
    (and above zero) are retained.  With a fixed ``rank`` the top that
    many admissible eigenpairs are kept and the factor is zero-padded if
    fewer exist, so the output width never changes between refits.
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    k = set_kernel(x, offsets, x, offsets, gamma, ws=ws)
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
    signs = np.sign(vecs[lead, np.arange(n_keep)])  # never 0 for a unit column
    factor = (vecs * signs) / np.sqrt(vals)
    if rank is not None and n_keep < rank:
        factor = np.hstack([factor, np.zeros((len(k), rank - n_keep))])
    return NystromMap(landmarks=x, offsets=offsets, factor=factor, gamma=gamma)


def mmd_pool_batch(x, offsets, nmap: NystromMap, ws=None) -> np.ndarray:
    """Nystrom coordinates of each packed set of ``(x, offsets)``, (sets,
    rank): its kernel row against the landmarks through the eigen factor."""
    krows = set_kernel(x, offsets, nmap.landmarks, nmap.offsets, nmap.gamma,
                       ws=ws)
    return krows @ nmap.factor

"""Rank statistics: midranks, ROC-AUC, and a one-sided Wilcoxon
signed-rank test.  Pure numpy + stdlib implementations so results are
easy to cross-check against direct pair counting and enumeration.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MethodError

EXACT_WILCOXON_MAX_N = 12


def midrank(x) -> np.ndarray:
    """Ranks 1..n with tied values sharing their average rank; NaNs rank
    last and tie with each other."""
    _, inverse, counts = np.unique(np.asarray(x, dtype=float),
                                   return_inverse=True, return_counts=True)
    # A group of c ties ending at sorted position e shares rank e - (c-1)/2.
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def roc_auc(scores, flags) -> float:
    """Area under the ROC curve of ``scores`` against boolean ``flags``.

    Computed from midranks (ties count one half), which equals the
    fraction of (anomalous, normal) pairs ranked concordantly.
    """
    scores = np.asarray(scores, dtype=float)
    flags = np.asarray(flags, dtype=bool)
    if scores.shape != flags.shape or scores.ndim != 1:
        raise ValueError("scores and flags must be equal-length vectors")
    n_pos = int(np.sum(flags))
    n_neg = int(flags.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise MethodError("ROC-AUC needs both flagged and unflagged graphs")
    ranks = midrank(scores)
    r_pos = float(np.sum(ranks[flags]))
    return (r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def wilcoxon_one_sided(x, y):
    """Wilcoxon signed-rank test of paired samples, alternative: y > x.

    Returns ``(w_plus, p_value)`` where ``w_plus`` is the positive-rank
    sum of the differences ``y - x``.  Zero differences are discarded;
    if all differences are zero the p-value is 1.  The null distribution
    is counted exactly for up to 12 nonzero differences, otherwise a
    normal approximation with tie and continuity corrections is used.
    Requires at least 5 pairs.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("paired samples must be equal-length vectors")
    if x.size < 5:
        raise MethodError(f"need at least 5 pairs, got {x.size}")
    d = y - x
    d = d[d != 0.0]
    n = d.size
    ranks = midrank(np.abs(d))
    w_plus = float(np.sum(ranks[d > 0.0]))

    if n <= EXACT_WILCOXON_MAX_N:
        # Exact null: count the sign assignments whose positive-rank sum
        # reaches w_plus, by subset sums over the doubled (integer) ranks.
        doubled = np.rint(2.0 * ranks).astype(np.int64)
        ways = np.zeros(int(doubled.sum()) + 1, dtype=np.int64)
        ways[0] = 1
        for r in doubled:
            ways[r:] = ways[r:] + ways[:-r]
        return w_plus, int(ways[int(round(2.0 * w_plus)):].sum()) / (1 << n)

    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, counts = np.unique(np.abs(d), return_counts=True)
    var -= float(np.sum(counts ** 3 - counts)) / 48.0
    z = (w_plus - mean - 0.5) / math.sqrt(var)
    return w_plus, _normal_sf(z)

"""Independent oracles for the workload outputs.

Each function returns a list of ``(name, ok, detail)`` tuples; every
tuple is one checked operation.  The references are computed here from
first principles (pair counting, a dense SVD, ranks made with
``np.unique``) and never from glad, and never from a stored copy of an
earlier output.
"""

from __future__ import annotations

import numpy as np

HITS_TOL = 1e-6


def pair_auc(scores, flags) -> float:
    """Share of (anomaly, inlier) pairs the scores order correctly; a tie
    counts one half."""
    scores = np.asarray(scores, dtype=float)
    flags = np.asarray(flags, dtype=bool)
    pos, neg = scores[flags], scores[~flags]
    wins = 0.0
    for chunk in np.array_split(pos, max(1, pos.size // 64)):
        wins += np.sum(chunk[:, None] > neg[None, :])
        wins += 0.5 * np.sum(chunk[:, None] == neg[None, :])
    return float(wins / (pos.size * neg.size))


def tie_ranks(x) -> np.ndarray:
    """Ranks 1..n, tied values sharing the mean of their positions."""
    _, inv, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((ends - counts + 1 + ends) / 2.0)[inv]


def spearman_matrix(scores):
    """Rank correlations between all rows; rows with constant ranks are
    returned in a mask and their entries are NaN."""
    ranks = np.stack([tie_ranks(row) for row in scores])
    centered = ranks - ranks.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.sum(centered * centered, axis=1))
    constant = norms == 0.0
    z = centered / np.where(constant, 1.0, norms)[:, None]
    corr = z @ z.T
    corr[constant, :] = np.nan
    corr[:, constant] = np.nan
    return corr, constant


def minmax_rows(scores):
    lo = scores.min(axis=1, keepdims=True)
    span = scores.max(axis=1, keepdims=True) - lo
    out = (scores - lo) / np.where(span == 0.0, 1.0, span)
    out[span[:, 0] == 0.0] = 0.5
    return out


def hits_oracle(scores, selections):
    """HITS is a power iteration, so its hub and authority vectors are the
    leading left and right singular vectors of the normalised pool."""
    u, _, vt = np.linalg.svd(minmax_rows(scores), full_matrices=False)
    hub, auth = np.abs(u[:, 0]), np.abs(vt[0])
    out = []
    if "hits-ens" in selections:
        gap = float(np.max(np.abs(selections["hits-ens"].final_scores - auth)))
        out.append(("hits-ens equals leading right singular vector",
                    gap <= HITS_TOL, f"max deviation {gap:.2e}"))
    if "hits" in selections:
        pick = selections["hits"].selected_index
        ok = hub[pick] >= hub.max() - HITS_TOL
        out.append(("hits picks argmax of leading left singular vector", ok,
                    f"picked {pick}, argmax {int(np.argmax(hub))}"))
    return out


def auc_checks(label, pairs, flags):
    """``pairs`` maps a name to ``(reported_auc, scores)``.  A reported
    float must equal pair counting exactly; a reported string (a value
    read back from a report file) must equal it at nine digits."""
    out = []
    for name, (reported, scores) in pairs.items():
        want = pair_auc(scores, flags)
        ok = reported == (format(want, ".9g") if isinstance(reported, str)
                          else want)
        out.append((f"{label} auc[{name}] equals pair counting", ok,
                    f"reported {reported!r}, pairs {want!r}"))
    return out


def pool_scores_valid(scores):
    ok = bool(np.all(np.isfinite(scores)) and np.all(scores >= 0.0))
    return [("pool scores finite and non-negative", ok,
             f"min {np.nanmin(scores):.3g}")]


def reliability_checks(pool, selections):
    """``mc`` reliability is the mean rank correlation with every other
    non-constant model; ``udr`` is the median over seed siblings."""
    corr, constant = spearman_matrix(pool.scores)
    m = corr.shape[0]
    out = []
    if "mc" in selections:
        want = np.full(m, -np.inf)
        for i in np.flatnonzero(~constant):
            others = np.delete(corr[i], i)
            want[i] = np.mean(others[~np.isnan(others)])
        got = selections["mc"].reliability
        out.append(("mc reliability equals mean rank correlation",
                    _close(got, want), _gap(got, want)))
    if "udr" in selections:
        keys = [c.hyper_key() for c in pool.configs]
        seeds = [c.seed for c in pool.configs]
        want = np.full(m, -np.inf)
        for i in range(m):
            sib = [corr[i, j] for j in range(m) if j != i and keys[j] == keys[i]
                   and seeds[j] != seeds[i] and not np.isnan(corr[i, j])]
            if sib:
                want[i] = np.median(sib)
        got = selections["udr"].reliability
        out.append(("udr reliability equals median sibling correlation",
                    _close(got, want), _gap(got, want)))
    return out


def _close(got, want) -> bool:
    got = np.asarray(got, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.isinf(got) == np.isinf(want))
        and np.allclose(got[np.isfinite(want)], want[np.isfinite(want)],
                        rtol=0.0, atol=1e-9))


def _gap(got, want) -> str:
    fin = np.isfinite(want) & np.isfinite(got)
    return f"max deviation {np.max(np.abs(got[fin] - want[fin]), initial=0.0):.2e}"

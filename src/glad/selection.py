"""Label-free model selection over a candidate pool.

All methods consume only the pool's score matrix (plus configs for the
seed-variation method).  The consensus route runs a hub/authority
recursion on min-max normalized scores: reliable models are those that
agree with the pooled opinion, and the authority vector doubles as an
ensemble anomaly ranking.  Two rank-correlation baselines are included.
A pool's rank-correlation matrix and HITS result are computed once and
kept on the pool, so every method run on it shares them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, MethodError
from .metrics import midrank
from .trainer import CandidatePool, format_rows

HITS_TOL = 1e-9
HITS_MAX_ITER = 1000


@dataclass(eq=False)
class SelectionResult:
    """Outcome of one selection method on one pool.

    ``final_scores`` is what downstream evaluation consumes: the chosen
    model's raw scores, or the authority vector for the ensemble route
    (``selected_model`` is None there).  ``reliability`` holds the
    per-model quantity the method ranked models by.
    """

    method: str
    final_scores: np.ndarray
    graph_ids: list
    reliability: np.ndarray
    selected_model: str | None = None
    selected_index: int | None = None
    authority: np.ndarray | None = None
    iterations: int = 0
    residual: float = 0.0


def normalize_rows(scores: np.ndarray) -> np.ndarray:
    """Min-max normalize each row to [0, 1]; constant rows become 0.5."""
    scores = np.asarray(scores, dtype=float)
    lo = scores.min(axis=1, keepdims=True)
    hi = scores.max(axis=1, keepdims=True)
    span = hi - lo
    flat = span[:, 0] == 0.0
    span[flat] = 1.0
    out = scores - lo
    out /= span
    out[flat] = 0.5
    return out


def hits(w: np.ndarray):
    """Hub/authority recursion ``h <- W a``, ``a <- W^T h`` with L2
    normalization after each update.

    Starts from uniform vectors and stops when neither vector moves more
    than ``HITS_TOL`` in the max norm, or after ``HITS_MAX_ITER``
    iterations.  Returns ``(h, a, iterations, residual)``.
    """
    m, n = w.shape
    h = np.ones(m) / np.sqrt(m)
    a = np.ones(n) / np.sqrt(n)
    for it in range(1, HITS_MAX_ITER + 1):
        h_new = w @ a
        nh = np.linalg.norm(h_new)
        if nh == 0.0:
            raise DegenerateInputError("hub update collapsed to zero")
        h_new /= nh
        a_new = w.T @ h_new
        a_new /= np.linalg.norm(a_new)  # nonzero: a . a_new = ||w a|| > 0
        residual = max(float(np.max(np.abs(h_new - h))),
                       float(np.max(np.abs(a_new - a))))
        h, a = h_new, a_new
        if residual <= HITS_TOL:
            break
    return h, a, it, residual


def _pick(pool: CandidatePool, method: str, reliability: np.ndarray,
          **extra) -> SelectionResult:
    """Single-model result for the model with the largest reliability
    (the lowest index on ties); it reports that model's raw scores."""
    best = int(np.argmax(reliability))
    return SelectionResult(method=method,
                           final_scores=pool.scores[best].copy(),
                           graph_ids=list(pool.graph_ids),
                           reliability=reliability,
                           selected_model=pool.model_ids[best],
                           selected_index=best, **extra)


def _shared(pool: CandidatePool, name: str, compute):
    """``compute()`` the first time ``pool`` is asked for ``name``, kept
    in ``pool.stats`` with its arrays made read-only: every later call on
    the pool gets the same result.  It holds while the pool's scores are
    unchanged: they are read-only through the pool, and the pool takes the
    matrix it was given (see :class:`CandidatePool`)."""
    if name not in pool.stats:
        out = compute()
        for arr in out if isinstance(out, tuple) else (out,):
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
        pool.stats[name] = out
    return pool.stats[name]


def hits_select(pool: CandidatePool) -> SelectionResult:
    """Pick the model with the largest hub weight.  The recursion runs
    once per pool; ``hits-ens`` reuses it."""
    h, a, iters, residual = _shared(
        pool, "hits", lambda: hits(normalize_rows(pool.scores)))
    return _pick(pool, "hits", h, authority=a, iterations=iters,
                 residual=residual)


def hits_ens(pool: CandidatePool) -> SelectionResult:
    """Use the authority vector itself as the anomaly ranking (larger
    authority = ranked anomalous by reliable models)."""
    picked = hits_select(pool)
    return replace(picked, method="hits-ens",
                   final_scores=picked.authority.copy(),
                   selected_model=None, selected_index=None)


def _pairwise_spearman(scores: np.ndarray) -> np.ndarray:
    """All pairwise rank correlations as one product of standardized
    midrank rows; the diagonal and entries touching a constant row are
    NaN.  The matrix is exactly symmetric (``z @ z.T`` is one BLAS
    rank-k update)."""
    z = np.empty(scores.shape)
    for i, row in enumerate(scores):
        z[i] = midrank(row)
    z -= z.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.einsum("ij,ij->i", z, z))
    constant = norms == 0.0
    norms[constant] = 1.0
    z /= norms[:, None]
    corr = z @ z.T
    np.fill_diagonal(corr, np.nan)
    corr[constant, :] = np.nan
    corr[:, constant] = np.nan
    return corr


def _row_stat(corr: np.ndarray, stat) -> np.ndarray:
    """``stat`` (``np.nanmean`` or ``np.nanmedian``) of each row's
    non-NaN entries; -inf for a row with none."""
    some = ~np.all(np.isnan(corr), axis=1)
    out = np.full(corr.shape[0], -np.inf)
    out[some] = stat(corr[some], axis=1)
    return out


def mc_select(pool: CandidatePool) -> SelectionResult:
    """Model consistency: reliability of a model is its mean rank
    correlation with every other model; the most agreeable model wins."""
    reliability = _row_stat(_shared(
        pool, "spearman", lambda: _pairwise_spearman(pool.scores)), np.nanmean)
    if not np.any(np.isfinite(reliability)):
        raise MethodError("no model pair admits a rank correlation")
    return _pick(pool, "mc", reliability)


def udr_select(pool: CandidatePool) -> SelectionResult:
    """Seed-variation reliability: a model is scored by the median rank
    correlation with its siblings (same hyperparameters, different
    seed).  Models without siblings are ineligible."""
    groups = {}
    group = np.array([groups.setdefault(cfg.hyper_key(), len(groups))
                      for cfg in pool.configs])
    seed = np.array([cfg.seed for cfg in pool.configs])
    sibling = ((group[:, None] == group[None, :])
               & (seed[:, None] != seed[None, :]))
    if not sibling.any():
        raise MethodError("seed-variation selection needs some "
                          "hyperparameter setting trained under "
                          "several seeds")
    corr = np.where(sibling, _shared(
        pool, "spearman", lambda: _pairwise_spearman(pool.scores)), np.nan)
    reliability = _row_stat(corr, np.nanmedian)
    if not np.any(np.isfinite(reliability)):
        raise MethodError("no sibling pair admits a rank correlation")
    return _pick(pool, "udr", reliability)


_DISPATCH = {"hits": hits_select, "hits-ens": hits_ens,
             "mc": mc_select, "udr": udr_select}
METHODS = tuple(_DISPATCH)


def select(pool: CandidatePool, method: str) -> SelectionResult:
    """Run one selection method by name."""
    if method not in _DISPATCH:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    return _DISPATCH[method](pool)


def write_selection(result: SelectionResult, out_path,
                    meta_path=None) -> None:
    """Write ``graph_id,score`` rows, each score exactly as ``'%.9g'``
    writes it (:func:`glad.trainer.format_rows`), plus a small metadata
    sidecar (method, selected model, iteration count, convergence
    residual), by default ``selection_meta_<method>.txt`` beside
    ``out_path`` with ``-`` in the method as ``_``."""
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w") as f:
        f.write("graph_id,score\n")
        f.writelines(format_rows(result.graph_ids,
                                 result.final_scores[:, None]))
    if meta_path is None:
        tag = result.method.replace("-", "_")
        meta_path = out_path.parent / f"selection_meta_{tag}.txt"
    meta = [f"method = {result.method}",
            f"selected_model = {result.selected_model or '-'}",
            f"iterations = {result.iterations}",
            f"residual = {format(float(result.residual), '.3e')}"]
    Path(meta_path).write_text("\n".join(meta) + "\n")

"""One-class training of encoder + readout candidates.

A candidate embeds graphs, pools node embeddings to a single vector and
is trained to pull that vector toward a fixed center (the mean pooled
embedding under the initial weights).  The anomaly score of a graph is
its pooled distance to the center.  A hyperparameter grid yields a pool
of candidates, each scoring every test graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

from .data import GraphDatabase, check_rows, first_row, read_table, table_rows
from .encoder import EmbeddingSet, backprop_block, blocks, embed_block
from .errors import DegenerateInputError, FormatError, GladError
from .numkit import GradSet, ParamSet, init_params, sgd_step
from .pooling import (NystromMap, median_heuristic, mmd_pool_batch,
                      nystrom_fit, set_kernel_matrix)

POOLINGS = ("mean", "mmd")

CONFIG_FIELDS = ("pooling", "layers", "weight_decay", "lr", "seed",
                 "nystrom_k", "epochs", "batch_size", "d_hidden")

# Default search grids; the landmark count is swept as a multiplier on
# log(n_train), resolved by nystrom_size().
DEFAULT_GRID = {
    "mean": {"layers": [1, 2, 4], "weight_decay": [1e-5, 1e-4, 1e-3],
             "lr": [1e-4, 1e-3], "seed": [0, 1, 2]},
    "mmd": {"layers": [1, 2, 4], "weight_decay": [1e-5, 1e-4, 1e-3],
            "lr": [0.01, 0.1], "seed": [0, 1, 2],
            "nystrom_mult": [4, 8, 16]},
    "common": {"epochs": [150], "batch_size": [64], "d_hidden": [64]},
}


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of one candidate."""

    pooling: str
    layers: int = 2
    weight_decay: float = 1e-4
    lr: float = 1e-3
    seed: int = 0
    nystrom_k: int | None = None
    epochs: int = 150
    batch_size: int = 64
    d_hidden: int = 64

    def __post_init__(self):
        if self.pooling not in POOLINGS:
            raise ValueError(f"pooling must be one of {POOLINGS}, "
                             f"got {self.pooling!r}")
        if self.pooling == "mmd" and (self.nystrom_k is None
                                      or self.nystrom_k < 1):
            raise ValueError("mmd pooling needs a positive nystrom_k")
        if min(self.layers, self.epochs, self.batch_size, self.d_hidden) < 1:
            raise ValueError("layers, epochs, batch_size, d_hidden must be >= 1")
        # NaN fails every comparison, so it is rejected too.
        if not (0 < self.lr < math.inf
                and 0 <= self.weight_decay < math.inf):
            raise ValueError(f"need finite lr > 0 and weight_decay >= 0, got "
                             f"lr {self.lr}, weight_decay {self.weight_decay}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def hyper_key(self):
        """Everything except the seed; candidates sharing it are siblings."""
        return (self.pooling, self.layers, self.weight_decay, self.lr,
                self.nystrom_k, self.epochs, self.batch_size, self.d_hidden)


@dataclass(eq=False)
class TrainedCandidate:
    """A trained scorer.  ``nystrom`` is None for the mean readout.

    On failure (non-finite loss during training) ``failed`` is set and
    ``diagnostic`` explains; such candidates never enter a pool.
    """

    config: ModelConfig
    params: ParamSet | None
    center: np.ndarray | None
    nystrom: NystromMap | None
    final_loss: float
    failed: bool = False
    diagnostic: str = ""


@dataclass(eq=False)
class CandidatePool:
    """Score matrix of all surviving candidates over one test set.

    ``scores[i, j]`` is model ``model_ids[i]`` on graph ``graph_ids[j]``.
    """

    model_ids: list
    configs: list
    scores: np.ndarray
    graph_ids: list
    dropped: list = field(default_factory=list)

    def __post_init__(self):
        if self.scores.shape != (len(self.model_ids), len(self.graph_ids)):
            raise ValueError(f"score matrix {self.scores.shape} does not "
                             f"match {len(self.model_ids)} models x "
                             f"{len(self.graph_ids)} graphs")
        if len(self.configs) != len(self.model_ids):
            raise ValueError("one config per model id required")
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("pool scores must be finite")


# ---------------------------------------------------------------------------
# Objective
# ---------------------------------------------------------------------------

def _embed(graphs, params: ParamSet, with_cache: bool) -> list:
    """Embed ``graphs`` block by block (:func:`glad.encoder.blocks`) at
    ``params``: a list of ``(block_graphs, h, cache)`` with ``h`` the
    zero-padded node embeddings; ``cache`` is None without
    ``with_cache``."""
    graphs = list(graphs)
    out = []
    for lo, hi in blocks([g.node_count for g in graphs]):
        h = embed_block(graphs[lo:hi], params, with_cache)
        out.append((graphs[lo:hi], *(h if with_cache else (h, None))))
    return out


def _sets(embedded) -> dict:
    """``{graph_id: EmbeddingSet}`` for each embedded graph, in block
    order; the vectors are views into the block stacks."""
    return {g.graph_id: EmbeddingSet(graph_id=g.graph_id,
                                     vectors=h[b, :g.node_count])
            for blk, h, _ in embedded for b, g in enumerate(blk)}


def batch_objective(graphs, params: ParamSet, mmd_state=None, center=None):
    """Pooled vectors for a batch at the given parameters and, given a
    center, the data-term loss and its gradient.

    ``mmd_state = (landmark_graphs, factor, gamma)`` selects the
    distribution readout: landmark node embeddings are recomputed at
    ``params`` while the eigen factor and bandwidth stay frozen.  With
    ``mmd_state=None`` the mean readout is used.  Graphs are embedded in
    blocks, each graph id once, batch graphs first, with backward caches
    only when a center is given.

    Returns ``(pooled, data_loss, grads)``; the last two are None without
    a center.  ``data_loss`` is the mean squared center distance and
    ``grads`` its gradient, excluding the ridge term (the optimizer
    applies decay itself).  For the distribution readout the gradient
    flows through every node embedding the kernel matrix touches,
    landmark graphs included.
    """
    with_grad = center is not None
    graphs = list(graphs)
    n = len(graphs)
    grads = GradSet.zeros_like(params) if with_grad else None
    if mmd_state is None:
        # A graph's gradient needs only its own pooled row, so each block
        # is pulled back before the next one is embedded.
        pooled = []
        for lo, hi in blocks([g.node_count for g in graphs]):
            blk = graphs[lo:hi]
            sizes = np.array([g.node_count for g in blk])
            h, cache = embed_block(blk, params, with_cache=True)
            pooled.append(h.sum(axis=1) / sizes[:, None])
            if with_grad:
                # d loss / d node row: the graph's coefficient on each of
                # its rows; padded rows carry it too, but their ReLU mask
                # drops it.
                coef = (2.0 / (n * sizes))[:, None] * (pooled[-1] - center)
                backprop_block(params, cache,
                               np.broadcast_to(coef[:, None, :], h.shape),
                               grads)
        pooled = np.concatenate(pooled)
    else:
        landmark_graphs, factor, gamma = mmd_state
        uniq = {g.graph_id: g for g in [*graphs, *landmark_graphs]}
        embedded = _embed(uniq.values(), params, with_grad)
        sets = _sets(embedded)
        bsets = [sets[g.graph_id] for g in graphs]
        lsets = [sets[g.graph_id] for g in landmark_graphs]
        if not with_grad:
            return set_kernel_matrix(bsets, lsets, gamma) @ factor, None, None
        # A batch graph's Nystrom row and loss coefficient need only its
        # own kernel row, so each block is pooled and pulled back while
        # its node-pair kernel is live; the landmark gradients add up
        # across blocks in block order.
        pooled, da, db = [], [], None
        for lo, hi in blocks([g.node_count for g in graphs]):
            k, pullback = set_kernel_matrix(bsets[lo:hi], lsets, gamma,
                                            with_pullback=True)
            pooled.append(k @ factor)
            ga, gb = pullback((2.0 / n) * (pooled[-1] - center) @ factor.T)
            da.extend(ga)
            db = gb if db is None else [x + y for x, y in zip(db, gb)]
            # Free this block's node-pair kernel before the next is built,
            # so the allocator hands the same memory back.
            del k, pullback
        pooled = np.concatenate(pooled)
        where = {g.graph_id: (i, b) for i, (blk, _, _) in enumerate(embedded)
                 for b, g in enumerate(blk)}
        d_out = [None] * len(embedded)
        for g, d in zip([*graphs, *landmark_graphs], da + db):
            i, b = where[g.graph_id]
            if d_out[i] is None:
                d_out[i] = np.zeros_like(embedded[i][1])
            d_out[i][b, :g.node_count] += d
        for (_, _, cache), d in zip(embedded, d_out):
            if d is not None:
                backprop_block(params, cache, d, grads)
    if not with_grad:
        return pooled, None, None
    diffs = pooled - center
    return pooled, float(np.mean(np.sum(diffs * diffs, axis=1))), grads


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _refresh_map(graphs, params, landmark_graphs, rng, rank):
    """Bandwidth and eigen factor from the embeddings of every training
    graph at ``params``, computed here without backward caches."""
    sets = _sets(_embed(graphs, params, with_cache=False))
    gamma = median_heuristic(list(sets.values()), rng=rng)
    return nystrom_fit([sets[g.graph_id] for g in landmark_graphs], gamma,
                       rank=rank)


def train_candidate(train_db: GraphDatabase, config: ModelConfig,
                    base_seed: int = 0) -> TrainedCandidate:
    """Train one candidate on a clean training database.

    Deterministic given ``(train_db, config, base_seed)``: weights come
    from ``init_params`` seeded with ``config.seed``; landmark choice,
    batch order and bandwidth sampling use a stream derived from
    ``(base_seed, config.seed)``.  The center is the mean pooled
    embedding under the initial weights and never moves.  The MMD
    readout embeds every training graph once per epoch, without backward
    caches, to refit the bandwidth and the Nystrom factor; a training
    step embeds only its batch and the landmarks, with caches.
    """
    if train_db.d_in is None:
        raise ValueError("training database has no derived features")
    graphs = list(train_db.graphs)
    n = len(graphs)
    params = init_params(train_db.d_in, config.d_hidden, config.layers,
                         config.seed)
    rng = np.random.default_rng(np.random.SeedSequence((base_seed, config.seed)))
    batch_size = min(config.batch_size, n)
    is_mmd = config.pooling == "mmd"

    landmark_graphs, nmap, rank, state = [], None, None, None
    if is_mmd:
        k = min(config.nystrom_k, n)
        land_idx = np.sort(rng.choice(n, size=k, replace=False))
        landmark_graphs = [graphs[i] for i in land_idx]
        nmap = _refresh_map(graphs, params, landmark_graphs, rng, rank=None)
        rank = nmap.rank
        state = (landmark_graphs, nmap.factor, nmap.gamma)
    center = batch_objective(graphs, params, state)[0].mean(axis=0)

    def fail(msg: str) -> TrainedCandidate:
        return TrainedCandidate(config=config, params=None, center=None,
                                nystrom=None, final_loss=math.nan,
                                failed=True, diagnostic=msg)

    if not np.all(np.isfinite(center)):
        return fail("non-finite center at initialization")

    final_loss = math.nan
    for epoch in range(config.epochs):
        # Divergence shows up as inf/nan and is caught below; silence the
        # overflow warnings it produces on the way.
        with np.errstate(over="ignore", invalid="ignore"):
            if is_mmd and epoch > 0:
                try:
                    nmap = _refresh_map(graphs, params, landmark_graphs, rng,
                                        rank)
                except (DegenerateInputError, ValueError,
                        np.linalg.LinAlgError) as exc:
                    return fail(f"refresh failed in epoch {epoch}: {exc}")
            state = (landmark_graphs, nmap.factor, nmap.gamma) \
                if is_mmd else None
            order = rng.permutation(n)
            batch_losses = []
            for start in range(0, n, batch_size):
                batch = [graphs[i] for i in order[start:start + batch_size]]
                _, data_loss, grads = batch_objective(batch, params, state,
                                                      center)
                loss = data_loss + 0.5 * config.weight_decay * params.sq_norm()
                if not math.isfinite(loss):
                    return fail(f"non-finite loss in epoch {epoch}")
                params = sgd_step(params, grads, config.lr,
                                  config.weight_decay)
                batch_losses.append(loss)
        final_loss = float(np.mean(batch_losses))

    if is_mmd:
        # Scoring snapshot: factor and bandwidth consistent with the
        # final weights, landmark embeddings stored inside the map.
        nmap = _refresh_map(graphs, params, landmark_graphs, rng, rank)
    return TrainedCandidate(config=config, params=params, center=center,
                            nystrom=nmap, final_loss=final_loss)


def score_graphs(db: GraphDatabase, candidate: TrainedCandidate) -> np.ndarray:
    """Anomaly scores: pooled distance to the candidate's center."""
    if candidate.failed:
        raise ValueError("cannot score with a failed candidate")
    if candidate.config.pooling == "mean":
        pooled = batch_objective(db.graphs, candidate.params)[0]
    else:
        embedded = _embed(db.graphs, candidate.params, with_cache=False)
        pooled = mmd_pool_batch(list(_sets(embedded).values()),
                                candidate.nystrom)
    return np.linalg.norm(pooled - candidate.center, axis=1)


# ---------------------------------------------------------------------------
# Grids and pools
# ---------------------------------------------------------------------------

def nystrom_size(mult: float, n_train: int) -> int:
    """Landmark count rule: ``ceil(mult * ln(n_train))`` clamped to
    ``[4, n_train]``, for a finite positive ``mult``."""
    if n_train < 1:
        raise ValueError("n_train must be positive")
    if not 0 < mult < math.inf:
        raise ValueError(f"nystrom_mult must be finite and positive, "
                         f"got {mult}")
    raw = mult * math.log(n_train)  # may overflow to inf: compare first
    return n_train if raw >= n_train else min(max(math.ceil(raw), 4), n_train)


def expand_grid(spec: dict, n_train: int) -> list:
    """Cartesian-expand a grid specification into configs.

    ``spec`` maps family names (``mean``, ``mmd``) to per-key value
    lists, with a ``common`` section merged into both.  The ``mmd``
    family takes either ``nystrom_k`` (absolute) or ``nystrom_mult``
    (resolved by :func:`nystrom_size`).  Expansion order is fixed:
    mean family first, keys in canonical order, values in given order.
    """
    known = {"layers", "weight_decay", "lr", "seed", "epochs",
             "batch_size", "d_hidden", "nystrom_k", "nystrom_mult"}
    common = spec.get("common", {})
    configs = []
    for family in ("mean", "mmd"):
        if family not in spec:
            continue
        merged = dict(common)
        merged.update(spec[family])
        bad = set(merged) - known
        if bad:
            raise ValueError(f"unknown grid keys {sorted(bad)}")
        if family == "mean":
            merged.pop("nystrom_k", None)
            merged.pop("nystrom_mult", None)
        elif "nystrom_k" in merged and "nystrom_mult" in merged:
            raise ValueError("give nystrom_k or nystrom_mult, not both")
        elif "nystrom_k" in merged:
            # Clamped from above only: ModelConfig rejects counts below 1.
            merged["nystrom_k"] = [min(int(k), n_train)
                                   for k in merged["nystrom_k"]]
        elif "nystrom_mult" in merged:
            merged["nystrom_k"] = [nystrom_size(m, n_train)
                                   for m in merged.pop("nystrom_mult")]
        else:
            raise ValueError("mmd family needs nystrom_k or nystrom_mult")
        keys = [k for k in ("layers", "weight_decay", "lr", "nystrom_k",
                            "epochs", "batch_size", "d_hidden", "seed")
                if k in merged]
        for values in product(*(merged[k] for k in keys)):
            kwargs = dict(zip(keys, values))
            configs.append(ModelConfig(pooling=family, **kwargs))
    if not configs:
        raise ValueError("grid specification expands to no configurations")
    return configs


def _train_and_score(train_db, test_db, config, base_seed):
    cand = train_candidate(train_db, config, base_seed=base_seed)
    if cand.failed:
        return None, cand.diagnostic
    scores = score_graphs(test_db, cand)
    if not np.all(np.isfinite(scores)):
        return None, "non-finite test scores"
    return scores, ""


_worker_inputs = None  # (train_db, test_db, base_seed) in a run_grid worker
# run_grid imports it on first use: it is a third of glad's import time.
ProcessPoolExecutor = None


def _init_worker(train_db, test_db, base_seed):
    global _worker_inputs
    _worker_inputs = (train_db, test_db, base_seed)


def _train_and_score_in_worker(config):
    train_db, test_db, base_seed = _worker_inputs
    return _train_and_score(train_db, test_db, config, base_seed)


def run_grid(train_db: GraphDatabase, test_db: GraphDatabase, configs,
             workers: int = 1, base_seed: int = 0) -> CandidatePool:
    """Train every config and score the test set.

    Candidates whose training diverges or whose test scores are not
    finite are dropped and recorded in ``pool.dropped``; if all are,
    GladError names the first.  Model ids follow grid order and stay
    stable in the presence of drops.  With ``workers > 1`` candidates
    train in ``min(workers, len(configs))`` separate processes, which
    receive both databases once at start-up and then one config per
    task; results are identical to the serial path.
    """
    if workers < 1 or not configs:
        raise ValueError(f"need workers >= 1 and a config, got workers "
                         f"{workers}, {len(configs)} configs")
    workers = min(workers, len(configs))
    if workers > 1:
        global ProcessPoolExecutor
        if ProcessPoolExecutor is None:
            from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_init_worker,
                                 initargs=(train_db, test_db,
                                           base_seed)) as pool:
            results = list(pool.map(_train_and_score_in_worker, configs,
                                    chunksize=1))
    else:
        results = [_train_and_score(train_db, test_db, cfg, base_seed)
                   for cfg in configs]

    model_ids, kept_configs, rows, dropped = [], [], [], []
    for idx, (cfg, (scores, diag)) in enumerate(zip(configs, results)):
        mid = f"m{idx:03d}"
        if scores is None:
            dropped.append((mid, diag))
            continue
        model_ids.append(mid)
        kept_configs.append(cfg)
        rows.append(scores)
    if not rows:
        mid, diag = dropped[0]
        raise GladError(f"all {len(configs)} candidates failed; first "
                        f"dropped {mid}: {diag}")
    return CandidatePool(model_ids=model_ids, configs=kept_configs,
                         scores=np.stack(rows),
                         graph_ids=list(test_db.graph_ids),
                         dropped=dropped)


# ---------------------------------------------------------------------------
# Pool persistence
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return "" if x is None else (repr(x) if isinstance(x, float) else str(x))


def save_pool(pool: CandidatePool, directory) -> None:
    """Write ``pool_configs.csv`` and ``pool_scores.csv`` (scores at nine
    significant digits, LF endings)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    cfg_lines = ["model_id," + ",".join(CONFIG_FIELDS)]
    for mid, cfg in zip(pool.model_ids, pool.configs):
        vals = [_fmt(getattr(cfg, f)) for f in CONFIG_FIELDS]
        cfg_lines.append(",".join([mid] + vals))
    (directory / "pool_configs.csv").write_text("\n".join(cfg_lines) + "\n")

    head = "model_id," + ",".join(str(g) for g in pool.graph_ids)
    row_fmt = "%s" + ",%.9g" * len(pool.graph_ids)
    score_lines = [head] + [row_fmt % (mid, *row.tolist())
                            for mid, row in zip(pool.model_ids, pool.scores)]
    (directory / "pool_scores.csv").write_text("\n".join(score_lines) + "\n")


def load_pool(directory) -> CandidatePool:
    """Read a pool written by :func:`save_pool`.

    Raises FormatError on header mismatches, unknown or duplicated model
    ids, or malformed or non-finite numbers; messages carry line numbers.
    """
    directory = Path(directory)
    cfg_path = directory / "pool_configs.csv"
    score_path = directory / "pool_scores.csv"
    for p in (cfg_path, score_path):
        if not p.is_file():
            raise FormatError(f"missing pool file {p}")

    def config_row(s):
        parts = s.split(",")
        if len(parts) != 1 + len(CONFIG_FIELDS):
            raise ValueError(f"expected {1 + len(CONFIG_FIELDS)} columns")
        return parts[0], ModelConfig(
            pooling=parts[1], layers=int(parts[2]),
            weight_decay=float(parts[3]), lr=float(parts[4]),
            seed=int(parts[5]),
            nystrom_k=None if parts[6] == "" else int(parts[6]),
            epochs=int(parts[7]), batch_size=int(parts[8]),
            d_hidden=int(parts[9]))

    rows = table_rows(cfg_path, "config row", config_row, header=True)
    ln, head = next(rows, (1, ""))
    if head != "model_id," + ",".join(CONFIG_FIELDS):
        raise FormatError(f"{cfg_path}:{ln}: bad header")
    configs = {}
    for ln, (mid, cfg) in rows:
        if mid in configs:
            raise FormatError(f"{cfg_path}:{ln}: duplicate model id {mid}")
        configs[mid] = cfg

    ln, head = first_row(score_path)
    if not head.startswith("model_id,"):
        raise FormatError(f"{score_path}:{ln}: bad header")
    graph_ids = head.split(",")[1:]
    if len(graph_ids) != len(set(graph_ids)) or not graph_ids:
        raise FormatError(f"{score_path}:{ln}: graph ids must be unique")

    def score_row(s):
        parts = s.split(",")
        if len(parts) != 1 + len(graph_ids):
            raise ValueError(f"expected {1 + len(graph_ids)} columns")
        return parts[0], [float(x) for x in parts[1:]]

    table = read_table(score_path, "score row", score_row,
                       [("mid", object), ("s", np.float64, (len(graph_ids),))],
                       header=True)
    mids, finite = table["mid"], np.isfinite(table["s"])
    repeat = ~np.isin(np.arange(len(mids)), np.unique(mids, return_index=True)[1])
    col = np.argmin(finite, axis=1)  # each row's first non-finite score, if any
    check_rows(score_path, "score row", [
        (~np.isin(mids, list(configs)),
         lambda r, s: f"unknown model id {mids[r]}"),
        (~finite.all(axis=1), lambda r, s: (
            f"non-finite score {s.split(',')[1 + col[r]]} for graph "
            f"{graph_ids[col[r]]}")),
        (repeat, lambda r, s: f"duplicate model id {mids[r]}"),
    ], header=True)
    index = {mid: k for k, mid in enumerate(mids.tolist())}
    missing = [m for m in configs if m not in index]
    if missing:
        raise FormatError(f"{score_path}: no scores for {missing[0]}")
    try:
        gids = [int(g) for g in graph_ids]
    except ValueError:
        gids = list(graph_ids)
    return CandidatePool(model_ids=list(configs),
                         configs=list(configs.values()),
                         scores=table["s"][[index[m] for m in configs]],
                         graph_ids=gids)

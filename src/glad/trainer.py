"""One-class training of encoder + readout candidates.

A candidate embeds graphs, pools node embeddings to a single vector and
is trained to pull that vector toward a fixed center (the mean pooled
embedding under the initial weights).  The anomaly score of a graph is
its pooled distance to the center.  A hyperparameter grid yields a pool
of candidates, each scoring every test graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import product
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .data import (GraphDatabase, check_rows, first_copies, first_row,
                   read_table, table_rows)
from .encoder import backprop_block, blocks, embed_block
from .errors import DegenerateInputError, FormatError, GladError
from .numkit import ParamSet, Workspace, init_params, sgd_step
from .pooling import (NystromMap, median_heuristic, mmd_pool_batch,
                      nystrom_fit, set_kernel)

POOLINGS = ("mean", "mmd")
# Most configs a grid may expand to: the README grid has 378, and 10,000
# candidates at ~2 s each (BENCH data) is over five hours of training.
MAX_CONFIGS = 10_000

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


def check_int64(obj) -> None:
    """Refuse an integer field of dataclass ``obj`` that int64 cannot hold."""
    for f in fields(obj):
        v = getattr(obj, f.name)
        if isinstance(v, int) and v >= 2**63:
            raise ValueError(f"{f.name} must be below 2**63, got {v}")


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
        check_int64(self)
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
        return tuple(getattr(self, f) for f in HYPER_FIELDS)


CONFIG_FIELDS = tuple(f.name for f in fields(ModelConfig))
HYPER_FIELDS = tuple(f for f in CONFIG_FIELDS if f != "seed")
# Field value types (an optional field's other type), plus nystrom_mult.
CONFIG_TYPES = {**{k: (get_args(t) or (t,))[0] for k, t in
                   get_type_hints(ModelConfig).items()}, "nystrom_mult": float}


@dataclass(eq=False)
class TrainedCandidate:
    """A trained scorer.  ``nystrom`` is None for the mean readout."""

    config: ModelConfig
    params: ParamSet
    center: np.ndarray
    nystrom: NystromMap | None
    final_loss: float


@dataclass(frozen=True, eq=False)
class CandidatePool:
    """Score matrix of all surviving candidates over one test set.

    ``scores[i, j]`` is model ``model_ids[i]`` on graph ``graph_ids[j]``;
    it is a read-only view of the given matrix, not a copy: the pool
    takes the matrix, and writing to it through another reference after
    construction is not supported.  ``stats`` holds what
    :mod:`glad.selection` computes from the scores once per pool.
    """

    model_ids: list
    configs: list
    scores: np.ndarray
    graph_ids: list
    dropped: list = field(default_factory=list)
    stats: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.scores.shape != (len(self.model_ids), len(self.graph_ids)):
            raise ValueError(f"score matrix {self.scores.shape} does not "
                             f"match {len(self.model_ids)} models x "
                             f"{len(self.graph_ids)} graphs")
        if len(self.configs) != len(self.model_ids):
            raise ValueError("one config per model id required")
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("pool scores must be finite")
        scores = self.scores.view()
        scores.flags.writeable = False
        object.__setattr__(self, "scores", scores)


# ---------------------------------------------------------------------------
# Objective
# ---------------------------------------------------------------------------

def _embed(graphs, params: ParamSet, with_cache: bool, ws, keep=False):
    """Embed ``graphs`` block by block (:func:`glad.encoder.blocks`) in
    ``ws``, yielding the block's node counts, its zero-padded node
    embeddings ``h`` and its cache (None without ``with_cache``); with
    ``keep``, block i caches under slot i, so every cache outlives it."""
    graphs = list(graphs)
    sizes = [g.node_count for g in graphs]
    for b, (lo, hi) in enumerate(blocks(sizes)):
        h = embed_block(graphs[lo:hi], params, with_cache, ws, b * keep)
        yield (np.array(sizes[lo:hi]), *(h if with_cache else (h, None)))


def _packed(graphs, params: ParamSet, ws, with_cache: bool = False):
    """Packed node rows of ``graphs`` in ``ws`` (a block's rows are
    ``h[mask]``), their offsets and each block's ``(mask, cache)``."""
    graphs = list(graphs)
    offs = np.cumsum([0] + [g.node_count for g in graphs])
    x, at, blks = ws("x", (offs[-1], params.d_hidden)), 0, []
    for n_b, h, cache in _embed(graphs, params, with_cache, ws, with_cache):
        mask = np.arange(h.shape[1]) < n_b[:, None]
        np.take(h.reshape(-1, h.shape[2]), np.flatnonzero(mask), axis=0,
                out=x[at:at + n_b.sum()], mode="clip")
        at += n_b.sum()
        blks.append((mask, cache))
    return x, offs, blks


def _gather(offsets, idx):
    """Row index of the sets ``idx`` of packed rows, and their offsets."""
    rows = np.concatenate([np.arange(offsets[i], offsets[i + 1]) for i in idx])
    return rows, np.cumsum(np.r_[0, np.diff(offsets)[idx]])


def pool_graphs(graphs, params: ParamSet, nmap: NystromMap | None = None):
    """Pooled rows of ``graphs`` at ``params``, without gradients: block
    means of the node embeddings, or with ``nmap`` their Nystrom
    coordinates (:func:`glad.pooling.mmd_pool_batch`), in one workspace."""
    ws = Workspace()
    if nmap is not None:
        return mmd_pool_batch(*_packed(graphs, params, ws)[:2], nmap, ws)
    return np.concatenate([h.sum(axis=1) / n_b[:, None]
                           for n_b, h, _ in _embed(graphs, params, False, ws)])


def batch_objective(graphs, params: ParamSet, mmd_state, center, ws=None):
    """Pooled vectors for a batch at the given parameters, the data-term
    loss and its gradient.

    ``mmd_state = (landmark_graphs, factor, gamma)`` selects the
    distribution readout: landmark node embeddings are recomputed at
    ``params`` while the eigen factor and bandwidth stay frozen.  With
    ``mmd_state=None`` the mean readout is used.  Graphs are embedded in
    blocks with backward caches, each graph id once, batch graphs
    (distinct ids) first.

    Returns ``(pooled, data_loss, grads)``: ``data_loss`` is the mean
    squared distance to ``center`` and ``grads`` its gradient, excluding
    the ridge term (the optimizer applies decay itself).  For the
    distribution readout the gradient flows through every node embedding
    the kernel matrix touches, landmark graphs included.  Step-sized
    arrays live in ``ws``, a fresh :class:`glad.numkit.Workspace` if None.
    """
    graphs, ws = list(graphs), ws or Workspace()
    n = len(graphs)
    grads = params.zeros_like()
    if mmd_state is None:
        # A graph's gradient needs only its own pooled row, so each block
        # is pulled back before the next one is embedded.
        pooled = []
        for sizes, h, cache in _embed(graphs, params, True, ws):
            pooled.append(h.sum(axis=1) / sizes[:, None])
            # d loss / d node row: the graph's coefficient on each of its
            # rows; padded rows carry it too, but their ReLU mask drops it.
            coef = (2.0 / (n * sizes))[:, None] * (pooled[-1] - center)
            d = ws("d_out", h.shape, fill=coef[:, None, :])
            backprop_block(params, cache, d, grads, ws)
        pooled = np.concatenate(pooled)
    else:
        landmark_graphs, factor, gamma = mmd_state
        uniq = {g.graph_id: g for g in [*graphs, *landmark_graphs]}
        x, offs, blks = _packed(uniq.values(), params, ws, True)
        at = {gid: i for i, gid in enumerate(uniq)}  # batch rows first
        li, ol = _gather(offs, [at[g.graph_id] for g in landmark_graphs])
        xl = ws("landmarks", (len(li), x.shape[1]))
        np.take(x, li, axis=0, out=xl, mode="clip")  # "raise" buffers out
        # set_kernel pulls each block back while its node-pair kernel is
        # live; dx is shaped like x, and the landmarks' gradient adds in.
        k, dx, dl = set_kernel(
            x, offs[:n + 1], xl, ol, gamma,
            lambda k: (2.0 / n) * (k @ factor - center) @ factor.T, ws)
        pooled = k @ factor
        np.add.at(dx, li, dl)
        ends = np.cumsum([np.count_nonzero(mask) for mask, _ in blks])
        for (mask, cache), rows in zip(blks, np.split(dx, ends)):
            d = ws("d_out", mask.shape + x.shape[1:], fill=0.0)
            d[mask] = rows
            backprop_block(params, cache, d, grads, ws)
    diffs = pooled - center
    return pooled, float(np.mean(np.sum(diffs * diffs, axis=1))), grads


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def train_candidate(train_db: GraphDatabase, config: ModelConfig,
                    base_seed: int = 0) -> TrainedCandidate:
    """Train one candidate on a clean training database.

    Deterministic given ``(train_db, config, base_seed)``: weights come
    from ``init_params`` seeded with ``config.seed``; landmark choice,
    batch order and bandwidth sampling use a stream derived from
    ``(base_seed, config.seed)``.  The center is the mean pooled
    embedding under the initial weights and never moves.  The MMD
    readout embeds every training graph once per epoch and once more for
    the scoring snapshot, without backward caches, to refit the bandwidth
    and the Nystrom factor; a training step embeds only its batch and
    the landmarks, with caches.  A non-finite center or loss, or a
    failed refit, raises DegenerateInputError naming the epoch.
    """
    if train_db.d_in is None:
        raise ValueError("training database has no derived features")
    graphs = list(train_db.graphs)
    n = len(graphs)
    params = init_params(train_db.d_in, config.d_hidden, config.layers,
                         config.seed)
    rng = np.random.default_rng(np.random.SeedSequence((base_seed, config.seed)))
    batch_size = min(config.batch_size, n)
    nmap, state, ws = None, None, Workspace()  # ws: steps' and refits' arrays
    if config.pooling == "mmd":
        land_idx = np.sort(rng.choice(n, size=min(config.nystrom_k, n),
                                      replace=False))
        landmark_graphs = [graphs[i] for i in land_idx]

    final_loss = math.nan
    # Pass e refits the MMD map at the current weights and trains epoch e;
    # pass 0 also fixes the center, and the last pass trains nothing: its
    # refit is the scoring snapshot.  Divergence shows up as inf/nan and
    # is caught below; silence the overflow warnings it produces.
    for epoch in range(config.epochs + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            if config.pooling == "mmd":
                try:
                    x, offs = _packed(graphs, params, ws)[:2]
                    gamma = median_heuristic(x, rng=rng)
                    li, ol = _gather(offs, land_idx)
                    nmap = nystrom_fit(x[li], ol, gamma,
                                       getattr(nmap, "rank", None), ws)
                except (DegenerateInputError, ValueError,
                        np.linalg.LinAlgError) as exc:
                    raise DegenerateInputError(
                        f"refresh failed in epoch {epoch}: {exc}") from None
                state = (landmark_graphs, nmap.factor, nmap.gamma)
            if epoch == 0:
                center = (pool_graphs(graphs, params) if nmap is None
                          else mmd_pool_batch(x, offs, nmap, ws)).mean(axis=0)
                if not np.all(np.isfinite(center)):
                    raise DegenerateInputError(
                        "non-finite center at initialization")
            x = offs = None  # the refit's rows, before any training step
            if epoch == config.epochs:
                break
            order = rng.permutation(n)
            batch_losses = []
            for start in range(0, n, batch_size):
                batch = [graphs[i] for i in order[start:start + batch_size]]
                _, data_loss, grads = batch_objective(batch, params, state,
                                                      center, ws)
                loss = data_loss + 0.5 * config.weight_decay * params.sq_norm()
                if not math.isfinite(loss):
                    raise DegenerateInputError(
                        f"non-finite loss in epoch {epoch}")
                params = sgd_step(params, grads, config.lr,
                                  config.weight_decay)
                batch_losses.append(loss)
        final_loss = float(np.mean(batch_losses))
    return TrainedCandidate(config=config, params=params, center=center,
                            nystrom=nmap, final_loss=final_loss)


def score_graphs(db: GraphDatabase, candidate: TrainedCandidate) -> np.ndarray:
    """Anomaly scores: pooled distance to the candidate's center.  A
    score that is not finite raises DegenerateInputError."""
    pooled = pool_graphs(db.graphs, candidate.params, candidate.nystrom)
    scores = np.linalg.norm(pooled - candidate.center, axis=1)
    if not np.all(np.isfinite(scores)):
        raise DegenerateInputError("non-finite test scores")
    return scores


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
    mean family first, then the product of the keys in field order with
    the seed last, values in given order.  A grid of more than
    ``MAX_CONFIGS`` configurations is refused before any is built.
    """
    families = []
    for family in ("mean", "mmd"):
        if family not in spec:
            continue
        merged = {**spec.get("common", {}), **spec[family]}
        bad = set(merged) - (CONFIG_TYPES.keys() - {"pooling"})
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
        keys = [k for k in (*HYPER_FIELDS, "seed") if k in merged]
        families.append((family, keys, [merged[k] for k in keys]))
    count = sum(math.prod(map(len, values)) for _, _, values in families)
    if count > MAX_CONFIGS:
        raise ValueError(f"grid expands to {count} configurations, "
                         f"more than {MAX_CONFIGS}")
    if not count:
        raise ValueError("grid specification expands to no configurations")
    return [ModelConfig(pooling=family, **dict(zip(keys, combo)))
            for family, keys, values in families for combo in product(*values)]


def _train_and_score(train_db, test_db, config, base_seed):
    """A candidate's test scores and ``""``, or None and why it failed."""
    try:
        cand = train_candidate(train_db, config, base_seed=base_seed)
        return score_graphs(test_db, cand), ""
    except DegenerateInputError as exc:
        return None, str(exc)


_worker_inputs = ()  # run_grid's shared inputs, in a worker process


def _init_worker(*inputs):
    global _worker_inputs
    _worker_inputs = inputs


def _train_share(*inputs):
    """``{index: result}`` of the configs this process trains, each the
    next one by the shared counter; inputs default to the worker's."""
    train_db, test_db, configs, base_seed, counter = inputs or _worker_inputs
    done = {}
    while True:
        with counter.get_lock():
            i, counter.value = counter.value, counter.value + 1
        if i >= len(configs):
            return done
        done[i] = _train_and_score(train_db, test_db, configs[i], base_seed)


def run_grid(train_db: GraphDatabase, test_db: GraphDatabase, configs,
             workers: int = 1, base_seed: int = 0) -> CandidatePool:
    """Train every config and score the test set.

    Candidates whose training diverges or whose test scores are not
    finite are dropped and recorded in ``pool.dropped``; if all are,
    GladError names the first.  Model ids follow grid order and stay
    stable in the presence of drops.  With ``workers > 1``, ``k =
    min(workers, len(configs))`` processes in total, this one included,
    each train the next config by a shared counter; the ``k - 1`` workers
    get both databases and the configs once at start-up.  Results are
    identical to the serial path; a worker that dies raises GladError.
    """
    if workers < 1 or not configs:
        raise ValueError(f"need workers >= 1 and a config, got workers "
                         f"{workers}, {len(configs)} configs")
    workers = min(workers, len(configs))
    if workers > 1:
        # Imported here: they are a third of glad's import time.
        from concurrent.futures.process import (BrokenProcessPool,
                                                ProcessPoolExecutor)
        from multiprocessing import Value
        shared = (train_db, test_db, configs, base_seed, Value("q", 0))

        def stop(_):  # every process stops after its current candidate
            shared[-1].value = len(configs)

        with ProcessPoolExecutor(workers - 1, initializer=_init_worker,
                                 initargs=shared) as pool:
            futures = [pool.submit(_train_share) for _ in range(workers - 1)]
            for f in futures:  # a worker ends normally only past the end
                f.add_done_callback(stop)
            try:
                done = _train_share(*shared)
                for f in futures:
                    done.update(f.result())
            except BrokenProcessPool as exc:
                raise GladError(f"a worker process died: {exc}") from None
            finally:  # an error here stops the workers
                stop(None)
        results = [done[i] for i in range(len(configs))]
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


def _nine_digit_tables():
    """Tables of :func:`_nine_digit_chunk`, whose slot for a value is
    ``,`` ``-`` nine integer digits ``.`` twelve fraction digits: six
    4-byte ``words`` (four digits, ``,-`` and two digits, or three digits
    and ``.``), the bytes ``'%.9g'`` keeps by ``keep[(neg * 13 + exponent
    + 4) * 13 + fraction digits]`` (none in the last row), and ``lead[i,
    g]``, the fraction digits up to the last non-zero one of four-digit
    group ``g`` when it is word ``3 + i`` (0 for ``g == 0``)."""
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")
    words = np.concatenate([
        digits,
        np.c_[np.full((100, 2), [ord(","), ord("-")]), digits[:100, 2:]],
        np.c_[digits[:1000, 1:], np.full(1000, ord("."))]]).astype(np.uint8)
    g = np.arange(10000)
    lead = 4 - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0)
    lead = np.where(g > 0, lead + [[0], [4], [8]], 0)
    neg, x = np.arange(2)[:, None, None, None], np.arange(-4, 9)[:, None, None]
    frac, at = np.arange(13)[:, None], np.arange(24)
    keep = ((at == 0) | ((at == 1) & (neg == 1))
            | ((11 - np.maximum(x + 1, 1) <= at) & (at < 11))
            | ((frac > 0) & (11 <= at) & (at <= 11 + frac)))
    keep = np.concatenate([keep.reshape(-1, 24), np.zeros((1, 24), bool)])
    return (words.view(np.uint32)[:, 0], keep, keep.sum(axis=1),
            lead.astype(np.uint8))


_WORDS, _KEEP, _KEPT, _LEAD = _nine_digit_tables()
_POW10 = 10.0 ** np.arange(14)  # exact doubles
_CHUNK_VALUES = 1 << 15  # keeps a chunk's temporaries at a few MiB


def _nine_digit_chunk(x: np.ndarray):
    """``,v`` for each value of the rows of ``x`` as ``'%.9g'`` writes it,
    as one string; each row's end in it; and which rows it holds.

    The nine-digit mantissa is ``rint(|v| * 10**k)``, one rounding of an
    exact product (error below 6e-8), so it rounds as ``'%.9g'`` unless
    the product is within 1e-6 of a tie.  Rows holding such a value, or
    one whose rounded exponent ``8 - k`` is outside [-4, 8] (where ``%g``
    writes e-notation; zero, subnormals and non-finite values too), are
    left out.
    """
    a = np.abs(x).ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        k = 8 - np.floor(np.log10(a))
        ok = (k >= 0) & (k <= 13)
        k = np.where(ok, k, 0).astype(np.intp)
        scaled = a * _POW10[k]
        m = np.rint(scaled)
        ok &= (scaled >= 1e8) & (m <= 1e9) & (np.abs(scaled - m) < 0.499999)
    carry = m == 1e9
    k -= carry
    ok &= (k >= 0) & (k <= 12)
    rows = ok.reshape(x.shape).all(axis=1)
    ok = np.repeat(rows, x.shape[1])
    k[~ok] = 0
    m = np.where(ok & ~carry, m, 1e8)
    # Integer part and fraction (exact below 2**53) as the slot's words.
    p, q = _POW10[k], np.empty((6, a.size))
    q[2] = np.floor(m / p)
    q[5] = (m - q[2] * p) * _POW10[12 - k]
    q[0], q[1] = np.floor(q[2] / 1e7), np.floor(q[2] / 1e3)
    q[3], q[4] = np.floor(q[5] / 1e8), np.floor(q[5] / 1e4)
    q[1:] -= q[:-1] * [[1e4], [1e3], [0], [1e4], [1e4]]
    q[0] += 10000
    q[2] += 10100
    g = q.astype(np.intp)
    frac = _LEAD[[[0], [1], [2]], g[3:]].max(axis=0)
    key = np.where(ok, ((x.ravel() < 0) * 13 + 12 - k) * 13 + frac, -1)
    slots = np.take(_WORDS, g).T.copy().view(np.uint8).ravel()
    text = np.compress(np.take(_KEEP, key, axis=0).ravel(), slots)
    ends = np.cumsum(np.take(_KEPT, key).reshape(x.shape).sum(axis=1))
    return text.tobytes().decode("ascii"), ends.tolist(), rows.tolist()


def format_rows(labels, values) -> list:
    """Lines ``label,v1,...,vn`` for the rows of the 2-d ``values``, each
    value exactly as ``'%.9g'`` writes it: in numpy, a fixed number of
    values at a time, and by ``%`` for a row that path cannot prove."""
    values = np.asarray(values, dtype=float)
    step = max(1, _CHUNK_VALUES // max(values.shape[1], 1))
    row_fmt = "%s" + ",%.9g" * values.shape[1]
    lines = []
    for lo in range(0, len(values), step):
        x = values[lo:lo + step]
        text, ends, fast = _nine_digit_chunk(x)
        for label, row, start, end, ok in zip(labels[lo:lo + step], x,
                                              [0] + ends, ends, fast):
            lines.append(str(label) + text[start:end] if ok
                         else row_fmt % (label, *row.tolist()))
    return lines


def save_pool(pool: CandidatePool, directory) -> None:
    """Write ``pool_configs.csv`` and ``pool_scores.csv`` (LF endings).

    Scores are written exactly as ``'%.9g'`` writes them (nine
    significant digits), through :func:`format_rows`."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    cfg_lines = ["model_id," + ",".join(CONFIG_FIELDS)]
    for mid, cfg in zip(pool.model_ids, pool.configs):
        vals = [_fmt(getattr(cfg, f)) for f in CONFIG_FIELDS]
        cfg_lines.append(",".join([mid] + vals))
    (directory / "pool_configs.csv").write_text("\n".join(cfg_lines) + "\n")

    head = "model_id," + ",".join(str(g) for g in pool.graph_ids)
    score_lines = [head] + format_rows(pool.model_ids, pool.scores)
    (directory / "pool_scores.csv").write_text("\n".join(score_lines) + "\n")


def load_pool(directory) -> CandidatePool:
    """Read a pool written by :func:`save_pool`.

    Raises FormatError on header mismatches, no models, unknown or
    duplicated model ids, or malformed or non-finite numbers; messages
    carry line numbers.
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
        return parts[0], ModelConfig(**{
            f.name: None if v == "" and f.default is None
            else CONFIG_TYPES[f.name](v)
            for f, v in zip(fields(ModelConfig), parts[1:])})

    rows = table_rows(cfg_path, "config row", config_row, header=True)
    ln, head = next(rows, (1, ""))
    if head != "model_id," + ",".join(CONFIG_FIELDS):
        raise FormatError(f"{cfg_path}:{ln}: bad header")
    configs = {}
    for ln, (mid, cfg) in rows:
        if mid in configs:
            raise FormatError(f"{cfg_path}:{ln}: duplicate model id {mid}")
        configs[mid] = cfg
    if not configs:
        raise FormatError(f"{cfg_path}: no model rows")

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
    col = np.argmin(finite, axis=1)  # each row's first non-finite score, if any
    check_rows(score_path, "score row", [
        (~np.isin(mids, list(configs)),
         lambda r, s: f"unknown model id {mids[r]}"),
        (~finite.all(axis=1), lambda r, s: (
            f"non-finite score {s.split(',')[1 + col[r]]} for graph "
            f"{graph_ids[col[r]]}")),
        (first_copies(mids)[1], lambda r, s: f"duplicate model id {mids[r]}"),
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

"""Seeded inputs for the three workloads, made without calling glad.

Everything here depends only on numpy and the workload seed, so a change
to the program can never change what the benchmark feeds it.  The TU
writer is the benchmark's own; the loaded database is checked against
the graphs kept in memory here.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# --- bench-pipeline: the acceptance shape (tests/test_acceptance.py) ------

BENCH_SHAPE = dict(n_train=150, n_test=100, anomaly_rate=0.05, nodes=50,
                   ba_m=2, labels=5, homophily_in=0.7, homophily_out=0.3)
BENCH_GRID = {
    "common": {"batch_size": [64], "d_hidden": [32], "weight_decay": [1e-4]},
    "mean": {"layers": [1, 2], "lr": [1e-4, 1e-3], "seed": [0, 1],
             "epochs": [60]},
    "mmd": {"layers": [1, 2], "lr": [0.01], "seed": [0, 1],
            "nystrom_mult": [4.0], "epochs": [15]},
}

# --- tu-mean-pool: a two-class TU collection -------------------------------

TU_NAME = "SYNTH2K"
TU_GRAPHS = 2000
TU_INLIER_SHARE = 0.6          # class 0 graphs; the rest are class 1
TU_NODES = (10, 24)            # node count drawn uniformly, both ends included
TU_LABELS = 7
TU_HOMOPHILY = (0.8, 0.35)     # same-label attachment chance per class
TU_LABEL_MIX = ((1, 1, 1, 1, 1, 1, 1),    # node label frequencies per class
                (8, 2, 1, 1, 1, 1, 1))
TU_SPLIT = dict(inlier_class=0, anomaly_rate=0.15, train_fraction=0.7)
TU_GRID = {
    "common": {"epochs": [6], "batch_size": [64], "d_hidden": [16]},
    "mean": {"layers": [1, 2], "weight_decay": [1e-4, 1e-3],
             "lr": [1e-3, 3e-3], "seed": [0, 1]},
}
TU_WORKERS = 2

# --- pool-select: a README-grid-shaped score matrix -------------------------

POOL_GRAPHS = 3000
POOL_ANOMALIES = 150
POOL_N_TRAIN = 700             # only sets the landmark counts of the mmd rows
POOL_GRID = {
    "mean": dict(layers=[1, 2, 4], weight_decay=[1e-5, 1e-4, 1e-3],
                 lr=[1e-4, 1e-3], nystrom_mult=[None]),
    "mmd": dict(layers=[1, 2, 4], weight_decay=[1e-5, 1e-4, 1e-3],
                lr=[1e-4, 1e-3, 0.01, 0.1], nystrom_mult=[4, 8, 16]),
}
POOL_SEEDS = (0, 1, 2)
POOL_CONSTANT_ROW = 5          # a collapsed candidate: every score equal
POOL_TIED_EVERY = 7            # every 7th row is rounded to two decimals


def sub_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence((seed, stream)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# TU collection
# ---------------------------------------------------------------------------

def _grow_graph(rng, n: int, c: int):
    """Random tree plus n // 2 extra edges; each new edge prefers a
    same-label endpoint with the class's homophily."""
    mix = np.array(TU_LABEL_MIX[c], dtype=float)
    labels = rng.choice(TU_LABELS, size=n, p=mix / mix.sum())
    homophily = TU_HOMOPHILY[c]
    edges = set()
    for v in range(1, n):
        same = np.flatnonzero(labels[:v] == labels[v])
        diff = np.flatnonzero(labels[:v] != labels[v])
        pool = same if (rng.random() < homophily and same.size) or not diff.size \
            else diff
        edges.add((int(rng.choice(pool)), v))
    for _ in range(n // 2):
        u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        if (labels[u] == labels[v]) == (rng.random() < homophily):
            edges.add((u, v))
    return labels, sorted(edges)


def tu_graphs(seed: int):
    """The collection as plain data: a list of ``(labels, edges)`` per
    graph (edges local, u < v) and the class label per graph."""
    rng = np.random.default_rng(sub_seed(seed, 1))
    n_in = int(round(TU_INLIER_SHARE * TU_GRAPHS))
    classes = np.array([0] * n_in + [1] * (TU_GRAPHS - n_in))
    classes = classes[rng.permutation(TU_GRAPHS)]
    graphs = []
    for c in classes:
        n = int(rng.integers(TU_NODES[0], TU_NODES[1] + 1))
        graphs.append(_grow_graph(rng, n, int(c)))
    return graphs, classes


def write_tu(directory: Path, graphs, classes) -> None:
    """TU plain-text layout: 1-based global node ids, edges listed in
    both directions, one graph id per node line."""
    directory.mkdir(parents=True, exist_ok=True)
    a_lines, ind_lines, lab_lines = [], [], []
    base = 0
    for k, (labels, edges) in enumerate(graphs, start=1):
        for u, v in edges:
            a_lines.append(f"{base + u + 1}, {base + v + 1}")
            a_lines.append(f"{base + v + 1}, {base + u + 1}")
        ind_lines.extend([str(k)] * len(labels))
        lab_lines.extend(str(int(x)) for x in labels)
        base += len(labels)
    for suffix, lines in (("A", a_lines), ("graph_indicator", ind_lines),
                          ("node_labels", lab_lines),
                          ("graph_labels", [str(int(c)) for c in classes])):
        (directory / f"{TU_NAME}_{suffix}.txt").write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Score matrix
# ---------------------------------------------------------------------------

def pool_rows():
    """One dict of ModelConfig fields per README-grid candidate, in
    family, hyperparameter, seed order (seed siblings are adjacent)."""
    rows = []
    for family, grid in POOL_GRID.items():
        for layers in grid["layers"]:
            for wd in grid["weight_decay"]:
                for lr in grid["lr"]:
                    for mult in grid["nystrom_mult"]:
                        k = None if mult is None else \
                            min(max(math.ceil(mult * math.log(POOL_N_TRAIN)), 4),
                                POOL_N_TRAIN)
                        for s in POOL_SEEDS:
                            rows.append(dict(pooling=family, layers=layers,
                                             weight_decay=wd, lr=lr, seed=s,
                                             nystrom_k=k))
    return rows


def pool_matrix(seed: int):
    """Non-negative scores with a planted anomaly signal.

    A model's score mixes the anomaly flag (weighted by a per-setting
    quality), a graph difficulty shared by all models, a component
    shared by seed siblings, and its own noise.  Returns ``(scores,
    flags)``.
    """
    rng = np.random.default_rng(sub_seed(seed, 2))
    rows = pool_rows()
    m = len(rows)
    flags = np.zeros(POOL_GRAPHS, dtype=bool)
    flags[rng.choice(POOL_GRAPHS, size=POOL_ANOMALIES, replace=False)] = True
    difficulty = 0.4 * rng.standard_normal(POOL_GRAPHS)
    n_settings = m // len(POOL_SEEDS)
    quality = rng.uniform(0.1, 1.6, size=n_settings)
    shared = 0.7 * rng.standard_normal((n_settings, POOL_GRAPHS))
    setting = np.arange(m) // len(POOL_SEEDS)
    raw = (quality[setting, None] * flags[None, :] + difficulty[None, :]
           + shared[setting] + 0.5 * rng.standard_normal((m, POOL_GRAPHS)))
    scores = np.exp(0.5 * raw)
    scores[::POOL_TIED_EVERY] = np.round(scores[::POOL_TIED_EVERY], 2)
    scores[POOL_CONSTANT_ROW] = 1.0
    return scores, flags

"""Acceptance checks, one test per criterion.

Every test computes its verdict against an independent oracle (brute
force, enumeration, power iteration, finite differences) or an
end-to-end benchmark, records it for the terminal summary, and asserts.
"""

import itertools
import time

import numpy as np
import pytest
from conftest import (embed_one, finite_diff_grad, flatten, mean_pool,
                      mmd_squared, pack, record)

from glad.data import Graph, GraphDatabase, derive_features, generate_mixhop
from glad.metrics import midrank, roc_auc, wilcoxon_one_sided
from glad.numkit import init_params
from glad.pipeline import BenchmarkParams, PipelineConfig, run_pipeline
from glad.pooling import (median_heuristic, mmd_pool_batch, nystrom_fit,
                          set_kernel)
from glad.selection import hits
from glad.trainer import ModelConfig, batch_objective, pool_graphs, run_grid

# Reduced grid for the synthetic benchmark runs: 12 candidates spanning
# both poolings, two seeds each.
BENCH_GRID = {
    "common": {"batch_size": [64], "d_hidden": [32], "weight_decay": [1e-4]},
    "mean": {"layers": [1, 2], "lr": [1e-4, 1e-3], "seed": [0, 1],
             "epochs": [60]},
    "mmd": {"layers": [1, 2], "lr": [0.01], "seed": [0, 1],
            "nystrom_mult": [4.0], "epochs": [15]},
}
BENCH = BenchmarkParams(n_train=150, n_test=100, anomaly_rate=0.05,
                        nodes=50, ba_m=2, labels=5,
                        homophily_in=0.7, homophily_out=0.3)
MASTER_SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="session")
def benchmark_runs(tmp_path_factory):
    """Five full pipeline runs on the synthetic benchmark, one per
    master seed, with per-run wall-clock timing."""
    base = tmp_path_factory.mktemp("bench")
    runs = []
    for seed in MASTER_SEEDS:
        cfg = PipelineConfig(out_dir=base / f"seed{seed}", master_seed=seed,
                             bench=BENCH, grid_spec=BENCH_GRID)
        t0 = time.monotonic()
        report, pool, selections = run_pipeline(cfg)
        runs.append((report, pool, time.monotonic() - t0))
    return runs


def test_criterion_1_synthetic_benchmark(benchmark_runs):
    desc = ("synthetic benchmark: ensemble AUC >= 0.90 on >= 3 of 4 "
            "master seeds within the time budget")
    ok = False
    detail = "did not run"
    try:
        four = benchmark_runs[:4]
        for report, pool, _ in four:
            poolings = {c.pooling for c in pool.configs}
            seeds = {c.seed for c in pool.configs}
            assert report.n_models >= 12
            assert poolings == {"mean", "mmd"} and len(seeds) >= 2
        aucs = [r.method_auc["hits-ens"] for r, _, _ in four]
        elapsed = sum(e for _, _, e in four)
        good = sum(a >= 0.90 for a in aucs)
        ok = good >= 3 and elapsed <= 600.0
        detail = (f"hits-ens aucs={[round(a, 3) for a in aucs]}, "
                  f"elapsed={elapsed:.1f}s")
    finally:
        record(1, desc, ok)
    assert ok, detail


def test_criterion_2_mmd_brute_force():
    desc = "set kernel and squared MMD match brute-force double sums"
    ok = False
    try:
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            a = rng.standard_normal((int(rng.integers(1, 11)), dim))
            b = rng.standard_normal((int(rng.integers(1, 11)), dim))
            gamma = float(rng.uniform(0.1, 2.0))

            def brute(s, t):
                total = 0.0
                for x in s:
                    for y in t:
                        d = x - y
                        total += np.exp(-gamma * float(d @ d))
                return total / (len(s) * len(t))

            worst = max(worst,
                        abs(set_kernel(*pack([a]), *pack([b]), gamma)[0, 0]
                            - brute(a, b)),
                        abs(mmd_squared(a, b, gamma)
                            - (brute(a, a) + brute(b, b) - 2 * brute(a, b))))
        ok = worst <= 1e-10
    finally:
        record(2, desc, ok)
    assert ok, f"worst abs deviation {worst:.3e}"


def test_criterion_3_nystrom_reconstruction():
    desc = "Nystrom features reproduce exact and dense low-rank Gram forms"
    ok = False
    try:
        rng = np.random.default_rng(303)
        arrays = [rng.standard_normal((int(rng.integers(2, 7)), 3))
                  for _ in range(12)]
        sets, landmarks = pack(arrays), pack(arrays[:5])
        gamma = median_heuristic(sets[0])
        k_full = set_kernel(*sets, *sets, gamma)

        h_full = mmd_pool_batch(*sets, nystrom_fit(*sets, gamma))
        err_full = float(np.max(np.abs(k_full - h_full @ h_full.T)))

        h_sub = mmd_pool_batch(*sets, nystrom_fit(*landmarks, gamma))
        k_gb = set_kernel(*sets, *landmarks, gamma)
        k_bb = set_kernel(*landmarks, *landmarks, gamma)
        dense = k_gb @ np.linalg.pinv(k_bb) @ k_gb.T
        err_sub = float(np.max(np.abs(h_sub @ h_sub.T - dense)))

        ok = err_full <= 1e-6 and err_sub <= 1e-8
    finally:
        record(3, desc, ok)
    assert ok, f"full-landmark err {err_full:.3e}, subset err {err_sub:.3e}"


def test_criterion_4_gradient_check():
    desc = "analytic loss gradients match central finite differences"
    ok = False
    try:
        db = derive_features(generate_mixhop(3, 12, 2, 0.6, 3, seed=9),
                             "one_hot_label", label_alphabet=[0, 1, 2])
        graphs = list(db.graphs)
        params = init_params(db.d_in, 8, 2, seed=4)
        rng = np.random.default_rng(404)
        idx = rng.choice(flatten(params).size, size=100, replace=False)
        wd = 1e-3

        sets = [embed_one(g, params) for g in graphs]
        gamma = median_heuristic(np.concatenate(sets))
        nmap = nystrom_fit(*pack(sets[:2]), gamma)
        mmd_state = (graphs[:2], nmap.factor, gamma)

        worst = 0.0
        for state, pool_map in ((None, None), (mmd_state, nmap)):
            center = pool_graphs(graphs, params, pool_map).mean(axis=0) + 0.1
            _, _, grads = batch_objective(graphs, params, state, center)
            full = params.zeros_like()
            for (f1, f2), (g1, g2), (w1, w2) in zip(
                    full.layers, grads.layers, params.layers):
                f1 += g1 + wd * w1
                f2 += g2 + wd * w2
            fd = finite_diff_grad(
                lambda p: batch_objective(graphs, p, state, center)[1]
                + 0.5 * wd * p.sq_norm(), params, h=1e-5, indices=idx)
            af = flatten(full)[idx]
            ff = flatten(fd)[idx]
            rel = np.abs(af - ff) / np.maximum(np.abs(ff), 1e-8)
            worst = max(worst, float(rel.max()))
        ok = worst <= 1e-4
    finally:
        record(4, desc, ok)
    assert ok, f"worst relative error {worst:.3e}"


def test_criterion_5_hub_oracle():
    desc = "hub vector matches power-iteration oracle; duality holds"
    ok = False
    try:
        rng = np.random.default_rng(505)
        worst_hub = worst_dual = 0.0
        for _ in range(20):
            w = rng.uniform(0.0, 1.0, size=(int(rng.integers(2, 11)),
                                            int(rng.integers(2, 11))))
            h, a, _, _ = hits(w)

            m = w @ w.T
            v = np.ones(m.shape[0])
            for _ in range(2000):
                v = m @ v
                v /= np.linalg.norm(v)
            worst_hub = max(worst_hub, float(np.max(np.abs(h - v))))

            ref_a = w.T @ h
            ref_a /= np.linalg.norm(ref_a)
            ref_h = w @ a
            ref_h /= np.linalg.norm(ref_h)
            worst_dual = max(worst_dual,
                             float(np.max(np.abs(a - ref_a))),
                             float(np.max(np.abs(h - ref_h))))
        ok = worst_hub <= 1e-6 and worst_dual <= 1e-9
    finally:
        record(5, desc, ok)
    assert ok, f"hub err {worst_hub:.3e}, duality err {worst_dual:.3e}"


def test_criterion_6_selection_beats_average(benchmark_runs):
    desc = "ensemble selection >= pool-average AUC in >= 4 of 5 runs"
    ok = False
    try:
        wins = sum(r.method_auc["hits-ens"] >= r.pool_mean_auc
                   for r, _, _ in benchmark_runs)
        ok = wins >= 4
        pairs = [(round(r.method_auc["hits-ens"], 3),
                  round(r.pool_mean_auc, 3)) for r, _, _ in benchmark_runs]
    finally:
        record(6, desc, ok)
    assert ok, f"wins={wins}/5, (ensemble, pool-average)={pairs}"


# --- criterion 7 fixtures: distribution anomalies invisible to the mean ---

INLIER_VALS = (2.0, 2.0, 2.0, 0.5, 0.5, 0.5, 0.25, 0.25)   # sums to 8
ANOM_VALS = (1.0,) * 8                                      # same sum


def paired_graph(gid, vals, scale):
    """16 disjoint edges; each value v fills one +v pair and one -v pair,
    so positive and negative node-value mass is equal for any vals."""
    values = []
    for v in vals:
        values += [v, v, -v, -v]
    feats = scale * np.array(values).reshape(-1, 1)
    edges = tuple((2 * j, 2 * j + 1, 1.0) for j in range(len(values) // 2))
    return Graph(graph_id=gid, node_count=len(values), edges=edges,
                 features=feats)


def planted_distribution_benchmark():
    rng = np.random.default_rng(77)

    def build(n, vals, offset):
        return [paired_graph(offset + i, vals, rng.uniform(0.9, 1.1))
                for i in range(n)]

    train = GraphDatabase(graphs=tuple(build(60, INLIER_VALS, 0)),
                          feature_kind="attributes", split_tag="train")
    graphs = build(45, INLIER_VALS, 100) + build(5, ANOM_VALS, 200)
    flags = np.array([False] * 45 + [True] * 5)
    test = GraphDatabase(graphs=tuple(graphs), anomaly_flags=flags,
                         feature_kind="attributes", split_tag="test")
    return train, test, flags


def test_criterion_7_pooling_complementarity():
    desc = "spread anomalies need the set kernel, outliers need the mean"
    ok = False
    try:
        # (a) equal means, different spread: invisible to mean pooling
        v = np.zeros(4)
        v[0] = 1.0
        narrow = np.stack([v, -v])
        wide = np.stack([3 * v, -3 * v])
        mean_gap = float(np.linalg.norm(mean_pool(narrow) - mean_pool(wide)))
        spread_mmd = mmd_squared(narrow, wide, gamma=0.5)
        part_a = mean_gap == 0.0 and spread_mmd > 0.01

        # (b) one far outlier row: mean gap grows linearly with magnitude
        rng = np.random.default_rng(707)
        base = rng.standard_normal((6, 4))
        u = rng.standard_normal(4)
        gaps = []
        for t in (1.0, 2.0):
            shifted = base.copy()
            shifted[0] += t * u
            gaps.append(float(np.linalg.norm(mean_pool(base)
                                             - mean_pool(shifted))))
        part_b = (gaps[0] == pytest.approx(np.linalg.norm(u) / 6)
                  and gaps[1] == pytest.approx(2 * gaps[0]))

        # (c) planted benchmark: per-node values stay in the inlier range
        # but their spread shrinks; only the set kernel should see it
        train, test, flags = planted_distribution_benchmark()
        configs = [ModelConfig(pooling="mean", layers=1, lr=lr, seed=s,
                               epochs=30, batch_size=32, d_hidden=16,
                               weight_decay=1e-4)
                   for lr in (1e-4, 1e-3) for s in (0, 1)]
        configs += [ModelConfig(pooling="mmd", layers=1, lr=0.01, seed=s,
                                epochs=10, batch_size=32, d_hidden=16,
                                weight_decay=1e-4, nystrom_k=17)
                    for s in (0, 1)]
        pool = run_grid(train, test, configs, base_seed=3)
        aucs = np.array([roc_auc(row, flags) for row in pool.scores])
        kinds = np.array([c.pooling for c in pool.configs])
        best_mean = float(aucs[kinds == "mean"].max())
        best_mmd = float(aucs[kinds == "mmd"].max())
        part_c = best_mmd > best_mean

        ok = part_a and part_b and part_c
        detail = (f"mean_gap={mean_gap}, spread_mmd={spread_mmd:.3f}, "
                  f"outlier_gaps={gaps}, best_mean={best_mean:.3f}, "
                  f"best_mmd={best_mmd:.3f}")
    finally:
        record(7, desc, ok)
    assert ok, detail


def test_criterion_8_metric_oracles():
    desc = "ROC-AUC equals pair counting; exact test equals enumeration"
    ok = False
    try:
        rng = np.random.default_rng(808)
        auc_exact = True
        for _ in range(100):
            n = int(rng.integers(4, 40))
            scores = rng.integers(0, 7, size=n).astype(float)
            flags = rng.random(n) < 0.35
            if flags.all() or not flags.any():
                flags[0] = ~flags[0]
            pos = scores[flags]
            neg = scores[~flags]
            total = 0.0
            for p in pos:
                total += float(np.sum(p > neg)) + 0.5 * float(np.sum(p == neg))
            auc_exact &= roc_auc(scores, flags) == total / (pos.size * neg.size)

        wilcoxon_exact = True
        for n in range(5, 13):
            for _ in range(3):
                x = rng.integers(0, 4, size=n).astype(float)
                y = x + rng.integers(-2, 3, size=n).astype(float)
                d = y - x
                d = d[d != 0.0]
                w_got, p_got = wilcoxon_one_sided(x, y)
                if d.size == 0:
                    wilcoxon_exact &= (w_got, p_got) == (0.0, 1.0)
                    continue
                ranks = midrank(np.abs(d))
                w_obs = float(ranks[d > 0.0].sum())
                hits_count = sum(
                    float(np.dot(signs, ranks)) >= w_obs - 1e-9
                    for signs in itertools.product((0.0, 1.0), repeat=d.size))
                p_want = hits_count / 2 ** d.size
                wilcoxon_exact &= (w_got == w_obs
                                   and abs(p_got - p_want) <= 1e-12)
        ok = auc_exact and wilcoxon_exact
    finally:
        record(8, desc, ok)
    assert ok, f"auc_exact={auc_exact}, wilcoxon_exact={wilcoxon_exact}"


def test_criterion_9_determinism(tmp_path):
    desc = "same master seed twice -> byte-identical pool CSVs"
    ok = False
    try:
        bench = BenchmarkParams(n_train=10, n_test=8, anomaly_rate=0.25,
                                nodes=12, ba_m=2, labels=2,
                                homophily_in=0.9, homophily_out=0.1)
        grid = {"common": {"epochs": [3], "batch_size": [8],
                           "d_hidden": [6]},
                "mean": {"layers": [1], "weight_decay": [1e-4],
                         "lr": [1e-3], "seed": [0, 1]},
                "mmd": {"layers": [1], "weight_decay": [1e-4], "lr": [0.01],
                        "seed": [0], "nystrom_k": [4]}}
        for sub in ("a", "b"):
            run_pipeline(PipelineConfig(out_dir=tmp_path / sub,
                                        master_seed=7, bench=bench,
                                        grid_spec=grid))
        ok = all((tmp_path / "a" / name).read_bytes()
                 == (tmp_path / "b" / name).read_bytes()
                 for name in ("pool_configs.csv", "pool_scores.csv"))
    finally:
        record(9, desc, ok)
    assert ok

"""One-class objective, gradients, training loop, grids, pool files."""

import math
import os
import time
import tracemalloc
from dataclasses import astuple, replace
from itertools import product

import numpy as np
import pytest
from conftest import embed_one, finite_diff_grad, flatten, mean_pool, pack

from glad.data import (Graph, GraphDatabase, derive_features,
                       generate_mixhop)
from glad.encoder import blocks
from glad.errors import DegenerateInputError, FormatError, GladError
from glad.numkit import ParamSet, Workspace, init_params
from glad.pipeline import BenchmarkParams, generate_benchmark
from glad.pooling import median_heuristic, mmd_pool_batch, nystrom_fit
from glad.trainer import (DEFAULT_GRID, MAX_CONFIGS, CandidatePool,
                          ModelConfig, _nine_digit_chunk, batch_objective,
                          expand_grid, format_rows, load_pool, nystrom_size,
                          pool_graphs, run_grid, save_pool, score_graphs,
                          train_candidate)


@pytest.fixture(scope="module")
def toy_db():
    db = generate_mixhop(3, 12, 2, 0.6, 3, seed=9)
    return derive_features(db, "one_hot_label", label_alphabet=[0, 1, 2])


@pytest.fixture(scope="module")
def bench():
    train = generate_mixhop(30, 20, 2, 0.8, 3, seed=1)
    train = derive_features(train, "one_hot_label", label_alphabet=[0, 1, 2])
    test_in = generate_mixhop(16, 20, 2, 0.8, 3, seed=2, id_offset=30)
    test_out = generate_mixhop(4, 20, 2, 0.2, 3, seed=3, id_offset=46)
    from glad.data import GraphDatabase
    test = GraphDatabase(graphs=test_in.graphs + test_out.graphs,
                         anomaly_flags=np.array([False] * 16 + [True] * 4))
    return train, derive_features(test, "one_hot_label",
                                  label_alphabet=[0, 1, 2])


@pytest.fixture(scope="module")
def acceptance_train():
    """Training graphs of the acceptance benchmark, master seed 1."""
    train, _ = generate_benchmark(BenchmarkParams(
        n_train=150, n_test=100, anomaly_rate=0.05, nodes=50, ba_m=2,
        labels=5, homophily_in=0.7, homophily_out=0.3), 1)
    return list(train.graphs)


class TestObjective:
    @staticmethod
    def _point_graphs(points):
        """Single-node graphs whose embeddings under ``_identity_params``
        are the given non-negative points."""
        return [Graph(graph_id=i, node_count=1, edges=(),
                      features=np.array([p], dtype=float))
                for i, p in enumerate(points)]

    @staticmethod
    def _identity_params():
        return ParamSet(layers=[(np.eye(2), np.eye(2))], d_in=2, d_hidden=2)

    def test_svdd_loss_hand_value(self, toy_db):
        graphs = self._point_graphs([[0.0, 0.0], [2.0, 0.0]])
        pooled, loss, _ = batch_objective(graphs, self._identity_params(),
                                          None, np.array([1.0, 0.0]))
        np.testing.assert_array_equal(pooled, [[0.0, 0.0], [2.0, 0.0]])
        # data term: mean(1, 1) = 1; the ridge term is left to the optimizer
        assert loss == pytest.approx(1.0)

        graphs = list(toy_db.graphs)
        params = init_params(toy_db.d_in, 5, 2, seed=4)
        rows = np.stack([mean_pool(embed_one(g, params)) for g in graphs])
        center = rows.mean(axis=0) + 0.1
        pooled, loss, _ = batch_objective(graphs, params, None, center)
        np.testing.assert_array_equal(pooled, rows)
        want = sum(float((r - center) @ (r - center)) for r in rows) / len(rows)
        assert loss == pytest.approx(want, rel=1e-12)

    def test_init_center_is_mean(self, toy_db):
        # train_candidate's center is the mean of the initial pooled rows
        graphs = self._point_graphs([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]])
        pooled = pool_graphs(graphs, self._identity_params())
        np.testing.assert_allclose(pooled.mean(axis=0), [3.0, 2.0])

        graphs = list(toy_db.graphs)
        params = init_params(toy_db.d_in, 5, 2, seed=4)
        rows = np.stack([mean_pool(embed_one(g, params)) for g in graphs])
        pooled = pool_graphs(graphs, params)
        np.testing.assert_array_equal(pooled, rows)
        np.testing.assert_array_equal(pooled.mean(axis=0), rows.mean(axis=0))

    def _full_grad(self, grads, params, wd):
        full = params.zeros_like()
        for (f1, f2), (g1, g2), (w1, w2) in zip(full.layers, grads.layers,
                                                params.layers):
            f1 += g1 + wd * w1
            f2 += g2 + wd * w2
        return full

    def test_mean_gradients_match_finite_differences(self, toy_db):
        graphs = list(toy_db.graphs)
        params = init_params(toy_db.d_in, 5, 2, seed=4)
        center = np.stack([mean_pool(embed_one(g, params))
                           for g in graphs]).mean(axis=0) + 0.1
        wd = 1e-3
        _, _, grads = batch_objective(graphs, params, None, center)
        full = self._full_grad(grads, params, wd)
        fd = finite_diff_grad(
            lambda p: batch_objective(graphs, p, None, center)[1]
            + 0.5 * wd * p.sq_norm(), params, h=1e-5)
        af, ff = flatten(full), flatten(fd)
        rel = np.abs(af - ff) / np.maximum(np.abs(ff), 1e-8)
        assert float(rel.max()) <= 1e-4

    def test_mmd_gradients_match_finite_differences(self, toy_db):
        # landmarks overlap the batch: both gradient routes accumulate
        graphs = list(toy_db.graphs)
        params = init_params(toy_db.d_in, 5, 2, seed=4)
        sets = [embed_one(g, params) for g in graphs]
        gamma = median_heuristic(np.concatenate(sets))
        nmap = nystrom_fit(*pack(sets[:2]), gamma)
        state = (graphs[:2], nmap.factor, gamma)
        center = pool_graphs(graphs, params, nmap).mean(axis=0) + 0.05
        wd = 1e-3
        _, loss, grads = batch_objective(graphs, params, state, center)
        full = self._full_grad(grads, params, wd)
        fd = finite_diff_grad(
            lambda p: batch_objective(graphs, p, state, center)[1]
            + 0.5 * wd * p.sq_norm(), params, h=1e-5)
        af, ff = flatten(full), flatten(fd)
        rel = np.abs(af - ff) / np.maximum(np.abs(ff), 1e-8)
        assert float(rel.max()) <= 1e-4

    @staticmethod
    def _mmd_setup(graphs, landmark_graphs, d_hidden, layers=2):
        params = init_params(graphs[0].features.shape[1], d_hidden, layers,
                             seed=4)
        sets = [embed_one(g, params) for g in graphs]
        gamma = median_heuristic(np.concatenate(sets))
        nmap = nystrom_fit(*pack([embed_one(g, params)
                                  for g in landmark_graphs]), gamma)
        state = (landmark_graphs, nmap.factor, gamma)
        center = pool_graphs(graphs, params, nmap).mean(axis=0) + 0.05
        return params, state, center

    def test_mmd_blocks_match_one_block(self, monkeypatch):
        # Graphs of 6 to 16 nodes: one block at the default BLOCK_ROWS,
        # at least three at 40.  Graphs 1 and 5 are in the batch and
        # landmarks; the last landmark is outside the batch.
        parts = [generate_mixhop(2, n, 2, 0.6, 3, seed=n, id_offset=n)
                 for n in (6, 9, 12, 16)]
        db = derive_features(GraphDatabase(graphs=tuple(
            g for p in parts for g in p.graphs)), "one_hot_label",
            label_alphabet=[0, 1, 2])
        batch = list(db.graphs[:7])
        landmark_graphs = [batch[1], batch[5], db.graphs[7]]
        params, state, center = self._mmd_setup(batch, landmark_graphs, 5)
        sizes = [g.node_count for g in batch]
        assert len(blocks(sizes)) == 1
        pooled1, loss1, grads1 = batch_objective(batch, params, state, center)
        monkeypatch.setattr("glad.encoder.BLOCK_ROWS", 40)
        assert len(blocks(sizes)) >= 3
        pooled, loss, grads = batch_objective(batch, params, state, center)
        np.testing.assert_allclose(pooled, pooled1, rtol=0, atol=1e-12)
        assert loss == pytest.approx(loss1, rel=0, abs=1e-12)
        np.testing.assert_allclose(flatten(grads), flatten(grads1), rtol=0,
                                   atol=1e-12)

    def test_mmd_step_memory_below_whole_batch_kernel(self):
        # The node-pair kernel of the whole batch against the landmarks
        # would take 128 * 20 x 16 * 20 doubles (6.25 MiB); pooling and
        # pulling back one block at a time never holds it.
        db = derive_features(generate_mixhop(128, 20, 2, 0.6, 3, seed=5),
                             "one_hot_label", label_alphabet=[0, 1, 2])
        graphs = list(db.graphs)
        landmark_graphs = graphs[::8]
        params, state, center = self._mmd_setup(graphs, landmark_graphs, 16)
        whole = 128 * 20 * len(landmark_graphs) * 20 * 8
        tracemalloc.start()
        try:
            batch_objective(graphs, params, state, center)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < whole, (peak, whole)

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("readout", ["mean", "mmd"])
    def test_workspace_reuse_is_bit_equal(self, readout, layers,
                                          monkeypatch):
        # Graphs of 6 to 16 nodes in blocks of at most 40 padded rows:
        # steps whose n_max and block count shrink and then grow again.
        # Every buffer is filled with 3.0 between steps, so padding or a
        # gradient sum that a step reads before writing would show.
        parts = [generate_mixhop(4, n, 2, 0.6, 3, seed=n, id_offset=n * 10)
                 for n in (6, 9, 12, 16)]
        graphs = list(derive_features(GraphDatabase(graphs=tuple(
            g for p in parts for g in p.graphs)), "one_hot_label",
            label_alphabet=[0, 1, 2]).graphs)
        params, state, center = self._mmd_setup(graphs, graphs[2::5], 5,
                                                layers)
        if readout == "mean":
            state, center = None, pool_graphs(graphs, params).mean(axis=0)
        monkeypatch.setattr("glad.encoder.BLOCK_ROWS", 40)
        six, nine, twelve, sixteen = (graphs[i:i + 4] for i in (0, 4, 8, 12))
        steps = [[g for p in zip(sixteen, twelve) for g in p],
                 [six[0], nine[0], six[1], nine[1], six[2]],
                 [g for p in zip(six, sixteen, nine, twelve) for g in p]]
        spans = [blocks([g.node_count for g in b]) for b in steps]
        assert len(spans[1]) < len(spans[0]) < len(spans[2])
        ws = Workspace()
        for batch in steps:
            pooled, loss, grads = batch_objective(batch, params, state,
                                                  center, ws)
            want = batch_objective(batch, params, state, center)
            assert pooled.tobytes() == want[0].tobytes()
            assert loss == want[1]
            assert flatten(grads).tobytes() == flatten(want[2]).tobytes()
            for buf in ws.bufs.values():
                buf.fill(3.0)

    @pytest.mark.parametrize("readout", ["mean", "mmd"])
    def test_warm_step_allocates_no_step_sized_array(self, readout,
                                                     acceptance_train):
        # A 2-layer, 64-graph step on the acceptance benchmark's data
        # allocates over 1 MiB without a workspace; with a warm one only
        # small per-set and per-graph temporaries remain.
        graphs = acceptance_train
        landmarks = [graphs[i] for i in np.sort(np.random.default_rng(1)
                                                .choice(150, 21, False))]
        params, state, center = self._mmd_setup(graphs, landmarks, 32)
        if readout == "mean":
            state, center = None, pool_graphs(graphs, params).mean(axis=0)
        batch, ws = graphs[:64], Workspace()
        rises = []
        for call_ws in (None, ws, ws):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                batch_objective(batch, params, state, center, call_ws)
                rises.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        bound = 0.25 * 2**20
        assert rises[0] > 4 * bound and rises[2] < bound, rises


class TestModelConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="pooling"):
            ModelConfig(pooling="max")
        with pytest.raises(ValueError, match="nystrom_k"):
            ModelConfig(pooling="mmd")
        with pytest.raises(ValueError, match="lr"):
            ModelConfig(pooling="mean", lr=0.0)
        for bad in ({"lr": math.nan}, {"lr": math.inf},
                    {"weight_decay": math.nan}):
            with pytest.raises(ValueError, match="finite"):
                ModelConfig(pooling="mean", **bad)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            ModelConfig(pooling="mean", seed=-1)

    def test_hyper_key_ignores_seed(self):
        a = ModelConfig(pooling="mean", seed=0)
        b = ModelConfig(pooling="mean", seed=5)
        c = ModelConfig(pooling="mean", seed=0, lr=0.5)
        assert a.hyper_key() == b.hyper_key()
        assert a.hyper_key() != c.hyper_key()


class TestTrainCandidate:
    def test_deterministic(self, bench):
        train, test = bench
        cfg = ModelConfig(pooling="mean", layers=1, lr=1e-3, seed=0,
                          epochs=3, d_hidden=8)
        a = train_candidate(train, cfg, base_seed=5)
        b = train_candidate(train, cfg, base_seed=5)
        np.testing.assert_array_equal(score_graphs(test, a),
                                      score_graphs(test, b))

    def test_center_frozen_from_initial_pass(self, bench):
        train, _ = bench
        cfg = ModelConfig(pooling="mean", layers=1, lr=1e-3, seed=2,
                          epochs=2, d_hidden=8)
        cand = train_candidate(train, cfg)
        init = init_params(train.d_in, 8, 1, seed=2)
        pooled = np.stack([mean_pool(embed_one(g, init))
                           for g in train.graphs])
        np.testing.assert_allclose(cand.center, pooled.mean(axis=0))

    def test_scores_are_center_distances(self, bench):
        train, test = bench
        cfg = ModelConfig(pooling="mean", layers=2, lr=1e-3, seed=1,
                          epochs=2, d_hidden=8)
        cand = train_candidate(train, cfg)
        scores = score_graphs(test, cand)
        for g, s in zip(test.graphs, scores):
            pooled = mean_pool(embed_one(g, cand.params))
            assert s == pytest.approx(np.linalg.norm(pooled - cand.center))

    def test_mmd_scores_are_center_distances(self, bench):
        train, test = bench
        cfg = ModelConfig(pooling="mmd", layers=2, lr=0.01, seed=1,
                          nystrom_k=6, epochs=2, d_hidden=8)
        cand = train_candidate(train, cfg)
        pooled = mmd_pool_batch(*pack([embed_one(g, cand.params)
                                       for g in test.graphs]), cand.nystrom)
        want = np.linalg.norm(pooled - cand.center, axis=1)
        for s, w in zip(score_graphs(test, cand), want):
            assert s == pytest.approx(w, rel=1e-12)

    def test_mmd_candidate_shapes(self, bench):
        train, test = bench
        cfg = ModelConfig(pooling="mmd", layers=1, lr=0.01, seed=0,
                          nystrom_k=6, epochs=2, d_hidden=8)
        cand = train_candidate(train, cfg)
        assert cand.nystrom is not None
        assert len(cand.nystrom.offsets) == 6 + 1
        assert cand.center.shape == (cand.nystrom.rank,)
        assert math.isfinite(cand.final_loss)
        assert score_graphs(test, cand).shape == (20,)

    def test_mmd_step_embeds_only_batch_and_landmarks(self, bench,
                                                      monkeypatch):
        # A training step embeds its batch and the landmarks, with caches;
        # the refresh of bandwidth and factor embeds every training graph
        # once, without caches: at initialization, in each later epoch and
        # for the scoring snapshot.
        import glad.trainer as gt
        train, _ = bench
        objective, embed = gt.batch_objective, gt._embed
        step, calls = [None], []

        def objective_spy(graphs, params, mmd_state=None, center=None,
                          *rest, **kw):
            step[0] = (list(graphs), mmd_state, center)
            try:
                return objective(step[0][0], params, mmd_state, center,
                                 *rest, **kw)
            finally:
                step[0] = None

        def embed_spy(graphs, params, with_cache=True, *rest):
            graphs = list(graphs)
            calls.append(([g.graph_id for g in graphs], with_cache, step[0]))
            return embed(graphs, params, with_cache, *rest)

        monkeypatch.setattr(gt, "batch_objective", objective_spy)
        monkeypatch.setattr(gt, "_embed", embed_spy)
        epochs, batch_size, k = 3, 8, 6
        cfg = ModelConfig(pooling="mmd", layers=1, lr=0.01, seed=0,
                          nystrom_k=k, epochs=epochs, batch_size=batch_size,
                          d_hidden=8)
        assert batch_size < len(train)
        train_candidate(train, cfg)

        cached = [(ids, at) for ids, with_cache, at in calls if with_cache]
        assert len(cached) == epochs * math.ceil(len(train) / batch_size)
        for ids, at in cached:
            assert at is not None and at[2] is not None, "not in a step"
            batch, (landmarks, _, _), _ = at
            assert len(ids) <= batch_size + k
            assert set(ids) <= {g.graph_id for g in [*batch, *landmarks]}
        refreshes = [ids for ids, _, at in calls if at is None]
        assert len(refreshes) == epochs + 1
        for ids in refreshes:
            assert sorted(ids) == sorted(train.graph_ids)

    def test_mean_caches_only_in_steps(self, bench, monkeypatch):
        # The initial center pass and scoring take no gradient, so they
        # embed without backward caches; a training step keeps them.
        import glad.trainer as gt
        train, test = bench
        objective, embed = gt.batch_objective, gt.embed_block
        in_step, calls = [False], []

        def objective_spy(graphs, params, mmd_state, center, *rest):
            in_step[0] = True
            try:
                return objective(graphs, params, mmd_state, center, *rest)
            finally:
                in_step[0] = False

        def embed_spy(graphs, params, with_cache=False, *rest):
            calls.append((in_step[0], with_cache))
            return embed(graphs, params, with_cache, *rest)

        monkeypatch.setattr(gt, "batch_objective", objective_spy)
        monkeypatch.setattr(gt, "embed_block", embed_spy)
        cfg = ModelConfig(pooling="mean", layers=2, lr=1e-3, seed=0,
                          epochs=2, batch_size=8, d_hidden=8)
        score_graphs(test, train_candidate(train, cfg))
        outside = [cached for step, cached in calls if not step]
        assert outside == [False] * (
            len(blocks([g.node_count for g in train.graphs]))
            + len(blocks([g.node_count for g in test.graphs])))
        assert all(cached for step, cached in calls if step)
        assert len(calls) > len(outside)

    def test_divergence_marks_failed(self, bench):
        train, _ = bench
        cfg = ModelConfig(pooling="mean", layers=2, lr=1e9, seed=0,
                          epochs=5, d_hidden=8)
        with pytest.raises(DegenerateInputError,
                           match=r"^non-finite loss in epoch \d+$"):
            train_candidate(train, cfg)

    def test_huge_attributes_fail_the_first_refit(self, bench):
        # Finite inputs of 1e300 overflow the node distances, so the first
        # bandwidth is not positive; the refit before training reports it.
        train, _ = bench
        huge = GraphDatabase(graphs=tuple(
            replace(g, features=g.features * 1e300) for g in train.graphs))
        cfg = ModelConfig(pooling="mmd", layers=2, lr=0.01, seed=0,
                          nystrom_k=6, epochs=2, d_hidden=8)
        with pytest.raises(DegenerateInputError,
                           match="^refresh failed in epoch 0: gamma must be "
                                 "positive"):
            train_candidate(huge, cfg)


class TestGrids:
    def test_nystrom_size_rule(self):
        # ceil(4 * ln 150) = ceil(20.04) = 21
        assert nystrom_size(4, 150) == 21
        assert nystrom_size(8, 150) == 41
        assert nystrom_size(16, 150) == 81
        # clamps
        assert nystrom_size(0.1, 150) == 4
        assert nystrom_size(100, 10) == 10
        # a product past the float range still clamps to n_train
        assert nystrom_size(1e308, 150) == 150

    def test_default_grid_counts(self):
        configs = expand_grid(DEFAULT_GRID, n_train=150)
        mean = [c for c in configs if c.pooling == "mean"]
        mmd = [c for c in configs if c.pooling == "mmd"]
        # 3 layers x 3 decay x 2 lr x 3 seeds
        assert len(mean) == 54
        # x 3 landmark counts
        assert len(mmd) == 162
        assert all(c.epochs == 150 and c.batch_size == 64 for c in configs)
        assert {c.nystrom_k for c in mmd} == {21, 41, 81}

    def test_expand_orders_mean_first(self):
        configs = expand_grid(DEFAULT_GRID, n_train=150)
        first_mmd = next(i for i, c in enumerate(configs)
                         if c.pooling == "mmd")
        assert all(c.pooling == "mean" for c in configs[:first_mmd])
        assert all(c.pooling == "mmd" for c in configs[first_mmd:])

    def test_expansion_order_pinned(self):
        # Model ids and UDR's sibling groups follow this order.
        want, c = [], DEFAULT_GRID["common"]
        for family, ks in (("mean", [None]), ("mmd", [21, 41, 81])):
            g = DEFAULT_GRID[family]
            for layers, wd, lr, k, epochs, bs, d, seed in product(
                    g["layers"], g["weight_decay"], g["lr"], ks,
                    c["epochs"], c["batch_size"], c["d_hidden"], g["seed"]):
                want.append((family, layers, wd, lr, seed, k, epochs, bs, d))
        got = [astuple(c) for c in expand_grid(DEFAULT_GRID, n_train=150)]
        assert got == want

    def test_config_count_limit(self):
        seeds = list(range(MAX_CONFIGS // 4))
        spec = {"mean": {"layers": [1, 2], "seed": seeds, "d_hidden": [3, 4]}}
        assert len(expand_grid(spec, 10)) == MAX_CONFIGS
        spec["mmd"] = {"nystrom_k": [2]}
        with pytest.raises(ValueError, match=f"expands to {MAX_CONFIGS + 1} "):
            expand_grid(spec, 10)
        # the count comes before any config is built
        big = {"mean": {k: list(range(1, 1001)) for k in
                        ("layers", "seed", "epochs", "d_hidden")}}
        with pytest.raises(ValueError, match="expands to 1000000000000 "):
            expand_grid(big, 10)
        with pytest.raises(ValueError, match="unknown grid keys.*pooling"):
            expand_grid({"mean": {"pooling": ["mmd"]}}, 10)

    def test_family_overrides_common(self):
        spec = {"common": {"epochs": [10], "batch_size": [8],
                           "d_hidden": [4]},
                "mean": {"layers": [1], "weight_decay": [0.0], "lr": [0.1],
                         "seed": [0], "epochs": [3]}}
        configs = expand_grid(spec, n_train=20)
        assert len(configs) == 1
        assert configs[0].epochs == 3 and configs[0].batch_size == 8

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown grid keys"):
            expand_grid({"mean": {"bogus": [1]}}, 10)
        with pytest.raises(ValueError, match="nystrom"):
            expand_grid({"mmd": {"layers": [1], "weight_decay": [0.0],
                                 "lr": [0.1], "seed": [0]}}, 10)
        with pytest.raises(ValueError, match="not both"):
            expand_grid({"mmd": {"nystrom_k": [2], "nystrom_mult": [4]}}, 10)
        with pytest.raises(ValueError, match="no configurations"):
            expand_grid({"common": {"epochs": [1]}}, 10)
        # landmark counts below 1 and non-positive multipliers are errors,
        # not clamped
        for k in (0, -5):
            with pytest.raises(ValueError, match="positive nystrom_k"):
                expand_grid({"mmd": {"nystrom_k": [k]}}, 10)
        for mult in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="finite and positive"):
                expand_grid({"mmd": {"nystrom_mult": [mult]}}, 10)


SMALL_GRID = {
    "common": {"epochs": [2], "batch_size": [16], "d_hidden": [6]},
    "mean": {"layers": [1], "weight_decay": [1e-4], "lr": [1e-3],
             "seed": [0, 1]},
    "mmd": {"layers": [1], "weight_decay": [1e-4], "lr": [0.01],
            "seed": [0], "nystrom_k": [5]},
}


class TestRunGrid:
    def test_pool_shape_and_ids(self, bench):
        train, test = bench
        configs = expand_grid(SMALL_GRID, len(train))
        pool = run_grid(train, test, configs, base_seed=3)
        assert pool.scores.shape == (3, 20)
        assert pool.model_ids == ["m000", "m001", "m002"]
        assert pool.graph_ids == test.graph_ids
        assert not pool.dropped

    def test_failed_candidates_dropped_with_stable_ids(self, bench):
        train, test = bench
        configs = expand_grid(SMALL_GRID, len(train))
        bad = ModelConfig(pooling="mean", layers=2, lr=1e9, seed=0,
                          epochs=5, d_hidden=8)
        pool = run_grid(train, test, [configs[0], bad, configs[1]],
                        base_seed=3)
        assert pool.model_ids == ["m000", "m002"]
        assert len(pool.dropped) == 1 and pool.dropped[0][0] == "m001"
        with pytest.raises(GladError, match="first dropped m000: non-finite"):
            run_grid(train, test, [bad, bad], base_seed=3)
        with pytest.raises(ValueError, match="config"):
            run_grid(train, test, [], base_seed=3)

    def test_non_finite_test_scores_dropped(self, bench):
        train, test = bench
        # Features this large overflow the mean readout's center distance
        # at scoring time; the MMD readout's kernel maps them to finite
        # values.
        huge = GraphDatabase(
            graphs=tuple(replace(g, features=g.features * 1e200)
                         for g in test.graphs),
            anomaly_flags=test.anomaly_flags)
        configs = expand_grid(SMALL_GRID, len(train))
        with np.errstate(over="ignore", invalid="ignore"):
            pool = run_grid(train, huge, configs, base_seed=3)
        assert pool.model_ids == ["m002"]
        assert pool.dropped == [("m000", "non-finite test scores"),
                                ("m001", "non-finite test scores")]
        assert np.all(np.isfinite(pool.scores))

    def test_workers_match_serial(self, bench):
        train, test = bench
        configs = expand_grid(SMALL_GRID, len(train))
        serial = run_grid(train, test, configs, workers=1, base_seed=3)
        parallel = run_grid(train, test, configs, workers=2, base_seed=3)
        np.testing.assert_array_equal(serial.scores, parallel.scores)

    def test_workers_drop_as_serial(self, bench, monkeypatch, tmp_path):
        # A diverging candidate is dropped inside whichever process trains
        # it; only the reason crosses the process boundary.  Each process
        # appends its pid per candidate: this one is one of the k trainers.
        import glad.trainer as gt
        train, test = bench
        configs = expand_grid(SMALL_GRID, len(train))
        bad = ModelConfig(pooling="mean", layers=2, lr=1e9, seed=0,
                          epochs=5, d_hidden=8)
        configs = [configs[0], bad, configs[2]]
        serial = run_grid(train, test, configs, workers=1, base_seed=3)
        assert serial.model_ids == ["m000", "m002"]
        assert serial.dropped[0][1].startswith("non-finite loss in epoch")
        calls, fit = tmp_path / "calls.txt", gt._train_and_score

        def counted(*args):
            with open(calls, "a") as f:
                f.write(f"{os.getpid()}\n")
            return fit(*args)

        monkeypatch.setattr(gt, "_train_and_score", counted)
        for workers in (2, 3):
            calls.write_text("")
            parallel = run_grid(train, test, configs, workers=workers,
                                base_seed=3)
            pids = calls.read_text().split()
            assert len(pids) == len(configs) and len(set(pids)) <= workers
            assert str(os.getpid()) in pids
            assert parallel.model_ids == serial.model_ids
            assert parallel.dropped == serial.dropped
            assert parallel.scores.tobytes() == serial.scores.tobytes()

    def test_failed_last_refit_drops_its_candidate(self, bench, monkeypatch):
        # The refit after the last epoch (the scoring snapshot) fails for
        # the first MMD candidate only; the grid keeps the others.
        import glad.trainer as gt
        train, test = bench
        mean, _, mmd = expand_grid(SMALL_GRID, len(train))
        configs = [mean, mmd, replace(mmd, seed=1)]
        fit, calls = gt.nystrom_fit, []

        def failing_fit(*args, **kw):
            calls.append(args)
            if len(calls) == mmd.epochs + 1:
                raise np.linalg.LinAlgError("eigh did not converge")
            return fit(*args, **kw)

        monkeypatch.setattr(gt, "nystrom_fit", failing_fit)
        pool = run_grid(train, test, configs, base_seed=3)
        assert len(calls) == 2 * (mmd.epochs + 1)
        assert pool.model_ids == ["m000", "m002"]
        assert pool.dropped == [("m001", f"refresh failed in epoch "
                                         f"{mmd.epochs}: eigh did not converge")]

    def test_calling_process_error_propagates(self, bench, monkeypatch,
                                              tmp_path):
        # Not a divergence: the error leaves run_grid, and the pushed
        # counter stops the worker after at most its current candidate.
        import glad.trainer as gt
        train, test = bench
        configs = expand_grid({**SMALL_GRID, "mean": {
            **SMALL_GRID["mean"], "seed": list(range(6))}}, len(train))
        calls, fit, parent = tmp_path / "calls.txt", gt._train_and_score, \
            os.getpid()

        def failing(*args):
            if os.getpid() == parent:
                raise RuntimeError("out of disk")
            with open(calls, "a") as f:
                f.write(f"{os.getpid()}\n")
            return fit(*args)

        monkeypatch.setattr(gt, "_train_and_score", failing)
        calls.write_text("")
        with pytest.raises(RuntimeError, match="out of disk"):
            run_grid(train, test, configs, workers=2, base_seed=3)
        assert len(calls.read_text().split()) <= 1

    def test_dead_worker_stops_the_grid(self, bench, monkeypatch, tmp_path):
        # The worker dies at its first candidate while this process holds
        # its own; the dead worker's future pushes the counter past the
        # end, so this process stops instead of training the rest.
        import glad.trainer as gt
        train, test = bench
        configs = expand_grid({"common": SMALL_GRID["common"], "mean": {
            **SMALL_GRID["mean"], "seed": list(range(12))}}, len(train))
        calls, died = tmp_path / "calls.txt", tmp_path / "died"
        fit, parent = gt._train_and_score, os.getpid()

        def dying(*args):
            if os.getpid() != parent:
                died.touch()
                os._exit(3)
            with open(calls, "a") as f:
                f.write(f"{os.getpid()}\n")
            deadline = time.monotonic() + 10
            while not died.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)  # time for the executor to see the exit
            return fit(*args)

        monkeypatch.setattr(gt, "_train_and_score", dying)
        calls.write_text("")
        with pytest.raises(GladError, match="a worker process died"):
            run_grid(train, test, configs, workers=2, base_seed=3)
        assert died.exists() and len(configs) == 12
        assert len(calls.read_text().split()) <= 2

    def test_worker_count_capped_at_config_count(self, bench, monkeypatch):
        # A recorder stands in for the executor and runs the tasks in this
        # process, so no worker process is ever started.
        from concurrent.futures import Future
        train, test = bench
        configs = expand_grid(SMALL_GRID, len(train))
        started = []

        class Recorder:
            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn):
                future = Future()
                future.set_result(fn())
                return future

        monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor",
                            Recorder)
        monkeypatch.setattr("glad.trainer._worker_inputs", ())
        capped = run_grid(train, test, configs, workers=1000, base_seed=3)
        assert started == [len(configs) - 1]  # this process is the last
        serial = run_grid(train, test, configs, workers=1, base_seed=3)
        np.testing.assert_array_equal(capped.scores, serial.scores)
        run_grid(train, test, configs[:1], workers=4, base_seed=3)
        assert started == [len(configs) - 1]  # one config runs serially
        for bad in (0, -3):
            with pytest.raises(ValueError, match="workers"):
                run_grid(train, test, configs, workers=bad)
        assert started == [len(configs) - 1]


class TestPoolFiles:
    def make_pool(self):
        configs = [ModelConfig(pooling="mean", seed=0),
                   ModelConfig(pooling="mmd", seed=1, nystrom_k=7,
                               weight_decay=1e-5, lr=0.1)]
        scores = np.array([[0.1234567891234, 1.0], [2.5, 0.25]])
        return CandidatePool(model_ids=["m000", "m001"], configs=configs,
                             scores=scores, graph_ids=[10, 11])

    def test_non_finite_scores_rejected(self):
        pool = self.make_pool()
        for bad in (np.nan, np.inf):
            scores = pool.scores.copy()
            scores[1, 0] = bad
            with pytest.raises(ValueError, match="finite"):
                CandidatePool(model_ids=pool.model_ids, configs=pool.configs,
                              scores=scores, graph_ids=pool.graph_ids)

    def test_round_trip(self, tmp_path):
        pool = self.make_pool()
        save_pool(pool, tmp_path)
        back = load_pool(tmp_path)
        assert back.model_ids == pool.model_ids
        assert back.configs == pool.configs
        assert back.graph_ids == pool.graph_ids
        np.testing.assert_allclose(back.scores, pool.scores, rtol=1e-8)

    def test_score_format_nine_significant_digits(self, tmp_path):
        save_pool(self.make_pool(), tmp_path)
        lines = (tmp_path / "pool_scores.csv").read_text().splitlines()
        assert lines[0] == "model_id,10,11"
        assert lines[1].split(",")[1] == "0.123456789"

    def test_score_format_matches_per_element_format(self, tmp_path):
        pool = self.make_pool()
        scores = np.array([[0.0, 5e-324, 1e300, -2.5e-7],
                           [-0.0, -1e300, -0.1234567891234, 123456789012.0]])
        pool = CandidatePool(model_ids=pool.model_ids, configs=pool.configs,
                             scores=scores, graph_ids=[10, 11, 12, 13])
        save_pool(pool, tmp_path)
        want = ["model_id,10,11,12,13"] + [
            mid + "," + ",".join(format(x, ".9g") for x in row)
            for mid, row in zip(pool.model_ids, scores)]
        text = (tmp_path / "pool_scores.csv").read_text()
        assert text == "\n".join(want) + "\n"
        back = load_pool(tmp_path)
        np.testing.assert_allclose(back.scores, scores, rtol=1e-8)
        assert back.scores[0, 1] == 5e-324

    def test_writer_matches_per_value_format(self):
        # 200 rows x 5,000 values, as '%.9g' writes each one.  Rows 0-149
        # hold values the vectorized path proves exact: both signs, nine
        # decades, integers, rounding carries and the ends of the fixed
        # notation range.  Each of rows 150-199 holds one value that makes
        # its row fall back to '%'.
        rng = np.random.default_rng(20)
        values = (10.0 ** rng.uniform(-4, 9, (200, 5000))
                  * rng.choice([-1.0, 1.0], (200, 5000)))
        for i in range(20):
            values[i] = np.round(10.0 ** rng.uniform(0, 6, 5000), i % 4)
        values[20:40] = rng.integers(-10**6, 10**6, (20, 5000))
        edges = [9.99999999995, 0.99999999995, -99999.99999995, 1e-4,
                 -1.00000000049e-4, 9.9999999995e-5, 999999999.4, 1.5, 0.5]
        values[40:150, :len(edges)] = edges
        slow = [0.0, -0.0, 5e-324, -2.2e-308, 1e300, -1e300, 1e9,
                -999999999.5, 123456789.5, 1.000000005, 9.99e-5, 7e15]
        for i, v in enumerate(slow * 4 + slow[:2]):
            values[150 + i, rng.integers(5000)] = v
        labels = [f"m{i:03d}" for i in range(200)]
        want = [("%s" + ",%.9g" * 5000) % (lab, *row)
                for lab, row in zip(labels, values.tolist())]
        assert format_rows(labels, values) == want
        fast = _nine_digit_chunk(values[140:160])[2]
        assert fast == [True] * 10 + [False] * 10

    def test_config_header(self, tmp_path):
        save_pool(self.make_pool(), tmp_path)
        head = (tmp_path / "pool_configs.csv").read_text().splitlines()[0]
        assert head == ("model_id,pooling,layers,weight_decay,lr,seed,"
                        "nystrom_k,epochs,batch_size,d_hidden")

    def test_load_errors(self, tmp_path):
        pool = self.make_pool()
        save_pool(pool, tmp_path)

        cfgs = (tmp_path / "pool_configs.csv")
        orig = cfgs.read_text()
        cfgs.write_text(orig.replace("model_id,", "modelid,", 1))
        with pytest.raises(FormatError, match=":1: bad header"):
            load_pool(tmp_path)
        cfgs.write_text(orig)

        scores = tmp_path / "pool_scores.csv"
        good = scores.read_text()
        scores.write_text(good.replace("m001,", "m009,"))
        with pytest.raises(FormatError, match="unknown model id"):
            load_pool(tmp_path)
        scores.write_text(good.replace("2.5", "abc"))
        with pytest.raises(FormatError, match="bad score"):
            load_pool(tmp_path)
        for value in ("nan", "inf", "-inf"):
            scores.write_text(good.replace("2.5", value))
            with pytest.raises(FormatError,
                               match=f"pool_scores.csv:3: bad score.*{value}"):
                load_pool(tmp_path)
        scores.write_text("\n".join(good.splitlines()[:2]) + "\n")
        with pytest.raises(FormatError, match="no scores for m001"):
            load_pool(tmp_path)
        cfgs.write_text(orig.splitlines()[0] + "\n")
        scores.write_text(good.splitlines()[0] + "\n")
        with pytest.raises(FormatError, match="pool_configs.csv: no model rows"):
            load_pool(tmp_path)


    def test_pool_files_round_trip_byte_for_byte(self, tmp_path):
        configs = ("model_id,pooling,layers,weight_decay,lr,seed,nystrom_k,"
                   "epochs,batch_size,d_hidden\n"
                   "m000,mean,1,1e-05,0.0001,0,,2,8,6\n"
                   "m003,mmd,4,0.0,0.1,2,21,150,64,64\n")
        scores = ("model_id,7,3,12\n"
                  "m000,0.123456789,1e-05,3\n"
                  "m003,2.5e-300,1.23456789e+10,0\n")
        (tmp_path / "pool_configs.csv").write_text(configs)
        (tmp_path / "pool_scores.csv").write_text(scores)
        pool = load_pool(tmp_path)
        for cfg in pool.configs:
            assert all(type(v) in (int, float, str, type(None))
                       for v in astuple(cfg))
        assert pool.configs[0].nystrom_k is None
        save_pool(pool, tmp_path / "again")
        assert (tmp_path / "again" / "pool_configs.csv").read_text() == configs
        assert (tmp_path / "again" / "pool_scores.csv").read_text() == scores

    def test_line_reader_matches_whole_table_and_finds_duplicates(self, tmp_path):
        pool = self.make_pool()
        save_pool(pool, tmp_path)
        scores = tmp_path / "pool_scores.csv"
        lines = scores.read_text().splitlines()
        fast = load_pool(tmp_path)
        # numpy refuses a line of spaces; the line reader must agree
        scores.write_text("\n".join(lines[:2] + ["   "] + lines[2:]) + "\n")
        slow = load_pool(tmp_path)
        assert slow.model_ids == fast.model_ids and slow.graph_ids == fast.graph_ids
        assert slow.scores.dtype == fast.scores.dtype
        assert slow.scores.tobytes() == fast.scores.tobytes()
        scores.write_text("\n".join(lines + [lines[1]]) + "\n")
        with pytest.raises(FormatError,
                           match="pool_scores.csv:4: .*duplicate model id m000"):
            load_pool(tmp_path)


class TestPlantedOutliers:
    def test_mean_candidates_rank_far_outliers_on_top(self):
        # train: tight attribute cluster; test adds graphs shifted far away
        rng = np.random.default_rng(31)
        ring = tuple((i, (i + 1) % 6, 1.0) for i in range(5)) + ((0, 5, 1.0),)
        from glad.data import Graph, GraphDatabase

        def cluster_graph(gid, shift=0.0):
            feats = rng.normal(0.0, 0.1, size=(6, 3)) + shift
            return Graph(graph_id=gid, node_count=6, edges=ring,
                         features=feats)

        train = GraphDatabase(
            graphs=tuple(cluster_graph(i) for i in range(12)))
        test_graphs = [cluster_graph(100 + i) for i in range(8)]
        test_graphs += [cluster_graph(200 + i, shift=10.0) for i in range(3)]
        flags = np.array([False] * 8 + [True] * 3)
        test = GraphDatabase(graphs=tuple(test_graphs), anomaly_flags=flags)

        for layers in (1, 2):
            cfg = ModelConfig(pooling="mean", layers=layers, lr=1e-3,
                              seed=0, epochs=3, d_hidden=8)
            cand = train_candidate(train, cfg)
            scores = score_graphs(test, cand)
            assert scores.min() >= 0.0 and np.isfinite(scores).all()
            assert scores[flags].min() > np.median(scores[~flags])

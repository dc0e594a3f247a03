"""Hub/authority recursion, rank-correlation baselines, dispatch, files."""

import tracemalloc

import numpy as np
import pytest
from conftest import spearman

from glad import selection
from glad.errors import DegenerateInputError, MethodError
from glad.selection import (METHODS, SelectionResult, _pairwise_spearman,
                            hits, hits_ens, hits_select, mc_select,
                            normalize_rows, select, udr_select,
                            write_selection)
from glad.trainer import CandidatePool, ModelConfig, load_pool, save_pool


def make_pool(scores, seeds=None, lrs=None):
    scores = np.asarray(scores, dtype=float)
    m = scores.shape[0]
    seeds = seeds or list(range(m))
    lrs = lrs or [1e-3] * m
    configs = [ModelConfig(pooling="mean", seed=s, lr=lr)
               for s, lr in zip(seeds, lrs)]
    return CandidatePool(model_ids=[f"m{i:03d}" for i in range(m)],
                         configs=configs, scores=scores,
                         graph_ids=list(range(scores.shape[1])))


def power_iteration_hub(w, iters=500):
    """Independent route: hub = dominant eigenvector of W W^T."""
    m = w @ w.T
    v = np.ones(m.shape[0])
    for _ in range(iters):
        v = m @ v
        v /= np.linalg.norm(v)
    return v


class TestNormalizeRows:
    def test_hand_values(self):
        out = normalize_rows([[2.0, 6.0, 4.0], [1.0, 1.0, 1.0]])
        np.testing.assert_allclose(out[0], [0.0, 1.0, 0.5])
        np.testing.assert_allclose(out[1], [0.5, 0.5, 0.5])

    def test_range(self):
        rng = np.random.default_rng(0)
        out = normalize_rows(rng.normal(size=(6, 9)))
        assert out.min() == 0.0 and out.max() == 1.0


class TestHits:
    def test_matches_power_iteration(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            w = rng.uniform(0.0, 1.0, size=(rng.integers(2, 8),
                                            rng.integers(2, 8)))
            h, a, iters, residual = hits(w)
            oracle = power_iteration_hub(w)
            assert float(np.max(np.abs(h - oracle))) <= 1e-6
            assert residual <= 1e-9 and iters <= 1000

    def test_duality(self):
        rng = np.random.default_rng(4)
        w = rng.uniform(size=(5, 7))
        h, a, _, _ = hits(w)
        ref = w.T @ h
        ref /= np.linalg.norm(ref)
        assert float(np.max(np.abs(a - ref))) <= 1e-9
        ref_h = w @ a
        ref_h /= np.linalg.norm(ref_h)
        assert float(np.max(np.abs(h - ref_h))) <= 1e-9

    def test_rank_one_converges_in_one_sweep(self):
        # W = u v^T: a single update already lands on the fixed point
        u = np.array([1.0, 2.0])
        v = np.array([3.0, 0.0, 4.0])
        h, a, iters, _ = hits(np.outer(u, v))
        np.testing.assert_allclose(h, u / np.linalg.norm(u))
        np.testing.assert_allclose(a, v / np.linalg.norm(v))
        assert iters <= 2

    def test_uniform_start_and_iteration_limit(self, monkeypatch):
        # A constant W's fixed point is the uniform start: one iteration.
        assert hits(np.full((3, 4), 0.5))[2] == 1
        # At HITS_MAX_ITER iterations it stops, converged or not.
        monkeypatch.setattr(selection, "HITS_MAX_ITER", 2)
        w = np.random.default_rng(4).uniform(size=(5, 7))
        _, _, iters, residual = hits(w)
        assert iters == 2 and residual > selection.HITS_TOL

    def test_errors(self):
        with pytest.raises(ValueError):
            hits(np.ones(3))
        with pytest.raises(DegenerateInputError):
            hits(np.zeros((2, 2)))


class TestHitsSelect:
    def test_prefers_agreeing_models(self):
        # two identical rankings vs one reversed: consensus follows the pair
        pool = make_pool([[0.1, 0.2, 0.9],
                          [0.1, 0.2, 0.9],
                          [0.9, 0.2, 0.1]])
        res = hits_select(pool)
        assert res.selected_model == "m000"
        assert res.reliability[0] == res.reliability[1] > res.reliability[2]
        np.testing.assert_array_equal(res.final_scores, pool.scores[0])
        assert res.selected_index == 0 and res.method == "hits"

    def test_ensemble_authority_ranking(self):
        pool = make_pool([[0.1, 0.9, 0.3],
                          [0.2, 0.8, 0.1],
                          [0.0, 1.0, 0.5]])
        res = hits_ens(pool)
        assert res.selected_model is None
        assert int(np.argmax(res.final_scores)) == 1
        np.testing.assert_array_equal(res.final_scores, res.authority)
        assert res.final_scores.shape == (3,)


class TestSpearman:
    """The pool-wide rank correlation matrix, against hand values and the
    two-vector oracle."""

    def test_perfect_and_reversed(self):
        corr = _pairwise_spearman(np.array([[1.0, 2.0, 3.0],
                                            [10.0, 20.0, 30.0],
                                            [5.0, 4.0, 3.0]]))
        assert corr[0, 1] == pytest.approx(1.0)
        assert corr[0, 2] == pytest.approx(-1.0)
        assert np.array_equal(corr, corr.T, equal_nan=True)

    def test_tied_hand_value(self):
        # ranks [1, 2.5, 2.5, 4] vs [1, 2, 3, 4]:
        # cov 1.125, stds sqrt(1.125), sqrt(1.25) -> sqrt(0.9)
        x, y = [1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0]
        got = _pairwise_spearman(np.array([x, y]))[0, 1]
        assert got == pytest.approx(np.sqrt(0.9), abs=1e-12)
        assert spearman(x, y) == pytest.approx(np.sqrt(0.9), abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        corr = _pairwise_spearman(np.array([np.exp(x), x, y]))
        assert corr[0, 2] == pytest.approx(corr[1, 2])
        assert corr[1, 2] == pytest.approx(spearman(x, y), abs=1e-12)

    def test_errors(self):
        # Undefined correlations read NaN: the diagonal and every entry
        # of a constant row.
        corr = _pairwise_spearman(np.array([[1.0, 1.0, 1.0],
                                            [1.0, 2.0, 3.0],
                                            [3.0, 1.0, 2.0]]))
        assert np.isnan(np.diag(corr)).all()
        assert np.isnan(corr[0]).all() and np.isnan(corr[:, 0]).all()
        assert np.isfinite(corr[1, 2])
        assert np.isnan(spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))


class TestMcSelect:
    def test_hand_crafted_reliabilities(self):
        pool = make_pool([[1.0, 2.0, 3.0, 4.0],
                          [1.0, 2.0, 4.0, 3.0],
                          [4.0, 3.0, 2.0, 1.0]])
        res = mc_select(pool)
        # pairwise rank correlations: (0,1)=0.8, (0,2)=-1, (1,2)=-0.8
        np.testing.assert_allclose(res.reliability, [-0.1, 0.0, -0.9],
                                   atol=1e-12)
        assert res.selected_model == "m001"
        np.testing.assert_array_equal(res.final_scores, pool.scores[1])

    def test_constant_rows_ignored(self):
        pool = make_pool([[1.0, 2.0, 3.0],
                          [1.0, 3.0, 2.0],
                          [5.0, 5.0, 5.0]])
        res = mc_select(pool)
        assert res.selected_model in ("m000", "m001")
        assert res.reliability[2] == -np.inf

    def test_errors(self):
        with pytest.raises(MethodError):
            mc_select(make_pool([[1.0, 2.0, 3.0]]))
        with pytest.raises(MethodError):
            mc_select(make_pool([[1.0, 1.0], [2.0, 2.0]]))


class TestUdrSelect:
    def test_siblings_share_hyperparameters(self):
        # rows 0/1: same setting, different seed; row 2: singleton
        scores = [[1.0, 2.0, 3.0, 4.0],
                  [1.0, 2.0, 4.0, 3.0],
                  [1.0, 2.0, 3.0, 4.0]]
        pool = make_pool(scores, seeds=[0, 1, 0], lrs=[1e-3, 1e-3, 0.1])
        res = udr_select(pool)
        assert res.selected_model == "m000"  # tie at 0.8, lowest index
        np.testing.assert_allclose(res.reliability[:2], [0.8, 0.8])
        assert res.reliability[2] == -np.inf

    def test_median_over_several_siblings(self):
        scores = [[1.0, 2.0, 3.0, 4.0],
                  [1.0, 2.0, 4.0, 3.0],
                  [4.0, 3.0, 2.0, 1.0]]
        pool = make_pool(scores, seeds=[0, 1, 2])
        res = udr_select(pool)
        # medians of {0.8, -1}, {0.8, -0.8}, {-1, -0.8}
        np.testing.assert_allclose(res.reliability, [-0.1, 0.0, -0.9],
                                   atol=1e-12)
        assert res.selected_model == "m001"

    def test_no_seed_variation_raises(self):
        pool = make_pool([[1.0, 2.0], [2.0, 1.0]],
                         seeds=[0, 0], lrs=[1e-3, 0.1])
        with pytest.raises(MethodError, match="seed"):
            udr_select(pool)

    def test_constant_siblings_raise(self):
        # Siblings exist, but every sibling pair involves a constant row.
        pool = make_pool([[1.0, 2.0, 3.0], [4.0, 4.0, 4.0], [3.0, 1.0, 2.0]],
                         seeds=[0, 1, 0], lrs=[1e-3, 1e-3, 0.1])
        with pytest.raises(MethodError, match="no sibling pair"):
            udr_select(pool)


class TestDispatch:
    def test_select_routes_by_name(self):
        pool = make_pool([[1.0, 2.0, 3.0], [1.0, 3.0, 2.0]],
                         seeds=[0, 1])
        for method in METHODS:
            res = select(pool, method)
            assert res.method == method
        with pytest.raises(ValueError, match="unknown method"):
            select(pool, "oracle")


class TestSharedWork:
    def test_each_statistic_computed_once_per_pool(self, monkeypatch):
        calls = {"_pairwise_spearman": 0, "hits": 0}

        def spy(name):
            orig = getattr(selection, name)

            def counted(*args):
                calls[name] += 1
                return orig(*args)
            monkeypatch.setattr(selection, name, counted)
        spy("_pairwise_spearman")
        spy("hits")
        rng = np.random.default_rng(14)
        scores = rng.random((6, 15))
        seeds = [0, 1, 2, 0, 1, 2]
        pool = make_pool(scores, seeds=seeds, lrs=[1e-3] * 3 + [1e-2] * 3)
        shared = {m: select(pool, m) for m in ("mc", "udr", "hits", "hits-ens")}
        assert calls == {"_pairwise_spearman": 1, "hits": 1}
        # Each method alone on a fresh pool gives the same bits.
        for method, res in shared.items():
            alone = select(make_pool(scores, seeds=seeds,
                                     lrs=[1e-3] * 3 + [1e-2] * 3), method)
            assert res.reliability.tobytes() == alone.reliability.tobytes()
            assert res.final_scores.tobytes() == alone.final_scores.tobytes()
        assert calls == {"_pairwise_spearman": 3, "hits": 3}

    def test_scores_cannot_change_under_kept_statistics(self):
        scores = np.random.default_rng(15).random((3, 5))
        pool = make_pool(scores)
        mc_select(pool)
        assert np.shares_memory(pool.scores, scores)
        with pytest.raises(ValueError, match="read-only"):
            pool.scores[0, 0] = 2.0
        with pytest.raises(AttributeError):
            pool.scores = scores
        with pytest.raises(ValueError, match="read-only"):
            pool.stats["spearman"][0, 1] = 0.0


class TestWriteSelection:
    def test_files(self, tmp_path):
        res = SelectionResult(method="hits",
                              final_scores=np.array([0.123456789123, 2.0]),
                              graph_ids=[7, 9],
                              reliability=np.array([1.0]),
                              selected_model="m003", selected_index=3,
                              iterations=12, residual=3.456e-10)
        out = tmp_path / "scores.csv"
        write_selection(res, out, tmp_path / "meta.txt")
        assert out.read_text() == ("graph_id,score\n"
                                   "7,0.123456789\n"
                                   "9,2\n")
        meta = (tmp_path / "meta.txt").read_text().splitlines()
        assert meta == ["method = hits", "selected_model = m003",
                        "iterations = 12", "residual = 3.456e-10"]

    def test_scores_match_per_element_format(self, tmp_path):
        scores = np.array([0.0, 5e-324, 1e300, -1e300, -0.1234567891234])
        res = SelectionResult(method="mc", final_scores=scores,
                              graph_ids=[3, 1, 4, 15, 9],
                              reliability=np.array([1.0]))
        out = tmp_path / "s.csv"
        write_selection(res, out)
        want = ["graph_id,score"] + [f"{g},{format(float(x), '.9g')}"
                                     for g, x in zip(res.graph_ids, scores)]
        assert out.read_text() == "\n".join(want) + "\n"
        back = [float(line.split(",")[1])
                for line in out.read_text().splitlines()[1:]]
        np.testing.assert_allclose(back, scores, rtol=1e-8)

    def test_str_path(self, tmp_path):
        res = SelectionResult(method="mc", final_scores=np.array([1.5]),
                              graph_ids=[4], reliability=np.array([1.0]))
        write_selection(res, str(tmp_path / "sub" / "s.csv"))
        assert (tmp_path / "sub" / "s.csv").read_text() == (
            "graph_id,score\n4,1.5\n")
        assert (tmp_path / "sub" / "selection_meta_mc.txt").exists()

    def test_ensemble_meta_uses_dash(self, tmp_path):
        res = SelectionResult(method="hits-ens",
                              final_scores=np.array([1.0]),
                              graph_ids=[0], reliability=np.array([1.0]),
                              iterations=5, residual=1e-10)
        write_selection(res, tmp_path / "s.csv")
        meta = (tmp_path / "selection_meta_hits_ens.txt").read_text()
        assert "selected_model = -" in meta


def traced_rise(fn, *args):
    """``fn(*args)`` and the rise of its traced peak over the memory
    traced before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_pool_files_and_selection_hold_about_one_score_matrix(tmp_path):
    # The score table is written chunk by chunk, so the writer's rise does
    # not grow with the rows; loading and selecting a pool hold about one
    # more score matrix, not a second copy on top of it.
    rng = np.random.default_rng(32)
    saves = []
    for m in (100, 400):
        pool = make_pool(np.exp(rng.normal(size=(m, 2000))))
        saves.append(traced_rise(save_pool, pool, tmp_path / str(m))[1])
    assert saves[1] - saves[0] < 2**20, saves
    matrix = pool.scores.nbytes
    loaded, rise = traced_rise(load_pool, tmp_path / "400")
    assert rise <= 1.5 * matrix, rise / matrix
    for method, bound in (("hits", 1.25), ("mc", 1.5)):
        rise = traced_rise(select, loaded, method)[1]
        assert rise <= bound * matrix, (method, rise / matrix)


class TestInvariances:
    def test_rescaling_one_row_changes_nothing(self):
        rng = np.random.default_rng(11)
        scores = rng.random((5, 12))
        pool_a = make_pool(scores)
        scaled = scores.copy()
        scaled[2] *= 37.5
        pool_b = make_pool(scaled)
        np.testing.assert_allclose(normalize_rows(scores),
                                   normalize_rows(scaled), atol=1e-15)
        ra, rb = hits_select(pool_a), hits_select(pool_b)
        assert ra.selected_index == rb.selected_index
        np.testing.assert_allclose(ra.reliability, rb.reliability)
        np.testing.assert_allclose(hits_ens(pool_a).final_scores,
                                   hits_ens(pool_b).final_scores)

    def test_rank_methods_ignore_increasing_transforms(self):
        rng = np.random.default_rng(12)
        scores = rng.random((4, 10))
        warped = scores.copy()
        warped[1] = np.exp(4.0 * warped[1])
        for fn in (mc_select, udr_select):
            a = fn(make_pool(scores, seeds=[0, 1, 0, 1]))
            b = fn(make_pool(warped, seeds=[0, 1, 0, 1]))
            assert a.selected_index == b.selected_index
            np.testing.assert_allclose(a.reliability, b.reliability,
                                       atol=1e-12)

    def test_planted_consensus_recovery(self):
        # 8 noisy copies of one ranking + 2 unrelated rows: consensus
        # methods should reproduce the planted ranking
        rng = np.random.default_rng(13)
        agreements = {"hits": [], "hits-ens": [], "mc": []}
        for _ in range(20):
            consensus = rng.random(50)
            rows = [consensus + rng.normal(0.0, 0.05, size=50)
                    for _ in range(8)]
            rows += [rng.random(50) for _ in range(2)]
            pool = make_pool(np.stack(rows))
            for method in agreements:
                res = select(pool, method)
                agreements[method].append(spearman(res.final_scores,
                                                   consensus))
        for method, vals in agreements.items():
            assert np.mean(vals) >= 0.9, method


def pair_loop_reliability(scores, siblings, reduce):
    """Reference: ``reduce`` over each model's defined rank correlations
    with its ``siblings(i, j)``, one ``spearman`` call per pair."""
    m = scores.shape[0]
    out = np.full(m, -np.inf)
    for i in range(m):
        vals = []
        for j in range(m):
            if j == i or not siblings(i, j):
                continue
            r = spearman(scores[i], scores[j])
            if not np.isnan(r):
                vals.append(r)
        if vals:
            out[i] = reduce(vals)
    return out


class TestRankMethodOracle:
    def test_random_pools_match_pair_loops(self):
        # 12 x 40 pools: sibling groups of three and two seeds in shuffled
        # order, rows with heavy ties, and one constant row.
        rng = np.random.default_rng(21)
        sizes = [3, 3, 2, 2, 2]
        for _ in range(6):
            lrs = [10.0 ** -(g + 1) for g, k in enumerate(sizes)
                   for _ in range(k)]
            seeds = [s for k in sizes for s in range(k)]
            order = rng.permutation(len(lrs))
            lrs = [lrs[i] for i in order]
            seeds = [seeds[i] for i in order]
            scores = rng.random((12, 40))
            scores[::3] = np.round(scores[::3], 1)
            scores[rng.integers(12)] = 0.5
            pool = make_pool(scores, seeds=seeds, lrs=lrs)

            want_mc = pair_loop_reliability(scores, lambda i, j: True,
                                            np.mean)
            want_udr = pair_loop_reliability(
                scores,
                lambda i, j: lrs[i] == lrs[j] and seeds[i] != seeds[j],
                np.median)
            for fn, want in ((mc_select, want_mc), (udr_select, want_udr)):
                got = fn(pool)
                np.testing.assert_array_equal(np.isinf(got.reliability),
                                              np.isinf(want))
                fin = np.isfinite(want)
                np.testing.assert_allclose(got.reliability[fin], want[fin],
                                           rtol=0.0, atol=1e-12)
                assert got.selected_index == int(np.argmax(want))

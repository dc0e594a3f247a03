"""Readouts: mean pooling, set kernels, MMD, bandwidth rule, Nystrom map."""

import tracemalloc

import numpy as np
import pytest
from conftest import mean_pool, mmd_squared

from glad import encoder
from glad.encoder import EmbeddingSet
from glad.pooling import (median_heuristic, mmd_pool_batch, nystrom_fit,
                          set_kernel_matrix)


def make_sets(rng, count, dim, min_n=1, max_n=10):
    return [EmbeddingSet(graph_id=i,
                         vectors=rng.standard_normal(
                             (int(rng.integers(min_n, max_n + 1)), dim)))
            for i in range(count)]


def brute_set_kernel(a, b, gamma):
    total = 0.0
    for x in a.vectors:
        for y in b.vectors:
            d = x - y
            total += np.exp(-gamma * float(d @ d))
    return total / (len(a.vectors) * len(b.vectors))


class TestKernels:
    def test_set_kernel_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            dim = int(rng.integers(2, 9))
            a, b = make_sets(rng, 2, dim)
            gamma = float(rng.uniform(0.1, 2.0))
            assert set_kernel_matrix([a], [b], gamma)[0, 0] == pytest.approx(
                brute_set_kernel(a, b, gamma), abs=1e-10)

    def test_mmd_squared_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            dim = int(rng.integers(2, 9))
            a, b = make_sets(rng, 2, dim)
            gamma = float(rng.uniform(0.1, 2.0))
            want = (brute_set_kernel(a, a, gamma)
                    + brute_set_kernel(b, b, gamma)
                    - 2.0 * brute_set_kernel(a, b, gamma))
            assert mmd_squared(a, b, gamma) == pytest.approx(want, abs=1e-10)

    def test_mmd_identical_sets_is_zero(self):
        rng = np.random.default_rng(2)
        a = make_sets(rng, 1, 4)[0]
        b = EmbeddingSet(graph_id=1, vectors=a.vectors.copy())
        assert abs(mmd_squared(a, b, 0.5)) < 1e-12

    def test_mmd_symmetric_nonnegative(self):
        rng = np.random.default_rng(3)
        a, b = make_sets(rng, 2, 3)
        m_ab = mmd_squared(a, b, 0.7)
        m_ba = mmd_squared(b, a, 0.7)
        assert m_ab == pytest.approx(m_ba, abs=1e-14)
        assert m_ab >= 0.0

    def test_set_kernel_matrix_blocks(self):
        rng = np.random.default_rng(4)
        sets_a = make_sets(rng, 3, 4)
        sets_b = make_sets(rng, 2, 4)
        k = set_kernel_matrix(sets_a, sets_b, 0.4)
        assert k.shape == (3, 2)
        for i, a in enumerate(sets_a):
            for j, b in enumerate(sets_b):
                assert k[i, j] == pytest.approx(brute_set_kernel(a, b, 0.4),
                                                abs=1e-12)

    def test_empty_set_rejected(self):
        rng = np.random.default_rng(14)
        sets = make_sets(rng, 3, 4)
        empty = EmbeddingSet(graph_id=77, vectors=np.zeros((0, 4)))
        for a, b in (([empty] + sets, sets), (sets + [empty], sets),
                     (sets, [empty] + sets), (sets, sets + [empty])):
            with pytest.raises(ValueError, match="graph 77 has no rows"):
                set_kernel_matrix(a, b, 0.5, with_pullback=True)


class TestComplementarity:
    def test_mmd_separates_equal_mean_different_spread(self):
        v = np.zeros(4)
        v[0] = 1.0
        s1 = EmbeddingSet(graph_id=0, vectors=np.stack([v, -v]))
        s2 = EmbeddingSet(graph_id=1, vectors=np.stack([3 * v, -3 * v]))
        assert np.allclose(mean_pool(s1), mean_pool(s2))
        assert np.linalg.norm(mean_pool(s1) - mean_pool(s2)) == 0.0
        assert mmd_squared(s1, s2, 0.5) > 0.01

    def test_mean_separates_single_outlier_linearly(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal((6, 3))
        u = np.array([1.0, -2.0, 0.5])
        diffs = []
        for t in (1.0, 2.0, 4.0):
            moved = base.copy()
            moved[0] += t * u
            d = np.linalg.norm(
                mean_pool(EmbeddingSet(graph_id=0, vectors=base))
                - mean_pool(EmbeddingSet(graph_id=1, vectors=moved)))
            assert d == pytest.approx(t * np.linalg.norm(u) / 6, rel=1e-12)
            diffs.append(d)
        assert diffs[1] == pytest.approx(2 * diffs[0], rel=1e-12)
        assert diffs[2] == pytest.approx(2 * diffs[1], rel=1e-12)


class TestMedianHeuristic:
    def test_exhaustive_hand_value(self):
        # points 0, 1, 3 on a line: squared gaps {1, 9, 4}, median 4
        s = EmbeddingSet(graph_id=0,
                         vectors=np.array([[0.0], [1.0], [3.0]]))
        assert median_heuristic([s]) == pytest.approx(0.25)

    def test_constant_points_fallback(self):
        s = EmbeddingSet(graph_id=0, vectors=np.ones((4, 2)))
        assert median_heuristic([s]) == 1.0

    def test_sampled_path_deterministic(self):
        rng = np.random.default_rng(6)
        s = EmbeddingSet(graph_id=0, vectors=rng.standard_normal((60, 3)))
        g1 = median_heuristic([s], sample_cap=100,
                              rng=np.random.default_rng(1))
        g2 = median_heuristic([s], sample_cap=100,
                              rng=np.random.default_rng(1))
        assert g1 == g2
        exhaustive = median_heuristic([s])
        assert g1 == pytest.approx(exhaustive, rel=0.5)

    def test_sampled_blocks_bit_equal_to_oracle(self, monkeypatch):
        # 1,830 distinct pairs > 1,000 sampled: the pairs come in blocks
        # of BLOCK_ROWS, and each pair's arithmetic is unchanged.
        rng = np.random.default_rng(16)
        sets = make_sets(rng, 9, 5, min_n=4, max_n=12)
        x = np.concatenate([s.vectors for s in sets])
        n, cap = x.shape[0], 1000
        assert n * (n - 1) // 2 > cap
        draw = np.random.default_rng(17)
        i = draw.integers(0, n, size=cap)
        j = draw.integers(0, n - 1, size=cap)
        j = np.where(j >= i, j + 1, j)
        diff = x[i] - x[j]
        want = 1.0 / float(np.median(np.sum(diff * diff, axis=1)))
        for rows in (7, 800, 5000):
            monkeypatch.setattr(encoder, "BLOCK_ROWS", rows)
            assert median_heuristic(sets, sample_cap=cap,
                                    rng=np.random.default_rng(17)) == want


class TestNystrom:
    def test_factor_whitens_landmark_kernel(self):
        rng = np.random.default_rng(7)
        land = make_sets(rng, 6, 3)
        nmap = nystrom_fit(land, 0.5)
        k = set_kernel_matrix(land, land, 0.5)
        ident = nmap.factor.T @ k @ nmap.factor
        np.testing.assert_allclose(ident, np.eye(nmap.rank), atol=1e-8)

    def test_full_landmarks_reconstruct_gram(self):
        rng = np.random.default_rng(8)
        sets = make_sets(rng, 10, 4)
        k = set_kernel_matrix(sets, sets, 0.3)
        h = mmd_pool_batch(sets, nystrom_fit(sets, 0.3))
        assert np.max(np.abs(k - h @ h.T)) <= 1e-6

    def test_subset_matches_dense_reconstruction(self):
        rng = np.random.default_rng(9)
        sets = make_sets(rng, 12, 4)
        land = sets[:5]
        nmap = nystrom_fit(land, 0.4)
        h = mmd_pool_batch(sets, nmap)
        kgb = set_kernel_matrix(sets, land, 0.4)
        kbb = set_kernel_matrix(land, land, 0.4)
        dense = kgb @ np.linalg.pinv(kbb) @ kgb.T
        assert np.max(np.abs(h @ h.T - dense)) <= 1e-8

    def test_fixed_rank_pads_with_zeros(self):
        rng = np.random.default_rng(10)
        a = make_sets(rng, 1, 3)[0]
        dup = EmbeddingSet(graph_id=1, vectors=a.vectors.copy())
        other = make_sets(rng, 1, 3)[0]
        # duplicate landmark: kernel matrix rank 2 at most
        nmap = nystrom_fit([a, dup, other], 0.5, rank=3)
        assert nmap.factor.shape == (3, 3)
        assert np.all(nmap.factor[:, 2] == 0.0)

    def test_deterministic_orientation(self):
        rng = np.random.default_rng(11)
        land = make_sets(rng, 5, 3)
        f1 = nystrom_fit(land, 0.6).factor
        f2 = nystrom_fit(land, 0.6).factor
        np.testing.assert_array_equal(f1, f2)

    def test_pool_single_matches_batch(self):
        rng = np.random.default_rng(12)
        sets = make_sets(rng, 4, 3)
        nmap = nystrom_fit(sets[:2], 0.5)
        batch = mmd_pool_batch(sets, nmap)
        for i, s in enumerate(sets):
            np.testing.assert_allclose(mmd_pool_batch([s], nmap)[0], batch[i])

    def test_fit_holds_one_block_kernel_at_a_time(self):
        # The BENCH landmark shape: 21 sets of 50 rows, d = 32; blocks of
        # BLOCK_ROWS rows against all 1,050 landmark rows.
        rng = np.random.default_rng(16)
        land = [EmbeddingSet(graph_id=i, vectors=rng.standard_normal((50, 32)))
                for i in range(21)]
        block_rows = encoder.blocks(np.full(21, 50))[0][1] * 50
        one_block = block_rows * 21 * 50 * 8
        tracemalloc.start()
        try:
            nystrom_fit(land, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * one_block

    def test_config_validation(self):
        rng = np.random.default_rng(15)
        land = make_sets(rng, 3, 2)
        for gamma in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="gamma must be positive"):
                nystrom_fit(land, gamma)


class TestKernelGrads:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        sets_a = make_sets(rng, 2, 3, min_n=2, max_n=4)
        sets_b = make_sets(rng, 3, 3, min_n=2, max_n=4)
        gamma = 0.8

        def objective(va, vb, coeffs):
            aa = [EmbeddingSet(graph_id=s.graph_id, vectors=v)
                  for s, v in zip(sets_a, va)]
            bb = [EmbeddingSet(graph_id=s.graph_id, vectors=v)
                  for s, v in zip(sets_b, vb)]
            return float(np.sum(coeffs * set_kernel_matrix(aa, bb, gamma)))

        k, pullback = set_kernel_matrix(sets_a, sets_b, gamma,
                                        with_pullback=True)
        k_before = k.copy()
        assert np.array_equal(k, set_kernel_matrix(sets_a, sets_b, gamma))
        h = 1e-6
        # Two calls with different coefficients: the first must leave
        # nothing behind that the second reads.
        for coeffs in (rng.standard_normal((2, 3)),
                       rng.standard_normal((2, 3))):
            ga, gb = pullback(coeffs)
            for side, sets, grads in (("a", sets_a, ga), ("b", sets_b, gb)):
                for i, s in enumerate(sets):
                    for pos in np.ndindex(*s.vectors.shape):
                        va = [x.vectors.copy() for x in sets_a]
                        vb = [x.vectors.copy() for x in sets_b]
                        tgt = va if side == "a" else vb
                        tgt[i][pos] += h
                        up = objective(va, vb, coeffs)
                        tgt[i][pos] -= 2 * h
                        down = objective(va, vb, coeffs)
                        fd = (up - down) / (2 * h)
                        assert grads[i][pos] == pytest.approx(fd, abs=5e-6)
        np.testing.assert_array_equal(k, k_before)

    def test_blocks_match_one_block(self, monkeypatch):
        # BLOCK_ROWS = 12 splits sets_a (sizes 2..5 and one of 15 rows,
        # larger than the constant) into several blocks.
        rng = np.random.default_rng(18)
        sets_a = make_sets(rng, 7, 3, min_n=2, max_n=5)
        sets_a.insert(3, EmbeddingSet(graph_id=99,
                                      vectors=rng.standard_normal((15, 3))))
        sets_b = make_sets(rng, 4, 3, min_n=1, max_n=6)
        coeffs = rng.standard_normal((len(sets_a), len(sets_b)))
        gamma = 0.6
        k1, pb1 = set_kernel_matrix(sets_a, sets_b, gamma, with_pullback=True)
        ga1, gb1 = pb1(coeffs)
        monkeypatch.setattr(encoder, "BLOCK_ROWS", 12)
        spans = encoder.blocks([s.size for s in sets_a])
        assert len(spans) >= 3 and (3, 4) in spans
        k, pb = set_kernel_matrix(sets_a, sets_b, gamma, with_pullback=True)
        np.testing.assert_allclose(k, k1, rtol=0, atol=1e-12)
        for i, a in enumerate(sets_a):
            for j, b in enumerate(sets_b):
                assert k[i, j] == pytest.approx(brute_set_kernel(a, b, gamma),
                                                abs=1e-12)
        ga, gb = pb(coeffs)
        for got, want in zip(ga + gb, ga1 + gb1):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        # Blocks on both sides: sets_a against itself.
        kaa = set_kernel_matrix(sets_a, sets_a, gamma)
        for i, j in ((0, 3), (3, 7), (1, 6)):
            assert (kaa[i, i] + kaa[j, j] - 2.0 * kaa[i, j]) == pytest.approx(
                mmd_squared(sets_a[i], sets_a[j], gamma), abs=1e-12)


class TestGramProperties:
    def test_gram_symmetric_psd(self):
        rng = np.random.default_rng(21)
        sets = make_sets(rng, 8, 4, min_n=1, max_n=6)
        k = set_kernel_matrix(sets, sets, gamma=0.7)
        np.testing.assert_allclose(k, k.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(k)
        assert float(eigs.min()) >= -1e-9

    def test_mmd_pool_row_permutation_invariant(self):
        rng = np.random.default_rng(22)
        sets = make_sets(rng, 4, 3, min_n=3, max_n=6)
        nmap = nystrom_fit(sets, 0.5)
        target = sets[1]
        base = mmd_pool_batch([target], nmap)[0]
        perm = rng.permutation(target.size)
        shuffled = EmbeddingSet(graph_id=target.graph_id,
                                vectors=target.vectors[perm])
        np.testing.assert_allclose(mmd_pool_batch([shuffled], nmap)[0], base,
                                   atol=1e-12)

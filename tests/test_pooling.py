"""Readouts: mean pooling, set kernels, MMD, bandwidth rule, Nystrom map."""

import tracemalloc

import numpy as np
import pytest
from conftest import mean_pool, mmd_squared, pack

from glad import encoder, pooling
from glad.pooling import (median_heuristic, mmd_pool_batch, nystrom_fit,
                          set_kernel)


def list_kernel(sets_a, sets_b, gamma, d_k=None):
    """:func:`glad.pooling.set_kernel` between two lists of node-row
    arrays, packed."""
    return set_kernel(*pack(sets_a), *pack(sets_b), gamma, d_k)


def rows_of(coeffs):
    """A ``d_k`` for :func:`glad.pooling.set_kernel` that hands out the
    rows of the fixed matrix ``coeffs``, one per kernel row it is given."""
    rows = iter(coeffs)
    return lambda k: np.array([next(rows) for _ in k])


def make_sets(rng, count, dim, min_n=1, max_n=10):
    return [rng.standard_normal((int(rng.integers(min_n, max_n + 1)), dim))
            for _ in range(count)]


def brute_set_kernel(a, b, gamma):
    total = 0.0
    for x in a:
        for y in b:
            d = x - y
            total += np.exp(-gamma * float(d @ d))
    return total / (len(a) * len(b))


class TestKernels:
    def test_set_kernel_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            dim = int(rng.integers(2, 9))
            a, b = make_sets(rng, 2, dim)
            gamma = float(rng.uniform(0.1, 2.0))
            assert list_kernel([a], [b], gamma)[0, 0] == pytest.approx(
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
        b = a.copy()
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
        k = list_kernel(sets_a, sets_b, 0.4)
        assert k.shape == (3, 2)
        for i, a in enumerate(sets_a):
            for j, b in enumerate(sets_b):
                assert k[i, j] == pytest.approx(brute_set_kernel(a, b, 0.4),
                                                abs=1e-12)

    def test_empty_set_rejected(self):
        rng = np.random.default_rng(14)
        sets = make_sets(rng, 3, 4)
        empty = np.zeros((0, 4))
        for (a, b), msg in (
                (([empty] + sets, sets), "set 0 of xa"),
                ((sets + [empty], sets), "set 3 of xa"),
                ((sets, [empty] + sets), "set 0 of xb"),
                ((sets, sets + [empty]), "set 3 of xb")):
            with pytest.raises(ValueError, match=f"^{msg} has no rows$"):
                list_kernel(a, b, 0.5, rows_of(np.ones((len(a), len(b)))))

    def test_never_above_one(self):
        # Rounding in the augmented product can leave a zero distance
        # slightly negative; the clip keeps every value at most 1.
        x = np.random.default_rng(0).normal(size=(8, 5)) * 3
        o = np.arange(9)
        assert set_kernel(x, o, x, o, 0.7).max() <= 1.0

    def test_first_empty_set_named(self):
        # A one-row set before it is not empty.
        one, empty = np.ones((1, 2)), np.zeros((0, 2))
        with pytest.raises(ValueError, match="^set 1 of xa has no rows$"):
            list_kernel([one, empty], [one], 0.5)


class TestComplementarity:
    def test_mmd_separates_equal_mean_different_spread(self):
        v = np.zeros(4)
        v[0] = 1.0
        s1 = np.stack([v, -v])
        s2 = np.stack([3 * v, -3 * v])
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
            d = np.linalg.norm(mean_pool(base) - mean_pool(moved))
            assert d == pytest.approx(t * np.linalg.norm(u) / 6, rel=1e-12)
            diffs.append(d)
        assert diffs[1] == pytest.approx(2 * diffs[0], rel=1e-12)
        assert diffs[2] == pytest.approx(2 * diffs[1], rel=1e-12)


class TestMedianHeuristic:
    def test_exhaustive_hand_value(self):
        # points 0, 1, 3 on a line: squared gaps {1, 9, 4}, median 4
        assert median_heuristic(np.array([[0.0], [1.0], [3.0]])) \
            == pytest.approx(0.25)

    def test_constant_points_fallback(self):
        assert median_heuristic(np.ones((4, 2))) == 1.0
        assert median_heuristic(np.array([[2.0, 5.0]])) == 1.0  # no pairs

    def test_every_pair_up_to_the_cap(self, monkeypatch):
        # n (n - 1) / 2 pairs up to SAMPLE_CAP use every pair, more are
        # sampled.  Eighths keep the arithmetic exact, and most squared
        # distances below 1; two rows are the fewest that have a pair.
        x = np.random.default_rng(0).integers(-4, 5, size=(6, 2)) * 0.125
        d = ((x[:, None] - x[None]) ** 2).sum(axis=2)[np.triu_indices(6, 1)]
        every = 1.0 / float(np.median(d))
        for cap, want_every in ((15, True), (14, False)):
            draw = np.random.default_rng(2)
            i = draw.integers(0, 6, size=cap)
            j = draw.integers(0, 5, size=cap)
            diff = x[i] - x[np.where(j >= i, j + 1, j)]
            sampled = 1.0 / float(np.median(np.sum(diff * diff, axis=1)))
            assert sampled != every
            monkeypatch.setattr(pooling, "SAMPLE_CAP", cap)
            got = median_heuristic(x, rng=np.random.default_rng(2))
            assert got == (every if want_every else sampled)
        assert median_heuristic(x[:2]) == 1.0 / d[0]

    def test_sampled_path_deterministic(self, monkeypatch):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((60, 3))
        exhaustive = median_heuristic(x)
        monkeypatch.setattr(pooling, "SAMPLE_CAP", 100)
        g1 = median_heuristic(x, rng=np.random.default_rng(1))
        g2 = median_heuristic(x, rng=np.random.default_rng(1))
        assert g1 == g2
        assert g1 == pytest.approx(exhaustive, rel=0.5)

    def test_sampled_blocks_bit_equal_to_oracle(self, monkeypatch):
        # 1,830 distinct pairs > 1,000 sampled: the pairs come in blocks
        # of BLOCK_ROWS, and each pair's arithmetic is unchanged.
        rng = np.random.default_rng(16)
        sets = make_sets(rng, 9, 5, min_n=4, max_n=12)
        x = np.concatenate(sets)
        n, cap = x.shape[0], 1000
        assert n * (n - 1) // 2 > cap
        draw = np.random.default_rng(17)
        i = draw.integers(0, n, size=cap)
        j = draw.integers(0, n - 1, size=cap)
        j = np.where(j >= i, j + 1, j)
        diff = x[i] - x[j]
        want = 1.0 / float(np.median(np.sum(diff * diff, axis=1)))
        monkeypatch.setattr(pooling, "SAMPLE_CAP", cap)
        for rows in (7, 800, 5000):
            monkeypatch.setattr(encoder, "BLOCK_ROWS", rows)
            assert median_heuristic(x, rng=np.random.default_rng(17)) == want

    @pytest.mark.parametrize("n", [150, 1_501, 7_500])
    def test_sampled_draws_equal_int64_draws(self, n, monkeypatch):
        # The sample indices: the same values and the same generator
        # state after as int64 draws.
        x = np.random.default_rng(n).standard_normal((n, 3))
        monkeypatch.setattr(pooling, "SAMPLE_CAP", 3_000)
        for seed in range(5):
            ref = np.random.default_rng(seed)
            i = ref.integers(0, n, size=3_000, dtype=np.int64)
            j = ref.integers(0, n - 1, size=3_000, dtype=np.int64)
            diff = x[i] - x[np.where(j >= i, j + 1, j)]
            want = 1.0 / float(np.median(np.sum(diff * diff, axis=1)))
            rng = np.random.default_rng(seed)
            got = median_heuristic(x, rng=rng)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state


class TestNystrom:
    def test_cutoff_relative_to_the_largest_eigenvalue(self):
        # Two landmark sets of `rows` rows 100 apart, the second shifted by
        # eps: eigenvalues (1 +- exp(-eps**2)) / rows.  The small one stays
        # only above EIGEN_CUTOFF times the large one (2e-8, then 6.7e-9).
        for rows, eps2, rank in ((1, 1.5e-8, 1), (3, 2.5e-8, 2)):
            a = 100.0 * np.arange(rows)[:, None]
            x = np.concatenate([a, a + np.sqrt(eps2)])
            nmap = nystrom_fit(x, np.array([0, rows, 2 * rows]), 1.0)
            assert nmap.rank == rank

    def test_factor_columns_lead_positive(self):
        # eigh's signs are arbitrary; each column's largest entry is made
        # positive, whatever sign it came with.
        land = make_sets(np.random.default_rng(7), 6, 3)
        raw = np.linalg.eigh(list_kernel(land, land, 0.5))[1]
        assert (raw[np.argmax(np.abs(raw), axis=0), range(6)] < 0).any()
        f = nystrom_fit(*pack(land), 0.5).factor
        assert (f[np.argmax(np.abs(f), axis=0), range(f.shape[1])] > 0).all()

    def test_factor_whitens_landmark_kernel(self):
        rng = np.random.default_rng(7)
        land = make_sets(rng, 6, 3)
        nmap = nystrom_fit(*pack(land), 0.5)
        k = list_kernel(land, land, 0.5)
        ident = nmap.factor.T @ k @ nmap.factor
        np.testing.assert_allclose(ident, np.eye(nmap.rank), atol=1e-8)

    def test_full_landmarks_reconstruct_gram(self):
        rng = np.random.default_rng(8)
        sets = make_sets(rng, 10, 4)
        k = list_kernel(sets, sets, 0.3)
        h = mmd_pool_batch(*pack(sets), nystrom_fit(*pack(sets), 0.3))
        assert np.max(np.abs(k - h @ h.T)) <= 1e-6

    def test_subset_matches_dense_reconstruction(self):
        rng = np.random.default_rng(9)
        sets = make_sets(rng, 12, 4)
        land = sets[:5]
        nmap = nystrom_fit(*pack(land), 0.4)
        h = mmd_pool_batch(*pack(sets), nmap)
        kgb = list_kernel(sets, land, 0.4)
        kbb = list_kernel(land, land, 0.4)
        dense = kgb @ np.linalg.pinv(kbb) @ kgb.T
        assert np.max(np.abs(h @ h.T - dense)) <= 1e-8

    def test_fixed_rank_pads_with_zeros(self):
        rng = np.random.default_rng(10)
        a = make_sets(rng, 1, 3)[0]
        other = make_sets(rng, 1, 3)[0]
        # duplicate landmark: kernel matrix rank 2 at most
        nmap = nystrom_fit(*pack([a, a.copy(), other]), 0.5, rank=3)
        assert nmap.factor.shape == (3, 3)
        assert np.all(nmap.factor[:, 2] == 0.0)

    def test_deterministic_orientation(self):
        rng = np.random.default_rng(11)
        land = make_sets(rng, 5, 3)
        f1 = nystrom_fit(*pack(land), 0.6).factor
        f2 = nystrom_fit(*pack(land), 0.6).factor
        np.testing.assert_array_equal(f1, f2)

    def test_pool_single_matches_batch(self):
        rng = np.random.default_rng(12)
        sets = make_sets(rng, 4, 3)
        nmap = nystrom_fit(*pack(sets[:2]), 0.5)
        batch = mmd_pool_batch(*pack(sets), nmap)
        for i, s in enumerate(sets):
            np.testing.assert_allclose(mmd_pool_batch(*pack([s]), nmap)[0],
                                       batch[i])

    def test_fit_holds_one_block_kernel_at_a_time(self):
        # The BENCH landmark shape: 21 sets of 50 rows, d = 32; blocks of
        # BLOCK_ROWS rows against all 1,050 landmark rows.
        rng = np.random.default_rng(16)
        land = pack([rng.standard_normal((50, 32)) for _ in range(21)])
        block_rows = encoder.blocks(np.full(21, 50))[0][1] * 50
        one_block = block_rows * 21 * 50 * 8
        tracemalloc.start()
        try:
            nystrom_fit(*land, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * one_block

    def test_config_validation(self):
        rng = np.random.default_rng(15)
        land = pack(make_sets(rng, 3, 2))
        for gamma in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="gamma must be positive"):
                nystrom_fit(*land, gamma)


class TestKernelGrads:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        sets_a = make_sets(rng, 2, 3, min_n=2, max_n=4)
        sets_b = make_sets(rng, 3, 3, min_n=2, max_n=4)
        gamma = 0.8

        def objective(va, vb, coeffs):
            return float(np.sum(coeffs * list_kernel(va, vb, gamma)))

        (xa, oa), (xb, ob) = pack(sets_a), pack(sets_b)
        h = 1e-6
        for coeffs in (rng.standard_normal((2, 3)),
                       rng.standard_normal((2, 3))):
            k, ga, gb = set_kernel(xa, oa, xb, ob, gamma, rows_of(coeffs))
            assert np.array_equal(k, list_kernel(sets_a, sets_b, gamma))
            assert ga.shape == xa.shape and gb.shape == xb.shape
            for side, sets, grads in (("a", sets_a, np.split(ga, oa[1:-1])),
                                      ("b", sets_b, np.split(gb, ob[1:-1]))):
                for i, s in enumerate(sets):
                    for pos in np.ndindex(*s.shape):
                        va = [x.copy() for x in sets_a]
                        vb = [x.copy() for x in sets_b]
                        tgt = va if side == "a" else vb
                        tgt[i][pos] += h
                        up = objective(va, vb, coeffs)
                        tgt[i][pos] -= 2 * h
                        down = objective(va, vb, coeffs)
                        fd = (up - down) / (2 * h)
                        assert grads[i][pos] == pytest.approx(fd, abs=5e-6)

    def test_blocks_match_one_block(self, monkeypatch):
        # BLOCK_ROWS = 12 splits sets_a (sizes 2..5 and one of 15 rows,
        # larger than the constant) into several blocks.
        rng = np.random.default_rng(18)
        sets_a = make_sets(rng, 7, 3, min_n=2, max_n=5)
        sets_a.insert(3, rng.standard_normal((15, 3)))
        sets_b = make_sets(rng, 4, 3, min_n=1, max_n=6)
        coeffs = rng.standard_normal((len(sets_a), len(sets_b)))
        gamma = 0.6
        k1, ga1, gb1 = list_kernel(sets_a, sets_b, gamma, rows_of(coeffs))
        monkeypatch.setattr(encoder, "BLOCK_ROWS", 12)
        spans = encoder.blocks([len(s) for s in sets_a])
        assert len(spans) >= 3 and (3, 4) in spans
        k, ga, gb = list_kernel(sets_a, sets_b, gamma, rows_of(coeffs))
        assert np.array_equal(k, list_kernel(sets_a, sets_b, gamma))
        np.testing.assert_allclose(k, k1, rtol=0, atol=1e-12)
        for i, a in enumerate(sets_a):
            for j, b in enumerate(sets_b):
                assert k[i, j] == pytest.approx(brute_set_kernel(a, b, gamma),
                                                abs=1e-12)
        for got, want in ((ga, ga1), (gb, gb1)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        # Blocks on both sides: sets_a against itself.
        kaa = list_kernel(sets_a, sets_a, gamma)
        for i, j in ((0, 3), (3, 7), (1, 6)):
            assert (kaa[i, i] + kaa[j, j] - 2.0 * kaa[i, j]) == pytest.approx(
                mmd_squared(sets_a[i], sets_a[j], gamma), abs=1e-12)


class TestGramProperties:
    def test_gram_symmetric_psd(self):
        rng = np.random.default_rng(21)
        sets = make_sets(rng, 8, 4, min_n=1, max_n=6)
        k = list_kernel(sets, sets, gamma=0.7)
        np.testing.assert_allclose(k, k.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(k)
        assert float(eigs.min()) >= -1e-9

    def test_mmd_pool_row_permutation_invariant(self):
        rng = np.random.default_rng(22)
        sets = make_sets(rng, 4, 3, min_n=3, max_n=6)
        nmap = nystrom_fit(*pack(sets), 0.5)
        target = sets[1]
        base = mmd_pool_batch(*pack([target]), nmap)[0]
        shuffled = target[rng.permutation(len(target))]
        np.testing.assert_allclose(mmd_pool_batch(*pack([shuffled]), nmap)[0],
                                   base, atol=1e-12)

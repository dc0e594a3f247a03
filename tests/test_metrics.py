"""Rank statistics against direct pair counting and sign enumeration."""

import itertools
import math

import numpy as np
import pytest

from glad.errors import MethodError
from glad.metrics import (EXACT_WILCOXON_MAX_N, midrank, roc_auc,
                          wilcoxon_one_sided)


def auc_by_pair_counting(scores, flags):
    """Independent route: concordant (anomalous, normal) pairs, ties 0.5."""
    pos = [s for s, f in zip(scores, flags) if f]
    neg = [s for s, f in zip(scores, flags) if not f]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def midrank_by_counting(values):
    """rank_i = #{v_j < v_i} + (#{v_j == v_i} + 1) / 2."""
    values = list(values)
    out = []
    for v in values:
        less = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        out.append(less + (equal + 1) / 2.0)
    return np.array(out)


def wilcoxon_by_enumeration(x, y):
    """Every sign assignment over the nonzero differences' midranks."""
    d = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    d = d[d != 0.0]
    ranks = midrank_by_counting(np.abs(d))
    w_obs = float(ranks[d > 0.0].sum())
    hits = 0
    for signs in itertools.product((0.0, 1.0), repeat=d.size):
        if float(np.dot(signs, ranks)) >= w_obs - 1e-9:
            hits += 1
    return w_obs, hits / 2 ** d.size


def wilcoxon_by_rank_variance(x, y):
    """Normal tail with continuity correction, from the midranks r of |d|:
    under sign flips W+ has mean sum(r) / 2 and variance sum(r**2) / 4."""
    d = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    d = d[d != 0.0]
    ranks = midrank_by_counting(np.abs(d))
    w_obs = float(ranks[d > 0.0].sum())
    z = ((w_obs - ranks.sum() / 2.0 - 0.5)
         / math.sqrt(float(np.sum(ranks ** 2)) / 4.0))
    return w_obs, 0.5 * math.erfc(z / math.sqrt(2.0))


class TestMidrank:
    def test_hand_values(self):
        np.testing.assert_array_equal(midrank([10.0, 20.0, 20.0, 30.0]),
                                      [1.0, 2.5, 2.5, 4.0])
        np.testing.assert_array_equal(midrank([3.0, 1.0, 2.0]),
                                      [3.0, 1.0, 2.0])
        np.testing.assert_array_equal(midrank([5.0, 5.0, 5.0]),
                                      [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(midrank([1.0, np.nan]), [1.0, 2.0])

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.integers(0, 5, size=rng.integers(1, 15)).astype(float)
            np.testing.assert_array_equal(midrank(x), midrank_by_counting(x))


class TestRocAuc:
    def test_hand_value(self):
        # concordant pairs: 3 of 4
        got = roc_auc([0.1, 0.4, 0.35, 0.8], [False, False, True, True])
        assert got == 0.75

    def test_perfect_and_inverted(self):
        flags = [False, False, True, True]
        assert roc_auc([0.0, 0.1, 0.9, 1.0], flags) == 1.0
        assert roc_auc([1.0, 0.9, 0.1, 0.0], flags) == 0.0
        assert roc_auc([0.5, 0.5, 0.5, 0.5], flags) == 0.5

    def test_matches_pair_counting_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(4, 30))
            scores = rng.integers(0, 6, size=n).astype(float)  # many ties
            flags = rng.random(n) < 0.4
            if flags.all() or not flags.any():
                flags[0] = ~flags[0]
            assert roc_auc(scores, flags) == auc_by_pair_counting(scores,
                                                                  flags)

    def test_complement(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=30)
        flags = rng.random(30) < 0.3
        flags[0] = True
        flags[1] = False
        assert roc_auc(scores, flags) + roc_auc(-scores, flags) \
            == pytest.approx(1.0)

    def test_errors(self):
        with pytest.raises(MethodError):
            roc_auc([1.0, 2.0], [True, True])
        with pytest.raises(ValueError):
            roc_auc([1.0, 2.0], [True, False, True])


class TestWilcoxonExact:
    def test_all_positive_distinct(self):
        # W+ = 21 is reachable only by the all-positive assignment
        x = np.zeros(6)
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        w, p = wilcoxon_one_sided(x, y)
        assert w == 21.0
        assert p == pytest.approx(1.0 / 64.0)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(5, 11))
            x = rng.integers(0, 4, size=n).astype(float)
            y = x + rng.integers(-2, 3, size=n).astype(float)
            w_got, p_got = wilcoxon_one_sided(x, y)
            if np.all(y - x == 0.0):
                assert (w_got, p_got) == (0.0, 1.0)
                continue
            w_want, p_want = wilcoxon_by_enumeration(x, y)
            assert w_got == w_want
            assert p_got == pytest.approx(p_want, abs=1e-12)

    def test_zero_differences_dropped(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        y = np.array([1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 8.0])  # two zeros
        w, p = wilcoxon_one_sided(x, y)
        w2, p2 = wilcoxon_one_sided(x[2:], y[2:])
        assert (w, p) == (w2, p2)

    def test_all_zero(self):
        v = np.arange(8.0)
        assert wilcoxon_one_sided(v, v) == (0.0, 1.0)

    def test_one_nonzero_difference(self):
        v = np.arange(8.0)
        assert wilcoxon_one_sided(v, v + (v == 3)) == (1.0, 0.5)
        assert wilcoxon_one_sided(v, v - (v == 3)) == (0.0, 1.0)

    def test_exact_up_to_twelve_pairs(self):
        # 12 nonzero differences are counted exactly, 13 approximated.
        rng = np.random.default_rng(10)
        for n, oracle in ((12, wilcoxon_by_enumeration),
                          (13, wilcoxon_by_rank_variance)):
            x = rng.normal(size=n)
            y = x + rng.normal(loc=0.3, size=n)
            w_got, p_got = wilcoxon_one_sided(x, y)
            w_want, p_want = oracle(x, y)
            assert w_got == w_want
            assert p_got == pytest.approx(p_want, rel=1e-12, abs=0.0)

    def test_too_few_pairs(self):
        with pytest.raises(MethodError, match="at least 5"):
            wilcoxon_one_sided([1.0] * 4, [2.0] * 4)
        # One y would broadcast against six x.
        with pytest.raises(ValueError, match="equal-length"):
            wilcoxon_one_sided([1.0] * 6, [2.0])


class TestWilcoxonApprox:
    def test_strong_effect_small_p(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=60)
        _, p = wilcoxon_one_sided(x, x + 1.0)
        assert p < 1e-8

    def test_null_is_centered(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=80)
        y = x + rng.normal(size=80)  # symmetric differences
        _, p = wilcoxon_one_sided(x, y)
        assert 0.05 < p < 0.95

    def test_wrong_direction_large_p(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=40)
        _, p = wilcoxon_one_sided(x, x - 1.0)
        assert p > 1 - 1e-8

    def test_matches_rank_variance_oracle(self):
        # Past the enumeration cutoff, with distinct and with tied |d|.
        rng = np.random.default_rng(8)
        for n in range(EXACT_WILCOXON_MAX_N + 1, 41):
            x = rng.normal(size=n)
            whole = np.floor(4.0 * x)  # integral, so tied |d| stay tied
            steps = rng.choice([-2.0, -1.0, 1.0, 2.0, 3.0], size=n)
            for a, b in ((x, x + rng.normal(loc=0.3, size=n)),
                         (whole, whole + steps)):
                w_got, p_got = wilcoxon_one_sided(a, b)
                w_want, p_want = wilcoxon_by_rank_variance(a, b)
                assert w_got == w_want
                assert p_got == pytest.approx(p_want, rel=1e-12, abs=0.0)

    def test_close_to_exact_at_threshold(self):
        # n just above the enumeration cutoff: the corrected normal
        # approximation should sit near the exact tail probability
        rng = np.random.default_rng(7)
        n = EXACT_WILCOXON_MAX_N + 1
        x = rng.normal(size=n)
        y = x + rng.normal(loc=0.4, size=n)
        _, p_approx = wilcoxon_one_sided(x, y)
        _, p_exact = wilcoxon_by_enumeration(x, y)
        assert p_approx == pytest.approx(p_exact, abs=0.03)


class TestAucInvariance:
    def test_increasing_transform(self):
        rng = np.random.default_rng(9)
        scores = rng.normal(size=40)
        flags = rng.random(40) < 0.3
        flags[:2] = [True, False]
        base = roc_auc(scores, flags)
        assert roc_auc(np.exp(scores), flags) == base
        assert roc_auc(3.0 * scores + 11.0, flags) == base

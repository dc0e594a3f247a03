"""Parameter containers, SGD, and the finite-difference test oracle."""

import numpy as np
import pytest
from conftest import finite_diff_grad, flatten

from glad.numkit import ParamSet, Workspace, init_params, sgd_step


class TestInitParams:
    def test_shapes(self):
        p = init_params(d_in=3, d_hidden=5, n_layers=2, seed=0)
        assert p.layers[0][0].shape == (3, 5)
        assert p.layers[0][1].shape == (5, 5)
        assert p.layers[1][0].shape == (5, 5)
        assert p.n_layers == 2
        assert flatten(p).size == 15 + 25 + 25 + 25

    def test_glorot_bounds(self):
        p = init_params(d_in=4, d_hidden=6, n_layers=1, seed=1)
        w1, w2 = p.layers[0]
        assert np.max(np.abs(w1)) <= np.sqrt(6.0 / (4 + 6))
        assert np.max(np.abs(w2)) <= np.sqrt(6.0 / 12)

    def test_deterministic(self):
        a = init_params(3, 4, 2, seed=7)
        b = init_params(3, 4, 2, seed=7)
        for (x1, x2), (y1, y2) in zip(a.layers, b.layers):
            np.testing.assert_array_equal(x1, y1)
            np.testing.assert_array_equal(x2, y2)

    def test_validation(self):
        with pytest.raises(ValueError):
            init_params(0, 4, 1, seed=0)
        with pytest.raises(ValueError, match="at least one layer"):
            ParamSet(layers=[], d_in=2, d_hidden=3)
        with pytest.raises(ValueError, match="w1 shape"):
            ParamSet(layers=[(np.zeros((9, 3)), np.zeros((3, 3)))],
                     d_in=2, d_hidden=3)
        with pytest.raises(ValueError, match="w2 shape"):
            ParamSet(layers=[(np.zeros((2, 3)), np.zeros((3, 1)))],
                     d_in=2, d_hidden=3)


class TestSgdStep:
    def test_coupled_decay_formula(self):
        p = init_params(2, 3, 1, seed=0)
        g = p.zeros_like()
        g.layers[0][0][:] = 0.5
        g.layers[0][1][:] = -1.0
        lr, wd = 0.1, 0.01
        q = sgd_step(p, g, lr, wd)
        for (w1, w2), (n1, n2) in zip(p.layers, q.layers):
            np.testing.assert_allclose(n1, w1 - lr * (0.5 + wd * w1))
            np.testing.assert_allclose(n2, w2 - lr * (-1.0 + wd * w2))

    def test_zero_lr_identity(self):
        p = init_params(2, 3, 1, seed=0)
        g = p.zeros_like()
        q = sgd_step(p, g, 0.0, 0.5)
        np.testing.assert_array_equal(q.layers[0][0], p.layers[0][0])

    def test_shape_mismatch(self):
        p = init_params(2, 3, 2, seed=0)
        g = init_params(2, 3, 1, seed=0).zeros_like()
        with pytest.raises(ValueError, match="layer count"):
            sgd_step(p, g, 0.1, 0.0)
        # A (1, 3) gradient would broadcast over a (2, 3) weight.
        g = init_params(1, 3, 2, seed=0).zeros_like()
        with pytest.raises(ValueError, match="shape mismatch"):
            sgd_step(p, g, 0.1, 0.0)


class TestWorkspace:
    def test_grown_buffer_serves_fresh_views(self):
        ws = Workspace()
        small = ws("x", (2, 3))
        ws("x", (4, 3))  # grows the buffer
        again = ws("x", (2, 3))
        assert np.shares_memory(again, ws.bufs["x"])
        assert not np.shares_memory(again, small)


class TestFiniteDiff:
    def test_linear_loss_exact(self):
        p = init_params(2, 3, 1, seed=3)
        coef = [np.arange(6).reshape(2, 3) + 1.0,
                np.arange(9).reshape(3, 3) - 4.0]

        def loss(q):
            return float(np.sum(coef[0] * q.layers[0][0])
                         + np.sum(coef[1] * q.layers[0][1]))

        fd = finite_diff_grad(loss, p, h=1e-5)
        np.testing.assert_allclose(fd.layers[0][0], coef[0], rtol=1e-7)
        np.testing.assert_allclose(fd.layers[0][1], coef[1], rtol=1e-7)

    def test_quadratic_subset_indices(self):
        p = init_params(2, 2, 1, seed=4)

        def loss(q):
            return float(np.sum(q.layers[0][0] ** 2))

        idx = [0, 3]
        fd = finite_diff_grad(loss, p, indices=idx)
        flat = flatten(fd)
        expect = 2.0 * flatten(p)
        for i in idx:
            assert abs(flat[i] - expect[i]) < 1e-8
        untouched = [i for i in range(flat.size) if i not in idx]
        assert np.all(flat[untouched] == 0.0)

    def test_does_not_mutate(self):
        p = init_params(2, 2, 1, seed=5)
        before = flatten(p)
        finite_diff_grad(lambda q: float(q.layers[0][0].sum()), p)
        np.testing.assert_array_equal(flatten(p), before)


class TestDescent:
    def test_sgd_descends_convex_quadratic(self):
        # f(params) = 0.5 * sum(w^2): gradient equals the weights
        params = init_params(3, 4, 2, seed=7)

        def f(p):
            return 0.5 * p.sq_norm()

        grads = params.zeros_like()
        for (g1, g2), (w1, w2) in zip(grads.layers, params.layers):
            g1 += w1
            g2 += w2
        stepped = sgd_step(params, grads, lr=0.1, weight_decay=0.0)
        assert f(stepped) < f(params)

"""Message-passing encoder: forward values, equivariance, backward,
blocks of stacked graphs."""

import numpy as np
import pytest
from conftest import embed_one, finite_diff_grad, flatten, where_encoder_step

from glad import encoder
from glad.data import (Graph, GraphDatabase, derive_features, generate_mixhop,
                       load_tu_dataset, write_tu_dataset)
from glad.encoder import backprop_block, blocks, embed_block
from glad.numkit import ParamSet, Workspace, init_params


def path_graph(weights=(1.0, 1.0), features=None):
    edges = tuple((i, i + 1, w) for i, w in enumerate(weights))
    return Graph(graph_id=0, node_count=len(weights) + 1, edges=edges,
                 features=features)


class TestForward:
    def test_hand_computed_single_layer(self):
        # two nodes joined by a weight-2 edge, d_in=2, d_hidden=2
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        g = Graph(graph_id=0, node_count=2, edges=((0, 1, 2.0),), features=x)
        w1 = np.array([[1.0, -1.0], [0.5, 1.0]])
        w2 = np.array([[2.0, 0.0], [1.0, 1.0]])
        params = ParamSet(layers=[(w1, w2)], d_in=2, d_hidden=2)
        # messages: node0 = x0 + 2*x1 = (1, 2); node1 = x1 + 2*x0 = (2, 1)
        msg = np.array([[1.0, 2.0], [2.0, 1.0]])
        hidden = np.maximum(msg @ w1, 0.0)
        expected = hidden @ w2
        out = embed_block([g], params)
        assert out.shape == (1, 2, 2)
        np.testing.assert_allclose(out[0], expected, atol=1e-12)

    def test_gin0_hand_values(self):
        x = np.array([[1.0], [2.0], [4.0]])
        g = path_graph(weights=(1.0, 3.0), features=x)
        params = ParamSet(layers=[(np.eye(1), np.eye(1))], d_in=1,
                          d_hidden=1)
        # h + A h; node1 sees node0 (w=1) and node2 (w=3)
        np.testing.assert_array_equal(embed_block([g], params)[0, :, 0],
                                      [1 + 2, 2 + 1 + 12, 4 + 6])

    def test_isolated_node_keeps_own_features(self):
        x = np.array([[3.0, 1.0]])
        g = Graph(graph_id=0, node_count=1, edges=(), features=x)
        params = init_params(2, 4, 1, seed=0)
        w1, w2 = params.layers[0]
        expected = np.maximum(x @ w1, 0.0) @ w2
        np.testing.assert_allclose(embed_one(g, params), expected)

    def test_output_is_last_layer_only(self):
        db = generate_mixhop(1, 10, 2, 0.5, 3, seed=0)
        db = derive_features(db, "one_hot_label")
        params = init_params(db.d_in, 7, 3, seed=1)
        out = embed_one(db.graphs[0], params)
        assert out.shape == (10, 7)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        db = generate_mixhop(1, 12, 2, 0.5, 3, seed=3)
        db = derive_features(db, "one_hot_label")
        g = db.graphs[0]
        perm = rng.permutation(g.node_count)
        inv = np.argsort(perm)
        # relabel: node v -> perm[v]
        edges = tuple(sorted(
            (min(perm[u], perm[v]), max(perm[u], perm[v]), w)
            for u, v, w in g.edges))
        h = Graph(graph_id=1, node_count=g.node_count, edges=edges,
                  features=g.features[inv])
        params = init_params(db.d_in, 5, 2, seed=4)
        out_g = embed_one(g, params)
        out_h = embed_one(h, params)
        np.testing.assert_allclose(out_h, out_g[inv], atol=1e-10)

    def test_errors(self):
        g = Graph(graph_id=0, node_count=1, edges=())
        params = init_params(2, 3, 1, seed=0)
        with pytest.raises(ValueError, match="no derived features"):
            embed_block([g], params)
        g2 = Graph(graph_id=0, node_count=1, edges=(),
                   features=np.ones((1, 5)))
        with pytest.raises(ValueError, match="d_in"):
            embed_block([g2], params)


class TestBackward:
    def test_matches_finite_differences(self):
        db = generate_mixhop(1, 9, 2, 0.6, 3, seed=6)
        db = derive_features(db, "one_hot_label")
        g = db.graphs[0]
        params = init_params(db.d_in, 5, 2, seed=7)
        rng = np.random.default_rng(8)
        r = rng.standard_normal((9, 5))

        def loss(p):
            return float(np.sum(embed_block([g], p)[0] * r))

        grads = params.zeros_like()
        _, cache = embed_block([g], params, with_cache=True)
        backprop_block(params, cache, r[None], grads)
        fd = finite_diff_grad(loss, params, h=1e-6)
        np.testing.assert_allclose(flatten(grads), flatten(fd),
                                   rtol=1e-5, atol=1e-7)

    def test_accumulates_across_graphs(self):
        db = generate_mixhop(2, 8, 2, 0.6, 3, seed=10)
        db = derive_features(db, "one_hot_label")
        params = init_params(db.d_in, 4, 1, seed=11)
        d_out = [np.ones((1, 8, 4)), 2.0 * np.ones((1, 8, 4))]
        both = params.zeros_like()
        singles = []
        for g, d in zip(db.graphs, d_out):
            _, cache = embed_block([g], params, with_cache=True)
            backprop_block(params, cache, d, both)
            solo = params.zeros_like()
            backprop_block(params, cache, d, solo)
            singles.append(solo)
        np.testing.assert_allclose(
            flatten(both), flatten(singles[0]) + flatten(singles[1]))


class TestLocality:
    def test_receptive_field_grows_with_depth(self):
        # path 0-1-2-3-4: after L layers a feature bump at node 0 may only
        # reach nodes within graph distance L
        n = 5
        edges = tuple((i, i + 1, 1.0) for i in range(n - 1))
        feats = np.eye(n, 3, dtype=float)
        for n_layers in (1, 2):
            params = init_params(3, 4, n_layers, seed=11)
            g0 = Graph(graph_id=0, node_count=n, edges=edges, features=feats)
            bumped = feats.copy()
            bumped[0] += 0.7
            g1 = Graph(graph_id=1, node_count=n, edges=edges, features=bumped)
            delta = np.abs(embed_one(g1, params)
                           - embed_one(g0, params))
            changed = np.any(delta > 1e-12, axis=1)
            assert not changed[n_layers + 1:].any()
            assert changed[0]


class TestBlocks:
    def test_block_rule(self, monkeypatch):
        monkeypatch.setattr(encoder, "BLOCK_ROWS", 20)
        # 4 x 5 rows fit; a 6th-row graph widens the block to 4 x 6 > 20
        assert blocks([5, 5, 5, 5, 6, 2]) == [(0, 4), (4, 6)]
        # a graph larger than the constant forms a block of its own
        assert blocks([3, 25, 3, 3]) == [(0, 1), (1, 2), (2, 4)]
        assert blocks([30]) == [(0, 1)]
        assert blocks([]) == []

    @staticmethod
    def _ragged():
        """Graphs of 1, 7 and 20 nodes with non-one-hot features."""
        rng = np.random.default_rng(21)
        graphs = [Graph(graph_id=0, node_count=1, edges=(),
                        features=rng.uniform(0, 1, (1, 3)))]
        for gid, n in ((1, 7), (2, 20)):
            g = derive_features(generate_mixhop(1, n, 2, 0.6, 3, seed=gid),
                                "one_hot_label",
                                label_alphabet=[0, 1, 2]).graphs[0]
            graphs.append(Graph(graph_id=gid, node_count=n, edges=g.edges,
                                features=g.features
                                + rng.uniform(0, 0.5, (n, 3))))
        return graphs

    def test_stack_equals_hand_built_adjacency(self, tmp_path):
        # One block: an edgeless 1-node graph, graphs of 7 and 20 nodes,
        # and weighted graphs of 4 and 3 nodes read back from disk, whose
        # edges are slices of one array.
        rng = np.random.default_rng(27)
        on_disk = GraphDatabase(graphs=(
            Graph(graph_id=0, node_count=4,
                  edges=((0, 1, 0.25), (1, 2, 3.0), (2, 3, 1.5)),
                  node_attributes=rng.uniform(0, 1, (4, 3))),
            Graph(graph_id=1, node_count=3, edges=((0, 2, 1e-3),),
                  node_attributes=rng.uniform(0, 1, (3, 3)))))
        write_tu_dataset(on_disk, tmp_path, "W")
        loaded = derive_features(load_tu_dataset(tmp_path), "attributes")
        a, b = (g.edges for g in loaded.graphs)
        assert a.base is not None and a.base is b.base
        graphs = [*self._ragged(), *loaded.graphs]
        params = init_params(3, 2, 1, seed=28)
        _, (stack, _) = embed_block(graphs, params, with_cache=True)
        want = np.zeros((len(graphs), 20, 20))
        for k, g in enumerate(graphs):
            for u, v, w in g.edges:
                want[k, u, v] = want[k, v, u] = w
        assert stack.tobytes() == want.tobytes()
        assert want[3, 1, 0] == 0.25 and want[4, 2, 0] == 1e-3
        # A block without a single edge, in a workspace that held one.
        ws = Workspace()
        embed_block(graphs, params, with_cache=True, ws=ws)
        edgeless = [graphs[0], Graph(graph_id=5, node_count=2, edges=(),
                                     features=np.ones((2, 3)))]
        h, (stack, _) = embed_block(edgeless, params, with_cache=True, ws=ws)
        assert stack.shape == (2, 2, 2) and not stack.any()
        assert h.tobytes() == embed_block(edgeless, params).tobytes()

    def test_ragged_block_matches_one_graph_blocks(self):
        graphs = self._ragged()
        params = init_params(3, 5, 2, seed=22)
        h = embed_block(graphs, params)
        assert h.shape == (3, 20, 5)
        for b, g in enumerate(graphs):
            np.testing.assert_allclose(h[b, :g.node_count],
                                       embed_one(g, params),
                                       rtol=0, atol=1e-12)
            assert np.all(h[b, g.node_count:] == 0.0)

    def test_ragged_block_gradients_match_finite_differences(self):
        graphs = self._ragged()
        params = init_params(3, 5, 2, seed=23)
        r = np.random.default_rng(24).standard_normal((3, 20, 5))

        def loss(p):
            return float(np.sum(embed_block(graphs, p) * r))

        grads = params.zeros_like()
        _, cache = embed_block(graphs, params, with_cache=True)
        # r is non-zero on padded rows too: the ReLU mask must drop it
        backprop_block(params, cache, r, grads)
        fd = finite_diff_grad(loss, params, h=1e-6)
        np.testing.assert_allclose(flatten(grads), flatten(fd),
                                   rtol=1e-5, atol=1e-7)

    def test_bit_equal_to_where_reference(self):
        graphs = self._ragged()
        params = init_params(3, 5, 2, seed=25)
        # Zero columns make that hidden unit's pre-activation exactly +-0.
        for w1, _ in params.layers:
            w1[:, 1], w1[:, 3] = 0.0, -0.0
        d_out = np.random.default_rng(26).standard_normal((3, 20, 5))
        # Padded rows are masked in every unit: NaN and inf must not pass.
        d_out[0, 1:, :] = np.nan
        d_out[1, 7:, :] = [np.inf, -np.inf, np.nan, 1.0, -np.inf]
        h, cache = embed_block(graphs, params, with_cache=True)
        grads = params.zeros_like()
        with np.errstate(invalid="ignore"):
            backprop_block(params, cache, d_out, grads)
            ref_h, ref_layers, ref_grads = where_encoder_step(graphs, params,
                                                              d_out)
        assert h.tobytes() == ref_h.tobytes()
        for got, ref in zip(cache[1], ref_layers):
            assert [x.tobytes() for x in got] == [x.tobytes() for x in ref]
        for got, ref in zip(grads.layers, ref_grads.layers):
            assert [g.tobytes() for g in got] == [g.tobytes() for g in ref]
        # The last w2 gradient takes 0 * NaN from the padded rows (NaN on
        # both sides); no masked NaN may reach any other gradient.
        for g in (*grads.layers[0], grads.layers[1][0]):
            assert np.isfinite(g).all()

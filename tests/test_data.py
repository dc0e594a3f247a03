"""Graph model, disk format, feature derivation, splits, generator."""

import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from conftest import write_tu_reference

import glad.data
from glad.data import (DEFAULT_DEGREE_CAP, Graph, GraphDatabase, dataset_name,
                       derive_features, first_copies, generate_mixhop,
                       load_tu_dataset, make_split, write_tu_dataset)
from glad.encoder import embed_block
from glad.errors import FormatError, LoadError, SplitError
from glad.numkit import init_params


def assert_same_database(a, b):
    """Field for field, with Python types, weight bits and array dtypes."""
    def same_array(x, y):
        assert (x is None) == (y is None)
        if x is not None:
            assert (x.dtype, x.shape) == (y.dtype, y.shape)
            assert x.tobytes() == y.tobytes()

    assert len(a) == len(b)
    same_array(a.class_labels, b.class_labels)
    same_array(a.anomaly_flags, b.anomaly_flags)
    for g, h in zip(a.graphs, b.graphs):
        assert (g.graph_id, g.node_count) == (h.graph_id, h.node_count)
        assert [(type(u), u, type(v), v, type(w), np.float64(w).tobytes())
                for u, v, w in g.edges] == \
            [(type(u), u, type(v), v, type(w), np.float64(w).tobytes())
             for u, v, w in h.edges]
        for name in ("node_labels", "node_attributes", "features"):
            same_array(getattr(g, name), getattr(h, name))


def tri(gid=0, **kw):
    """Weighted triangle with one pendant node."""
    return Graph(graph_id=gid, node_count=4,
                 edges=((0, 1, 1.0), (0, 2, 2.0), (1, 2, 1.0), (2, 3, 0.5)),
                 **kw)


class TestGraph:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one node"):
            Graph(graph_id=0, node_count=0, edges=())
        with pytest.raises(ValueError, match="self loop"):
            Graph(graph_id=0, node_count=2, edges=((1, 1, 1.0),))
        with pytest.raises(ValueError, match="outside node range"):
            Graph(graph_id=0, node_count=2, edges=((0, 2, 1.0),))
        with pytest.raises(ValueError, match="u < v"):
            Graph(graph_id=0, node_count=2, edges=((1, 0, 1.0),))
        with pytest.raises(ValueError, match="duplicate"):
            Graph(graph_id=0, node_count=2, edges=((0, 1, 1.0), (0, 1, 2.0)))
        with pytest.raises(ValueError, match="weight"):
            Graph(graph_id=0, node_count=2, edges=((0, 1, 0.0),))
        with pytest.raises(ValueError, match="rows"):
            Graph(graph_id=0, node_count=2, edges=(),
                  node_labels=np.array([1, 2, 3]))
        with pytest.raises(ValueError, match="unique"):
            GraphDatabase(graphs=(Graph(graph_id=0, node_count=2, edges=()),
                                  Graph(graph_id=0, node_count=3, edges=())))
        one = (Graph(graph_id=0, node_count=2, edges=()),)
        for name in ("class_labels", "anomaly_flags"):
            with pytest.raises(ValueError, match=f"{name} length 2 != 1"):
                GraphDatabase(graphs=one, **{name: np.zeros(2, dtype=bool)})

    @pytest.mark.parametrize("edges, message", [
        (((0, 1, 1.0), (2, 2, 1.0), (0, 5, 1.0)), "self loop on node 2"),
        (((0, 1, 1.0), (0, 5, 1.0), (1, 1, 1.0)),
         "edge (0, 5) outside node range"),
        (((0, 2, 1.0), (2, 1, 1.0), (0, 2, 3.0), (1, 1, 1.0)),
         "edge (2, 1) not stored with u < v"),
        (((1, 2, 1.0), (0, 1, 0.5), (1, 2, 2.0), (0, 3, 0.0)),
         "duplicate edge (1, 2)"),
        (((0, 1, 1.0), (1, 3, -1.0), (0, 1, 1.0)),
         "edge (1, 3) has weight -1.0, not finite and > 0"),
        (((0, 1, 0.0), (2, 2, 1.0)),
         "edge (0, 1) has weight 0.0, not finite and > 0"),
        (((2, 3, math.nan), (3, 3, 1.0)),
         "edge (2, 3) has weight nan, not finite and > 0"),
        # one edge breaking several rules: the first rule in check order
        (((0, 1, 1.0), (7, 7, 0.0)), "self loop on node 7"),
        (((0, 1, 1.0), (5, 4, 0.0)), "edge (5, 4) outside node range"),
        (((-1, 2, 1.0), (0, 1, 1.0)), "edge (-1, 2) outside node range"),
        # a non-integral node id is not truncated: its rule comes first
        (((0, 1.5, 1.0),), "edge (0, 1.5) has a non-integral node id"),
        (((1, 1.5, 1.0),), "edge (1, 1.5) has a non-integral node id"),
        (((0, 1, 1.0), (2, 2, 1.0), (0.5, 3, 1.0)), "self loop on node 2"),
        (((0, 1, 1.0), (2.25, 3, 1.0), (1, 1, 1.0)),
         "edge (2.25, 3) has a non-integral node id"),
        # NaN and +-inf are not integral; past int64 is outside the range
        (((0, 1, 1.0), (0, math.nan, 1.0), (2, 2, 1.0)),
         "edge (0, nan) has a non-integral node id"),
        (((0, 1, 1.0), (-math.inf, 3, 1.0)),
         "edge (-inf, 3) has a non-integral node id"),
        (((0, 2**70, 1.0), (1, 1, 1.0)),
         "edge (0, 1180591620717411303424) outside node range"),
        (((3, 3, 1.0), (0, math.inf, 1.0), (2**64, 1.5, 1.0)),
         "self loop on node 3"),
        (((0, 1, 1.0), (2**64, 1.5, 1.0)),
         "edge (18446744073709551616, 1.5) has a non-integral node id"),
        # node ids run 0 .. node_count - 1
        (((0, 1, 1.0), (4, 0, 1.0)), "edge (4, 0) outside node range"),
        # int64 ends: the lowest id is read (its self loop comes first),
        # one past either end is not
        (((0, 1, 1.0), (-2**63, -2**63, 1.0)),
         "self loop on node -9223372036854775808"),
        (((0, 1, 1.0), (-2**64, 3, 1.0)),
         "edge (-18446744073709551616, 3) outside node range"),
        (((0, 2**63, 1.0), (1, 1, 1.0)),
         "edge (0, 9223372036854775808) outside node range"),
    ])
    def test_first_bad_edge_in_input_order_wins(self, edges, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Graph(graph_id=0, node_count=4, edges=edges)

    def test_edges_stored_sorted_as_one_array(self):
        g = Graph(graph_id=0, node_count=4,
                  edges=((2, 3, 0.5), (0, 2, 2.0), (0, 1, 1.0), (1, 2, 1.5)))
        assert g.edges.dtype == glad.data.EDGE_DTYPE
        assert g.edges.tolist() == [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 1.5),
                                    (2, 3, 0.5)]
        assert Graph(graph_id=1, node_count=4, edges=g.edges).edges.tolist() \
            == g.edges.tolist()
        assert Graph(graph_id=2, node_count=1, edges=()).edges.shape == (0,)
        # integral floats are node ids like any other
        assert Graph(graph_id=3, node_count=4,
                     edges=((0.0, 1.0, 1.0), (1, 3, 2))).edges.tolist() \
            == [(0, 1, 1.0), (1, 3, 2.0)]

    def test_duplicates_past_two_to_the_32_nodes(self):
        # (0, b) and (a, b) share the key u * n + v modulo 2**64 at n = 2**33
        a, b = 2**31, 2**31 + 5
        g = Graph(graph_id=0, node_count=2**33,
                  edges=((a, b, 1.0), (0, b, 2.0)))
        assert g.edges.tolist() == [(0, b, 2.0), (a, b, 1.0)]
        with pytest.raises(ValueError, match=rf"^duplicate edge \({a}, {b}\)$"):
            Graph(graph_id=0, node_count=2**33,
                  edges=((0, b, 1.0), (a, b, 1.0), (a, b, 3.0)))

    def test_non_finite_weight_rejected(self):
        for w in (math.inf, math.nan, -math.inf):
            with pytest.raises(ValueError, match="not finite and > 0"):
                Graph(graph_id=0, node_count=2, edges=((0, 1, w),))

    @pytest.mark.parametrize("field", ["node_attributes", "features"])
    def test_non_finite_node_rows_rejected(self, field):
        for bad in (math.nan, math.inf):
            rows = np.array([[1.0, 0.0], [0.5, bad], [2.0, 1.0]])
            with pytest.raises(ValueError,
                               match=f"graph 7: {field} row 1 is not finite"):
                Graph(graph_id=7, node_count=3, edges=(), **{field: rows})

    def test_adjacency_symmetric_weighted(self):
        # The encoder's cached stack is the only dense adjacency: the
        # triangle, then a 2-node graph padded to 4 rows.
        x = np.ones((4, 1))
        pair = Graph(graph_id=1, node_count=2, edges=((0, 1, 3.0),),
                     features=x[:2])
        _, (stack, _) = embed_block([tri(features=x), pair],
                                    init_params(1, 2, 1, seed=0),
                                    with_cache=True)
        assert stack.shape == (2, 4, 4)
        a = stack[0]
        np.testing.assert_array_equal(a, a.T)
        assert a[0, 2] == 2.0 and a[2, 3] == 0.5
        assert np.all(np.diag(a) == 0.0)
        assert stack[1, 0, 1] == stack[1, 1, 0] == 3.0
        stack[1, 0, 1] = stack[1, 1, 0] = 0.0
        assert not stack[1].any()  # padding rows and columns are 0

    def test_degrees_unweighted(self):
        g = tri()
        np.testing.assert_array_equal(g.degrees, [2, 2, 3, 1])
        assert len(g.edges) == 4

    def test_edge_array_checked_as_a_whole(self, monkeypatch):
        # An EDGE_DTYPE array skips the per-record id check.
        def per_record(edge):
            raise AssertionError("per-record check on an edge array")

        edges = tri().edges
        monkeypatch.setattr(glad.data, "_id_fault", per_record)
        g = Graph(graph_id=5, node_count=4, edges=edges)
        assert g.edges.tobytes() == edges.tobytes()


class TestFirstCopies:
    @pytest.mark.parametrize("keys, first, repeat", [
        ((np.array(["b", "a", "b", "c", "a"]),), [1, 0, 3], [0, 0, 1, 0, 1]),
        ((np.array(["m2", "m1", "m2"], dtype=object),), [1, 0], [0, 0, 1]),
        ((np.array([2, 0, 2, 0, 2]), np.array([1, 5, 0, 5, 1])),
         [1, 2, 0], [0, 0, 0, 1, 1]),
        ((np.array([], np.int64), np.array([], np.int64)), [], []),
    ])
    def test_first_rows_in_key_order(self, keys, first, repeat):
        got_first, got_repeat = first_copies(*keys)
        assert got_first.tolist() == first
        assert got_repeat.tolist() == [bool(r) for r in repeat]


class TestTuFormat:
    def build_db(self):
        g0 = Graph(graph_id=0, node_count=3,
                   edges=((0, 1, 1.0), (1, 2, 1.0)),
                   node_labels=np.array([5, 5, 7]),
                   node_attributes=np.array([[0.5, 1.0], [2.0, -1.0],
                                             [0.0, 0.25]]))
        g1 = Graph(graph_id=1, node_count=2, edges=((0, 1, 2.5),),
                   node_labels=np.array([7, 5]),
                   node_attributes=np.array([[1.5, 0.0], [3.0, 4.0]]))
        return GraphDatabase(graphs=(g0, g1),
                             class_labels=np.array([1, 0]),
                             anomaly_flags=np.array([False, True]))

    def test_round_trip(self, tmp_path):
        db = self.build_db()
        write_tu_dataset(db, tmp_path, "toy")
        assert dataset_name(tmp_path) == "toy"
        back = load_tu_dataset(tmp_path)
        assert len(back) == 2
        for g, h in zip(db.graphs, back.graphs):
            assert g.node_count == h.node_count
            assert g.edges.tolist() == h.edges.tolist()
            np.testing.assert_array_equal(g.node_labels, h.node_labels)
            np.testing.assert_array_equal(g.node_attributes, h.node_attributes)
        np.testing.assert_array_equal(back.class_labels, [1, 0])
        np.testing.assert_array_equal(back.anomaly_flags, [False, True])

    def test_lf_endings_and_both_directions(self, tmp_path):
        write_tu_dataset(self.build_db(), tmp_path, "toy")
        raw = (tmp_path / "toy_A.txt").read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        # every undirected edge appears in both orders
        assert len(lines) == 2 * 3
        assert "1, 2, 1.0" in lines and "2, 1, 1.0" in lines

    def test_unweighted_file_omits_weight_column(self, tmp_path):
        g = Graph(graph_id=0, node_count=2, edges=((0, 1, 1.0),))
        write_tu_dataset(GraphDatabase(graphs=(g,)), tmp_path, "uw")
        lines = (tmp_path / "uw_A.txt").read_text().splitlines()
        assert lines == ["1, 2", "2, 1"]

    def test_edge_files_parsed_whole(self, tmp_path, monkeypatch):
        # Two- and three-column files never reach the line tokenizer.
        def per_line(s):
            raise AssertionError(f"line tokenizer on {s!r}")

        monkeypatch.setattr(glad.data, "_edge", per_line)
        for name, w in (("uw", 1.0), ("w", 2.5)):
            g = Graph(graph_id=0, node_count=3, edges=((0, 1, w), (1, 2, w)))
            write_tu_dataset(GraphDatabase(graphs=(g,)), tmp_path / name, name)
            back = load_tu_dataset(tmp_path / name)
            assert back.graphs[0].edges.tolist() == g.edges.tolist()

    def test_directed_duplicates_collapse(self, tmp_path):
        (tmp_path / "d_A.txt").write_text("1, 2\n2, 1\n")
        (tmp_path / "d_graph_indicator.txt").write_text("1\n1\n")
        db = load_tu_dataset(tmp_path)
        assert db.graphs[0].edges.tolist() == [(0, 1, 1.0)]

    @pytest.mark.parametrize("u, v, w, want", [
        # a lo * (hi.max() + 1) + hi key wraps here: (0, b) and (a, b) collide
        ([0, 2**31, 0], [2**31 + 5, 2**31 + 5, 2**33 - 1], [1.0, 2.0, 3.0],
         [(0, 2**31 + 5, 1.0), (0, 2**33 - 1, 3.0), (2**31, 2**31 + 5, 2.0)]),
        ([1, 0], [0, 1], [2.0, 1.0], [(0, 1, 2.0)]),
    ])
    def test_normalized_edges_keep_each_pair_once(self, u, v, w, want):
        edges = glad.data._normalized_edges(np.array(u), np.array(v),
                                            np.array(w), np.array([0]))
        assert [e.tolist() for e in edges] == [want]

    def test_missing_mandatory_file(self, tmp_path):
        (tmp_path / "x_A.txt").write_text("1, 2\n")
        with pytest.raises(LoadError, match="graph_indicator"):
            load_tu_dataset(tmp_path, "x")

    def test_format_errors_carry_line_numbers(self, tmp_path):
        (tmp_path / "b_graph_indicator.txt").write_text("1\n1\n")
        cases = [
            ("1, 1\n", "b_A.txt:1.*self loop"),
            ("1, 2\nbad line\n", "b_A.txt:2"),
            ("1, 5\n", "b_A.txt:1.*out of range"),
        ]
        for content, pattern in cases:
            (tmp_path / "b_A.txt").write_text(content)
            with pytest.raises(FormatError, match=pattern):
                load_tu_dataset(tmp_path, "b")

    def test_cross_graph_edge_rejected(self, tmp_path):
        (tmp_path / "c_A.txt").write_text("1, 2\n")
        (tmp_path / "c_graph_indicator.txt").write_text("1\n2\n")
        with pytest.raises(FormatError, match="joins graphs"):
            load_tu_dataset(tmp_path, "c")

    def test_row_count_mismatch(self, tmp_path):
        (tmp_path / "m_A.txt").write_text("1, 2\n")
        (tmp_path / "m_graph_indicator.txt").write_text("1\n1\n")
        (tmp_path / "m_node_labels.txt").write_text("3\n")
        with pytest.raises(FormatError, match="1 rows for 2 nodes"):
            load_tu_dataset(tmp_path, "m")

    def test_third_column_weights(self, tmp_path):
        (tmp_path / "w_A.txt").write_text("1, 2, 0.25\n2, 1, 0.25\n")
        (tmp_path / "w_graph_indicator.txt").write_text("1\n1\n")
        db = load_tu_dataset(tmp_path)
        assert db.graphs[0].edges.tolist() == [(0, 1, 0.25)]

    def test_interleaved_indicator_keeps_file_order(self, tmp_path):
        # nodes 1..6 belong to graphs 1, 2, 1, 2, 1, 2
        (tmp_path / "i_graph_indicator.txt").write_text("1\n2\n1\n2\n1\n2\n")
        (tmp_path / "i_A.txt").write_text("5, 1\n1, 5\n2, 4, 0.5\n4, 2, 0.5\n")
        (tmp_path / "i_node_labels.txt").write_text("10\n20\n11\n21\n12\n22\n")
        (tmp_path / "i_node_attributes.txt").write_text(
            "".join(f"{v}.5, -{v}\n" for v in range(1, 7)))
        db = load_tu_dataset(tmp_path, "i")
        g1, g2 = db.graphs
        assert (g1.node_count, g2.node_count) == (3, 3)
        # global nodes 1, 3, 5 are graph 1's local 0, 1, 2; 2, 4, 6 graph 2's
        assert g1.edges.tolist() == [(0, 2, 1.0)]
        assert g2.edges.tolist() == [(0, 1, 0.5)]
        np.testing.assert_array_equal(g1.node_labels, [10, 11, 12])
        np.testing.assert_array_equal(g2.node_labels, [20, 21, 22])
        np.testing.assert_array_equal(g1.node_attributes,
                                      [[1.5, -1], [3.5, -3], [5.5, -5]])
        np.testing.assert_array_equal(g2.node_attributes,
                                      [[2.5, -2], [4.5, -4], [6.5, -6]])

    def test_fast_path_and_line_fallback_agree(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(4)
        graphs = []
        for k in range(12):
            n = int(rng.integers(1, 8))
            pairs = sorted({tuple(sorted(rng.choice(n, 2, replace=False).tolist()))
                            for _ in range(2 * n)} if n > 1 else ())
            graphs.append(Graph(
                graph_id=k, node_count=n,
                edges=tuple((u, v, float(rng.uniform(0.1, 3))) for u, v in pairs),
                node_labels=rng.integers(0, 5, n),
                node_attributes=rng.standard_normal((n, 2))))
        db = GraphDatabase(graphs=tuple(graphs),
                           class_labels=rng.integers(0, 2, 12),
                           anomaly_flags=rng.random(12) < 0.3)
        write_tu_dataset(db, tmp_path, "w")
        # Deal the nodes out graph by graph, each graph's nodes in order.
        gid = np.repeat(np.arange(12), [g.node_count for g in graphs])
        rank = np.arange(gid.size) - np.searchsorted(gid, gid)
        dealt = np.lexsort((gid, rank))
        new_id = np.empty_like(dealt)
        new_id[dealt] = np.arange(dealt.size)
        for suffix in ("graph_indicator", "node_labels", "node_attributes"):
            path = tmp_path / f"w_{suffix}.txt"
            lines = path.read_text().splitlines()
            path.write_text("".join(lines[k] + "\n" for k in dealt))
        a_path = tmp_path / "w_A.txt"
        a_lines = []
        for line in a_path.read_text().splitlines():
            i, j, w = line.split(", ")
            a_lines.append(f"{new_id[int(i) - 1] + 1}, {new_id[int(j) - 1] + 1}, {w}")
        a_path.write_text("\n".join(a_lines) + "\n")
        assert (tmp_path / "w_graph_indicator.txt").read_text().startswith("1\n2\n3\n")

        read = []
        real_rows = glad.data.table_rows
        monkeypatch.setattr(glad.data, "table_rows", lambda path, *a, **k: (
            read.append(path.name), real_rows(path, *a, **k))[1])
        fast = load_tu_dataset(tmp_path)
        assert read == []
        assert_same_database(fast, db)

        # A later 2-column copy of the first edge keeps the first weight,
        # and numpy refuses the mixed widths, so the line reader runs.
        a_path.write_text("\n".join(a_lines + [a_lines[0].rsplit(",", 1)[0]]) + "\n")
        slow = load_tu_dataset(tmp_path)
        assert read == ["w_A.txt"]
        assert_same_database(slow, fast)
        for kind in ("one_hot_label", "attributes", "one_hot_degree"):
            assert_same_database(derive_features(slow, kind),
                                 derive_features(fast, kind))

    def test_crlf_blank_lines_plus_ids_and_empty_edge_file(self, tmp_path):
        (tmp_path / "o_graph_indicator.txt").write_bytes(b"1\r\n1\r\n\r\n2\r\n+2\r\n")
        (tmp_path / "o_A.txt").write_bytes(b"1, 2\r\n\r\n+2, 1\r\n4,3\r\n")
        # the line of spaces sends the label file through the line reader
        (tmp_path / "o_node_labels.txt").write_bytes(b"3\r\n  \r\n+4\r\n5\r\n6\r\n")
        (tmp_path / "o_graph_labels.txt").write_bytes(b"\r\n0\r\n1\r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            db = load_tu_dataset(tmp_path, "o")
            assert [g.edges.tolist() for g in db.graphs] == [[(0, 1, 1.0)],
                                                             [(0, 1, 1.0)]]
            assert [g.node_labels.tolist() for g in db.graphs] == [[3, 4], [5, 6]]
            assert db.class_labels.tolist() == [0, 1]
            for text in ("", "\n\n"):
                (tmp_path / "o_A.txt").write_text(text)
                db = load_tu_dataset(tmp_path, "o")
                assert [g.edges.tolist() for g in db.graphs] == [[], []]
                assert [g.node_count for g in db.graphs] == [2, 2]

    def test_empty_edge_file_warns_nothing(self, tmp_path):
        # numpy warns on an empty file.  The suite makes every warning an
        # error; under Python's default filters none may reach the caller.
        (tmp_path / "o_graph_indicator.txt").write_text("1\n1\n")
        (tmp_path / "o_A.txt").write_text("")
        with warnings.catch_warnings(record=True) as seen:
            warnings.resetwarnings()
            db = load_tu_dataset(tmp_path, "o")
        assert [str(w.message) for w in seen] == []
        assert [g.edges.tolist() for g in db.graphs] == [[]]

    def test_line_of_spaces_in_attribute_file(self, tmp_path):
        # numpy refuses the line of spaces, so the line reader parses rows.
        (tmp_path / "o_graph_indicator.txt").write_text("1\n1\n")
        (tmp_path / "o_A.txt").write_text("1, 2\n")
        (tmp_path / "o_node_attributes.txt").write_text("0.5, 1\n   \n2, -3e2\n")
        db = load_tu_dataset(tmp_path, "o")
        assert db.graphs[0].node_attributes.tolist() == [[0.5, 1.0],
                                                         [2.0, -300.0]]

    def test_str_paths(self, tmp_path):
        write_tu_dataset(self.build_db(), str(tmp_path), "toy")
        assert_same_database(load_tu_dataset(str(tmp_path)),
                             load_tu_dataset(tmp_path))

    def test_array_checks_report_the_first_bad_line(self, tmp_path):
        (tmp_path / "e_graph_indicator.txt").write_text("1\n1\n2\n")
        cases = [
            ("1, 2\n\n2, 1\n1, 1\n", "e_A.txt:4: bad edge: self loop on node 1"),
            ("1, 2\n1, 4\n2, 2\n", "e_A.txt:2: bad edge: node id out of range"),
            ("2, 1\n2, 3\n1, 1\n", "e_A.txt:2: bad edge: edge joins graphs 1 and 2"),
        ]
        for content, pattern in cases:
            (tmp_path / "e_A.txt").write_text(content)
            with pytest.raises(FormatError, match=pattern):
                load_tu_dataset(tmp_path, "e")

    def test_first_weight_in_file_order_wins(self, tmp_path):
        # Pairs repeat in both directions with new weights; the reference
        # keeps the first weight seen per pair, as a dict does.
        rng = np.random.default_rng(8)
        ind = rng.integers(1, 3, 40)
        nodes = [np.flatnonzero(ind == g) for g in (1, 2)]
        lines, want = [], [{}, {}]
        for _ in range(600):
            g = int(rng.integers(0, 2))
            a, b = rng.choice(nodes[g].size, 2, replace=False).tolist()
            w = float(rng.integers(1, 1000))
            lines.append(f"{nodes[g][a] + 1}, {nodes[g][b] + 1}, {w}")
            want[g].setdefault((min(a, b), max(a, b)), w)
        (tmp_path / "r_graph_indicator.txt").write_text(
            "".join(f"{g}\n" for g in ind))
        (tmp_path / "r_A.txt").write_text("\n".join(lines) + "\n")
        db = load_tu_dataset(tmp_path, "r")
        for g, ref in zip(db.graphs, want):
            assert g.edges.tolist() == [(u, v, ref[u, v]) for u, v in sorted(ref)]

    def test_graph_ids_positive_and_label_files_one_column(self, tmp_path):
        (tmp_path / "p_A.txt").write_text("1, 2\n")
        (tmp_path / "p_graph_indicator.txt").write_text("1\n1\n\n0\n")
        with pytest.raises(FormatError,
                           match="p_graph_indicator.txt:4: bad graph id: 0 < 1"):
            load_tu_dataset(tmp_path, "p")
        (tmp_path / "p_graph_indicator.txt").write_text("1\n1\n")
        (tmp_path / "p_node_labels.txt").write_text("3, 1\n4, 5\n")
        with pytest.raises(FormatError, match="p_node_labels.txt:1: bad node label"):
            load_tu_dataset(tmp_path, "p")

    def test_bad_weights_rejected_with_line(self, tmp_path):
        (tmp_path / "b_graph_indicator.txt").write_text("1\n1\n1\n")
        for w in ("0", "-1", "nan", "inf", "-0.0"):
            # numpy parses the second file whole; the first has mixed widths
            for content, line in ((f"1, 2, {w}\n2, 3\n", 1),
                                  (f"1, 2, 0.5\n\n2, 3, 1\n3, 2, {w}\n", 4)):
                (tmp_path / "b_A.txt").write_text(content)
                with pytest.raises(FormatError, match=(
                        f"b_A.txt:{line}: bad edge: weight {w} is not "
                        f"finite and > 0")):
                    load_tu_dataset(tmp_path, "b")

    def test_non_finite_attributes_rejected_with_line(self, tmp_path):
        (tmp_path / "a_A.txt").write_text("1, 2\n")
        (tmp_path / "a_graph_indicator.txt").write_text("1\n1\n")
        for bad in ("nan", "inf", "-inf"):
            (tmp_path / "a_node_attributes.txt").write_text(f"0.5, 1\n1, {bad}\n")
            with pytest.raises(FormatError, match=(
                    "a_node_attributes.txt:2: bad attribute row: non-finite")):
                load_tu_dataset(tmp_path, "a")

    def test_loaded_edges_iterate_as_triples(self, tmp_path):
        write_tu_dataset(self.build_db(), tmp_path, "t")
        g0, g1 = load_tu_dataset(tmp_path).graphs
        triples = [tuple(e) for e in g0.edges]
        assert triples == [(0, 1, 1.0), (1, 2, 1.0)]
        for u, v, w in g1.edges:
            assert isinstance(u, np.integer) and isinstance(v, np.integer)
            assert (u, v, w) == (0, 1, 2.5)

    def test_writer_matches_per_edge_reference(self, tmp_path):
        rng = np.random.default_rng(3)
        # numpy float weights: their repr is not the file's number format
        weighted = GraphDatabase(graphs=tuple(
            Graph(graph_id=k, node_count=5,
                  edges=tuple((u, v, np.float64(rng.uniform(0.1, 3)))
                              for u in range(5) for v in range(u + 1, 5)
                              if rng.random() < 0.5))
            for k in range(4)))
        unweighted = generate_mixhop(3, 12, 2, 0.6, 3, seed=5)
        attributed = self.build_db()
        for k, db in enumerate((weighted, unweighted, attributed)):
            write_tu_dataset(db, tmp_path / "got", f"d{k}")
            write_tu_reference(db, tmp_path / "want", f"d{k}")
        names = sorted(p.name for p in (tmp_path / "want").iterdir())
        assert sorted(p.name for p in (tmp_path / "got").iterdir()) == names
        assert len(names) == 2 + 3 + 6
        for n in names:
            assert (tmp_path / "got" / n).read_bytes() == \
                (tmp_path / "want" / n).read_bytes(), n

    def test_integers_past_int64_rejected_with_line(self, tmp_path):
        (tmp_path / "o_A.txt").write_text("1, 2\n")
        huge = "99999999999999999999"
        for suffix, text, line, what in (
                ("graph_indicator", f"1\n{huge}\n", 2, "graph id"),
                ("node_labels", f"3\n{huge}\n", 2, "node label"),
                ("graph_labels", f"{huge}\n", 1, "graph label")):
            (tmp_path / "o_graph_indicator.txt").write_text("1\n1\n")
            (tmp_path / f"o_{suffix}.txt").write_text(text)
            with pytest.raises(FormatError,
                               match=f"o_{suffix}.txt:{line}: bad {what}: .*large"):
                load_tu_dataset(tmp_path, "o")
            (tmp_path / f"o_{suffix}.txt").unlink()

    def test_huge_graph_id_is_an_empty_graph(self, tmp_path):
        (tmp_path / "h_A.txt").write_text("")
        (tmp_path / "h_graph_indicator.txt").write_text("1\n1000000000000000\n")
        with pytest.raises(FormatError,
                           match="h_graph_indicator.txt: graph 2 has no nodes"):
            load_tu_dataset(tmp_path, "h")

    def test_ragged_attribute_rows_rejected_with_line(self, tmp_path):
        (tmp_path / "a_A.txt").write_text("1, 2\n")
        (tmp_path / "a_graph_indicator.txt").write_text("1\n1\n")
        for row in ("2", "2, 3, 4"):
            (tmp_path / "a_node_attributes.txt").write_text(f"0.5, 1\n{row}\n")
            with pytest.raises(FormatError, match=(
                    "a_node_attributes.txt:2: bad attribute row: ragged")):
                load_tu_dataset(tmp_path, "a")

    def test_bad_flag_value(self, tmp_path):
        (tmp_path / "f_A.txt").write_text("1, 2\n")
        (tmp_path / "f_graph_indicator.txt").write_text("1\n1\n")
        (tmp_path / "f_anomaly_flags.txt").write_text("2\n")
        with pytest.raises(FormatError, match="0 or 1"):
            load_tu_dataset(tmp_path, "f")


class TestDeriveFeatures:
    def test_one_hot_label_sorted_alphabet(self):
        g = Graph(graph_id=0, node_count=3, edges=((0, 1, 1.0),),
                  node_labels=np.array([7, 3, 7]))
        db = derive_features(GraphDatabase(graphs=(g,)), "one_hot_label")
        # alphabet sorted: 3 -> slot 0, 7 -> slot 1
        np.testing.assert_array_equal(db.graphs[0].features,
                                      [[0, 1], [1, 0], [0, 1]])
        assert db.d_in == 2

    def test_one_hot_label_external_alphabet(self):
        g = Graph(graph_id=0, node_count=1, edges=(),
                  node_labels=np.array([1]))
        db = derive_features(GraphDatabase(graphs=(g,)), "one_hot_label",
                             label_alphabet=[0, 1, 2])
        np.testing.assert_array_equal(db.graphs[0].features, [[0, 1, 0]])

    def test_one_hot_label_matches_per_node_loop(self):
        db = generate_mixhop(5, 12, 2, 0.5, 4, seed=3)
        for alphabet in (None, [3, 0, 2, 1, 7]):
            out = derive_features(db, "one_hot_label", label_alphabet=alphabet)
            index = {lab: k for k, lab in enumerate(alphabet or range(4))}
            for g, h in zip(db.graphs, out.graphs):
                want = np.zeros((g.node_count, len(index)))
                for v, lab in enumerate(g.node_labels):
                    want[v, index[int(lab)]] = 1.0
                assert h.features.dtype == want.dtype
                np.testing.assert_array_equal(h.features, want)
                assert h.edges is g.edges and h.graph_id == g.graph_id
        with pytest.raises(ValueError, match="label 3 outside alphabet"):
            derive_features(db, "one_hot_label", label_alphabet=[0, 1, 2])
        for kind in ("one_hot_label", "attributes", "one_hot_degree"):
            empty = derive_features(GraphDatabase(graphs=()), kind)
            assert len(empty) == 0 and empty.d_in is None

    def test_attributes_passthrough(self):
        g = tri(node_attributes=np.array([[1.0], [2.0], [3.0], [4.0]]))
        db = derive_features(GraphDatabase(graphs=(g,)), "attributes")
        np.testing.assert_array_equal(db.graphs[0].features,
                                      g.node_attributes)

    def test_one_hot_degree_with_cap(self):
        # star: center degree 5 capped at 3 -> last slot
        edges = tuple((0, v, 1.0) for v in range(1, 6))
        g = Graph(graph_id=0, node_count=6, edges=edges)
        db = derive_features(GraphDatabase(graphs=(g,)), "one_hot_degree",
                             degree_cap=3)
        feats = db.graphs[0].features
        assert feats.shape == (6, 4)
        np.testing.assert_array_equal(feats[0], [0, 0, 0, 1])
        np.testing.assert_array_equal(feats[1], [0, 1, 0, 0])

    def test_errors(self):
        g = Graph(graph_id=0, node_count=1, edges=())
        with pytest.raises(ValueError, match="unknown feature kind"):
            derive_features(GraphDatabase(graphs=(g,)), "nope")
        with pytest.raises(ValueError, match="node labels"):
            derive_features(GraphDatabase(graphs=(g,)), "one_hot_label")
        with pytest.raises(ValueError, match="attributes"):
            derive_features(GraphDatabase(graphs=(g,)), "attributes")
        with pytest.raises(ValueError, match="degree_cap must be >= 1"):
            derive_features(GraphDatabase(graphs=(g,)), "one_hot_degree",
                            degree_cap=0)

    def test_degree_cap_of_one(self):
        # The smallest cap: isolated nodes in slot 0, every other in slot 1.
        g = Graph(graph_id=0, node_count=4, edges=((0, 1, 1.0), (0, 2, 1.0)))
        db = derive_features(GraphDatabase(graphs=(g,)), "one_hot_degree",
                             degree_cap=1)
        np.testing.assert_array_equal(db.graphs[0].features,
                                      [[0, 1], [0, 1], [0, 1], [1, 0]])

    def test_first_label_outside_the_alphabet_named(self):
        g = Graph(graph_id=0, node_count=4, edges=(),
                  node_labels=np.array([1, 5, 0, 7]))
        with pytest.raises(ValueError, match="^label 5 outside alphabet$"):
            derive_features(GraphDatabase(graphs=(g,)), "one_hot_label",
                            label_alphabet=[0, 1])


class TestMakeSplit:
    def build(self, n_in=100, n_out=40):
        graphs = [Graph(graph_id=i, node_count=2, edges=((0, 1, 1.0),))
                  for i in range(n_in + n_out)]
        labels = np.array([0] * n_in + [1] * n_out)
        return GraphDatabase(graphs=tuple(graphs), class_labels=labels)

    def test_counts_and_flags(self):
        train, test = make_split(self.build(), inlier_class=0,
                                 anomaly_rate=0.05, train_fraction=0.05,
                                 seed=3)
        # 5 train inliers, 95 held out -> 5 anomalies at 5% test rate
        assert len(train) == 5
        assert len(test) == 100
        assert int(np.sum(test.anomaly_flags)) == 5
        assert train.anomaly_flags is None and not train.class_labels.any()
        assert len(test.anomaly_flags) == len(test)

    def test_disjoint_ids_and_inlier_purity(self):
        db = self.build()
        train, test = make_split(db, 0, 0.1, 0.7, seed=0)
        train_ids = set(train.graph_ids)
        test_ids = set(test.graph_ids)
        assert not train_ids & test_ids
        assert np.all(train.class_labels == 0)
        flagged = test.class_labels[test.anomaly_flags]
        assert np.all(flagged != 0)
        clean = test.class_labels[~test.anomaly_flags]
        assert np.all(clean == 0)

    def test_at_least_one_anomaly(self):
        train, test = make_split(self.build(), 0, 0.001, 0.5, seed=1)
        assert int(np.sum(test.anomaly_flags)) == 1
        # Two inliers are the fewest that split: one trains, one is held.
        train, test = make_split(self.build(n_in=2), 0, 0.001, 0.5, seed=1)
        assert (len(train), len(test), int(test.anomaly_flags.sum())) == (
            1, 2, 1)

    def test_deterministic(self):
        db = self.build()
        a = make_split(db, 0, 0.05, 0.7, seed=9)
        b = make_split(db, 0, 0.05, 0.7, seed=9)
        assert a[0].graph_ids == b[0].graph_ids
        assert a[1].graph_ids == b[1].graph_ids

    def test_errors(self):
        db = self.build()
        with pytest.raises(SplitError, match="train_fraction"):
            make_split(db, 0, 0.05, 1.5, seed=0)
        with pytest.raises(SplitError, match="anomaly_rate"):
            make_split(db, 0, 0.0, 0.5, seed=0)
        with pytest.raises(SplitError, match="class 7"):
            make_split(db, 7, 0.05, 0.5, seed=0)
        with pytest.raises(SplitError, match="two graphs of class 0, found 1"):
            make_split(self.build(n_in=1), 0, 0.05, 0.5, seed=0)
        no_labels = GraphDatabase(graphs=db.graphs)
        with pytest.raises(SplitError, match="class labels"):
            make_split(no_labels, 0, 0.05, 0.5, seed=0)
        pure = GraphDatabase(graphs=db.graphs,
                             class_labels=np.zeros(len(db), dtype=int))
        with pytest.raises(SplitError, match="outside the inlier class"):
            make_split(pure, 0, 0.05, 0.5, seed=0)

    def test_open_interval_ends_refused(self):
        db = self.build()
        for rate, fraction, name, value in ((0.05, 0.0, "train_fraction", 0.0),
                                            (0.05, 1.0, "train_fraction", 1.0),
                                            (1.0, 0.5, "anomaly_rate", 1.0)):
            with pytest.raises(SplitError,
                               match=rf"^{name} {value} outside \(0, 1\)$"):
                make_split(db, 0, rate, fraction, seed=0)

    def test_training_count_clamped(self):
        # round(0.1 * 4) = 0 trains one graph; round(0.9 * 3) = 3 keeps one.
        for n_in, fraction, n_train in ((4, 0.1, 1), (3, 0.9, 2)):
            train, test = make_split(self.build(n_in=n_in), 0, 0.05,
                                     fraction, seed=2)
            assert len(train) == n_train
            assert int((~test.anomaly_flags).sum()) == n_in - n_train

    def test_training_graphs_are_a_seeded_shuffle(self):
        # Each seed trains on its own draw of inliers, not on the first
        # inliers in database order.
        db = self.build()
        picks = {tuple(make_split(db, 0, 0.05, 0.1, seed=s)[0].graph_ids)
                 for s in range(4)}
        assert len(picks) == 4 and tuple(range(10)) not in picks

    def test_anomaly_share_of_the_test_set(self):
        # 10 held-out inliers at rate 0.5 want 10 anomalies: half the test set.
        train, test = make_split(self.build(n_in=20), 0, 0.5, 0.5, seed=4)
        assert (len(train), len(test), int(test.anomaly_flags.sum())) == (
            10, 20, 10)


class TestGenerateMixhop:
    def test_edge_count_exact(self):
        db = generate_mixhop(5, 50, 2, 0.7, 5, seed=0)
        for g in db.graphs:
            assert len(g.edges) == 2 * (50 - 2)
        db = generate_mixhop(3, 30, 3, 0.5, 4, seed=1)
        for g in db.graphs:
            assert len(g.edges) == 3 * (30 - 3)

    def test_homophily_monotone(self):
        fracs = []
        for h in (0.1, 0.5, 0.9):
            db = generate_mixhop(20, 40, 2, h, 5, seed=42)
            same = [g.node_labels[u] == g.node_labels[v]
                    for g in db.graphs for u, v, _ in g.edges]
            fracs.append(np.mean(same))
        assert fracs[0] < fracs[1] < fracs[2]

    def test_single_label_gives_connected_ba(self):
        db = generate_mixhop(1, 30, 2, 1.0, 1, seed=5)
        g = db.graphs[0]
        assert len(g.edges) == 2 * 28
        # BFS connectivity
        adj = np.zeros((30, 30), bool)
        for u, v, _ in g.edges:
            adj[u, v] = adj[v, u] = True
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for u in np.flatnonzero(adj[v]):
                if int(u) not in seen:
                    seen.add(int(u))
                    frontier.append(int(u))
        assert len(seen) == 30

    def test_deterministic_and_offset(self):
        a = generate_mixhop(4, 20, 2, 0.7, 3, seed=8, id_offset=10)
        b = generate_mixhop(4, 20, 2, 0.7, 3, seed=8, id_offset=10)
        assert a.graph_ids == [10, 11, 12, 13]
        for g, h in zip(a.graphs, b.graphs):
            assert g.edges.tolist() == h.edges.tolist()
            np.testing.assert_array_equal(g.node_labels, h.node_labels)

    def test_pinned_draws(self):
        # Digests of the edge and label bytes from the generator that
        # picked targets with rng.choice; both pick paths (uniform while
        # every weight is zero, degree-proportional after) are taken.
        want = {3: "692fa8e76d3b09048cef696812e287938fb34ac711e106d6620ee01368fc7bfe",
                11: "e0923a9a0554b167f5a665e932b239fd04ab71d8f03469c939eac71341027fd6"}
        for seed, digest in want.items():
            h = hashlib.sha256()
            for g in generate_mixhop(6, 40, 3, 0.7, 4, seed=seed).graphs:
                h.update(g.edges.tobytes())
                h.update(g.node_labels.tobytes())
            assert h.hexdigest() == digest

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            generate_mixhop(1, 5, 5, 0.5, 2, seed=0)
        with pytest.raises(ValueError):
            generate_mixhop(1, 10, 2, 1.5, 2, seed=0)
        with pytest.raises(ValueError):
            generate_mixhop(0, 10, 2, 0.5, 2, seed=0)

    def test_defaults_and_homophily_ends(self):
        # Ids start at 0; homophily 0 and 1 are both allowed.
        for h in (0.0, 1.0):
            db = generate_mixhop(2, 8, 2, h, 3, seed=6)
            assert db.graph_ids == [0, 1]
            same = [g.node_labels[u] == g.node_labels[v]
                    for g in db.graphs for u, v, _ in g.edges]
            assert np.mean(same) == pytest.approx(h, abs=0.35)

"""Orchestration: benchmark generation, config files, full runs, CLI."""

import os
import re
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from glad import cli
from glad import selection as gsel
from glad.data import (DEFAULT_DEGREE_CAP, Graph, GraphDatabase,
                       derive_features, featurize, load_tu_dataset,
                       write_tu_dataset)
from glad.errors import FormatError
from glad.metrics import roc_auc
from glad.pipeline import (BenchmarkParams, PipelineConfig, build_dataset,
                           evaluate_pool, generate_benchmark,
                           parse_grid_file, parse_pipeline_config,
                           run_pipeline, stage_seed, write_report)
from glad.trainer import (DEFAULT_GRID, CandidatePool, ModelConfig,
                           load_pool, save_pool)

TINY_BENCH = BenchmarkParams(n_train=8, n_test=8, anomaly_rate=0.25,
                             nodes=12, ba_m=2, labels=2,
                             homophily_in=0.9, homophily_out=0.1)

TINY_GRID = {
    "common": {"epochs": [2], "batch_size": [8], "d_hidden": [6]},
    "mean": {"layers": [1], "weight_decay": [1e-4], "lr": [1e-3],
             "seed": [0, 1]},
    "mmd": {"layers": [1], "weight_decay": [1e-4], "lr": [0.01],
            "seed": [0], "nystrom_k": [4]},
}


def write_signed_tu(directory) -> dict:
    """TINY_BENCH's 16 graphs as a TU directory, in classes -1 and 1
    (as MUTAG labels its graphs); returns each loaded graph's class."""
    train, test = generate_benchmark(TINY_BENCH, 0)
    labels = np.resize([-1, 1], 16)
    write_tu_dataset(GraphDatabase(graphs=train.graphs + test.graphs,
                                   class_labels=labels), directory, "pm")
    return dict(zip(load_tu_dataset(directory).graph_ids, labels.tolist()))


class TestStageSeed:
    def test_deterministic_and_stage_separated(self):
        assert stage_seed(7, 0) == stage_seed(7, 0)
        assert stage_seed(7, 0) != stage_seed(7, 1)
        assert stage_seed(7, 0) != stage_seed(8, 0)

    def test_each_stage_its_own_stream(self):
        # Two stages on one stream would, say, grow the test inliers as
        # copies of the training graphs.
        import glad.pipeline as gp
        stages = [getattr(gp, name) for name in dir(gp)
                  if name.startswith("STAGE_")]
        assert len(stages) == 5
        assert len({stage_seed(7, s) for s in stages}) == 5


class TestGenerateBenchmark:
    def test_shapes_ids_flags(self):
        train, test = generate_benchmark(TINY_BENCH, master_seed=0)
        assert len(train) == 8 and len(test) == 8
        assert train.graph_ids == list(range(8))
        assert sorted(test.graph_ids) == list(range(8, 16))
        assert int(test.anomaly_flags.sum()) == 2  # round(0.25 * 8)
        assert train.anomaly_flags is None
        assert train.d_in == 2 and test.d_in == 2
        assert train.class_labels is None and test.class_labels is None

    def test_anomalies_are_low_homophily_graphs(self):
        def frac(g):
            same = sum(1 for u, v, _ in g.edges
                       if g.node_labels[u] == g.node_labels[v])
            return same / len(g.edges)

        _, test = generate_benchmark(TINY_BENCH, master_seed=1)
        fr = np.array([frac(g) for g in test.graphs])
        flagged = fr[test.anomaly_flags]
        clean = fr[~test.anomaly_flags]
        assert flagged.mean() < clean.mean()

    def test_deterministic(self):
        a = generate_benchmark(TINY_BENCH, master_seed=3)
        b = generate_benchmark(TINY_BENCH, master_seed=3)
        assert a[1].graph_ids == b[1].graph_ids
        np.testing.assert_array_equal(a[1].anomaly_flags, b[1].anomaly_flags)
        c = generate_benchmark(TINY_BENCH, master_seed=4)
        assert a[1].graph_ids != c[1].graph_ids

    def test_rate_must_leave_inliers(self):
        with pytest.raises(ValueError, match="no inliers"):
            generate_benchmark(BenchmarkParams(n_test=2, anomaly_rate=0.9),
                               0)

    @pytest.mark.parametrize("kwargs,msg", [
        (dict(nodes=2, ba_m=2), "ba_m"), (dict(ba_m=0), "ba_m"),
        (dict(labels=0), "labels"), (dict(n_test=0), "n_test"),
        (dict(homophily_out=1.5), "homophily_out"),
    ])
    def test_shape_validated_at_construction(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            BenchmarkParams(**kwargs)

    def test_range_ends(self):
        # Homophily takes both ends; the rate's open interval refuses 1
        # by name; a tiny rate still plants one anomaly.
        ends = BenchmarkParams(homophily_in=0.0, homophily_out=1.0)
        assert (ends.homophily_in, ends.homophily_out) == (0.0, 1.0)
        with pytest.raises(ValueError,
                           match=r"^anomaly_rate 1\.0 outside \(0, 1\)$"):
            BenchmarkParams(anomaly_rate=1.0)
        assert BenchmarkParams(n_test=10, anomaly_rate=0.01).n_anomalies == 1


class TestGridFile:
    def test_round_trip(self, tmp_path):
        text = """\
# candidate grid
[common]
epochs = 2          # small
batch_size = 8
d_hidden = 6

[mean]
layers = 1, 2
weight_decay = 1e-4
lr = 1e-3
seed = 0, 1

[mmd]
layers = 1
weight_decay = 1e-4
lr = 0.01
seed = 0
nystrom_mult = 4.0
"""
        path = tmp_path / "grid.txt"
        path.write_text(text)
        spec = parse_grid_file(path)
        assert spec["mean"]["layers"] == [1, 2]
        assert spec["mean"]["weight_decay"] == [1e-4]
        assert spec["mmd"]["nystrom_mult"] == [4.0]
        assert spec["common"]["epochs"] == [2]
        assert all(isinstance(v, int) for v in spec["mean"]["seed"])

    @pytest.mark.parametrize("body,msg", [
        ("[bogus]\n", "unknown section"),
        ("layers = 1\n", "no section headers.*line: 1"),
        ("[mean]\nlayers\n", "parsing errors.*line 2"),
        ("[mean]\ncolor = red\n", "unknown grid key"),
        ("[mean]\nlayers = one\n", "bad value"),
        ("[mean]\nlayers =\n", "no values"),
        ("[common]\nepochs = 5\n", "no model family"),
        ("# nothing\n", "no model family"),
        ("[mean]\nseed = 0\nseed = 1\n", "line 3.*option 'seed'"),
        ("[mean]\nseed = 0\n[mean]\n", "line 3.*section 'mean'"),
        ("[DEFAULT]\nseed = 0\n[mean]\n", r"unknown section \[DEFAULT\]"),
        ("[mean]\nLayers = 1\n", r"\[mean\] Layers: unknown grid key"),
        ("[mmd]\npooling = mean\n", r"\[mmd\] pooling: unknown grid key"),
        ("[mean]\nlr = 0.1#x\n", r"\[mean\] lr: bad value '0.1#x'"),
        ("[mmd]\nnystrom_k = 2\nepochs = 10000001\n",
         "epochs 10000001 makes 10000001 training steps on 1 graphs"),
    ])
    def test_errors(self, tmp_path, body, msg):
        path = tmp_path / "grid.txt"
        path.write_text(body)
        with pytest.raises(FormatError, match=msg) as exc:
            parse_grid_file(path)
        assert str(path) in str(exc.value)


class TestPipelineConfig:
    def test_generate_source(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("""\
[run]
out_dir = {out}
master_seed = 11
workers = 2

[selection]
methods = hits, mc

[data]
source = generate
n_train = 12
n_test = 10
anomaly_rate = 0.1
nodes = 20
labels = 3
""".format(out=tmp_path / "out"))
        cfg = parse_pipeline_config(path)
        assert cfg.master_seed == 11 and cfg.workers == 2
        assert cfg.methods == ("hits", "mc")
        assert cfg.bench.n_train == 12 and cfg.bench.labels == 3
        assert cfg.bench.ba_m == 2  # default survives partial [data]
        assert cfg.grid_spec == DEFAULT_GRID  # no [grid] file

    def test_documented_defaults(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nout_dir = out\n")
        cfg = parse_pipeline_config(path)
        assert (cfg.master_seed, cfg.workers, cfg.methods) == (
            0, 1, ("hits", "hits-ens", "mc", "udr"))

    def test_integer_range_ends(self, tmp_path):
        # Seeds in [0, 2**63), workers and degree_cap from 1, class ids in
        # int64: each end is taken, one past it refused by key.
        top, low = 2**63 - 1, -2**63
        path = tmp_path / "run.ini"
        path.write_text(f"[run]\nout_dir = out\nmaster_seed = {top}\n"
                        f"workers = 1\n\n[data]\nsource = tu\ndirectory = d"
                        f"\ndegree_cap = 1\ninlier_class = {low}\n")
        cfg = parse_pipeline_config(path)
        assert (cfg.master_seed, cfg.workers, cfg.degree_cap,
                cfg.inlier_class) == (top, 1, 1, low)
        for section, key, value in (("run", "master_seed", top + 1),
                                    ("data", "inlier_class", low - 1)):
            lines = {"run": "out_dir = out\n",
                     "data": "source = tu\ndirectory = d\n"}
            lines[section] += f"{key} = {value}\n"
            path.write_text("".join(f"[{k}]\n{v}" for k, v in lines.items()))
            with pytest.raises(FormatError) as exc:
                parse_pipeline_config(path)
            assert str(exc.value) == (
                f"{path}: bad value for [{section}] {key}: '{value}'")

    def test_tu_source(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(f"""\
[run]
out_dir = {tmp_path / 'out'}

[data]
source = tu
directory = {tmp_path / 'ds'}
feature_kind = one_hot_degree
degree_cap = 6
inlier_class = 1
train_fraction = 0.5
anomaly_rate = 0.2
""")
        cfg = parse_pipeline_config(path)
        assert cfg.tu_directory == tmp_path / "ds"
        assert cfg.feature_kind == "one_hot_degree"
        assert cfg.degree_cap == 6 and cfg.inlier_class == 1
        assert cfg.train_fraction == 0.5 and cfg.anomaly_rate == 0.2

    @pytest.mark.parametrize("body,msg", [
        ("[data]\nsource = generate\n", "out_dir"),
        ("[run]\nout_dir = x\n\n[data]\nsource = magic\n", "unknown data"),
        ("[run]\nout_dir = x\n\n[data]\nsource = tu\n", "directory"),
        ("[run]\nout_dir = x\n\n[selection]\nmethods = best\n",
         "unknown selection"),
        ("[run]\nout_dir = x\nmaster_seed = -1\n", "master_seed"),
        ("[run]\nout_dir = x\nworkers = 0\n", "workers"),
        ("[run]\nout_dir = x\n\n[data]\nsource = tu\ndirectory = d\n"
         "degree_cap = 0\n", "degree_cap"),
        ("[run]\nout_dir = x\n\n[data]\nnodes = 2\n", "ba_m"),
        ("[run]\nout_dir =\n", "out_dir is required"),
        ("[run]\nout_dir = x\n\n[data]\nsource = tu\ndirectory =  # none\n",
         "tu source needs data.directory"),
        ("[run]\nout_dir = x\n\n[selection]\nmethods =\n",
         r"\[selection\] methods: no values"),
        ("[run]\nout_dir = x\nworker = 2\n",
         r"\[run\] worker: unknown pipeline config key"),
        ("[run]\nout_dir = x\nmaster_sede = 3\n", r"\[run\] master_sede: unk"),
        ("[run]\nout_dir = x\nOUT_DIR = y\n", r"\[run\] OUT_DIR: unknown"),
        ("[run]\nout_dir = x\n\n[data]\nnodez = 10\n", r"\[data\] nodez: unk"),
        ("[run]\nout_dir = x\n\n[selecton]\nmethods = hits\n",
         r"unknown section \[selecton\]"),
        ("[run]\nout_dir = x\n\n[grid]\nfil = g.ini\n", r"\[grid\] fil: unk"),
        ("[DEFAULT]\nworkers = 0\n\n[run]\nout_dir = x\n",
         r"unknown section \[DEFAULT\]"),
        ("[run]\nout_dir = x\n\n[data]\nsource = tu\ndirectory = d\n"
         "nodes = 5\n", r"\[data\] nodes: not a tu key"),
        ("[run]\nout_dir = x\n\n[data]\nsource = generate\n"
         "degree_cap = 0\n", r"\[data\] degree_cap: not a generate key"),
        ("[run]\nout_dir = x\n\n[data]\ninlier_class = -3\n",
         r"\[data\] inlier_class: not a generate key"),
        ("[run]\nout_dir: x\n", r"\[line 2\]: 'out_dir: x"),
        ("[run]\nout_dir = x\n; note\n", r"\[line 3\]: '; note"),
    ])
    def test_errors(self, tmp_path, body, msg):
        path = tmp_path / "run.ini"
        path.write_text(body)
        with pytest.raises(FormatError, match=msg) as exc:
            parse_pipeline_config(path)
        assert str(path) in str(exc.value)

    def test_values_are_literal(self, tmp_path):
        # No interpolation: a % is kept; a # after a space starts a comment.
        path = tmp_path / "run.ini"
        path.write_text("[run]\nout_dir = runs/50%done   # 100% kept\n\n"
                        "[data]\nsource = tu  # inline comment\n"
                        "directory = d%x#1\n")
        cfg = parse_pipeline_config(path)
        assert cfg.out_dir == Path("runs/50%done")
        assert cfg.tu_directory == Path("d%x#1")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="cannot read"):
            parse_pipeline_config(tmp_path / "nope.ini")


class TestReadme:
    def test_ini_examples_parse(self, tmp_path, monkeypatch):
        """Every fenced ``ini`` block of the README, verbatim: the grid
        file, and the pipeline configs with it beside them as grid.txt."""
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"^```ini\n(.*?)^```", readme.read_text(),
                            re.M | re.S)
        grids = [b for b in blocks if "[run]" not in b]
        configs = [b for b in blocks if "[run]" in b]
        assert len(grids) == 1 and len(configs) == 2
        monkeypatch.chdir(tmp_path)
        Path("grid.txt").write_text(grids[0])
        spec = parse_grid_file("grid.txt")
        assert spec["mmd"]["nystrom_mult"] == [4.0, 8.0, 16.0]
        for text in configs:
            Path("run.ini").write_text(text)
            cfg = parse_pipeline_config("run.ini")
            assert str(cfg.out_dir) in text
            assert ("source = tu" in text) == (cfg.tu_directory is not None)
            assert cfg.grid_spec == (spec if "[grid]" in text
                                     else DEFAULT_GRID)


class TestBuildDataset:
    def test_tu_directory_picks_the_source(self, tmp_path):
        train, test = build_dataset(PipelineConfig(out_dir=tmp_path / "o",
                                                   bench=TINY_BENCH))
        want = generate_benchmark(TINY_BENCH, 0)
        assert [train.graph_ids, test.graph_ids] == [
            db.graph_ids for db in want]
        class_of = write_signed_tu(tmp_path / "tu")
        train, test = build_dataset(PipelineConfig(
            out_dir=tmp_path / "o", bench=TINY_BENCH,
            tu_directory=tmp_path / "tu", inlier_class=1))
        assert {class_of[g] for g in train.graph_ids} == {1}
        assert -1 in {class_of[g] for g in test.graph_ids}


class TestFeaturize:
    def g(self, gid, labels=None, attrs=None):
        return Graph(graph_id=gid, node_count=2, edges=((0, 1, 1.0),),
                     node_labels=labels, node_attributes=attrs)

    def test_priority(self):
        # Labels, else attributes, else degrees: the first every graph has.
        lab = np.array([0, 1])
        att = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        both = GraphDatabase(graphs=(self.g(0, lab, att),))
        assert featurize([both])[0].d_in == 2
        attrs = GraphDatabase(graphs=(self.g(0, None, att),))
        assert featurize([attrs])[0].d_in == 3
        bare = GraphDatabase(graphs=(self.g(0),))
        assert featurize([bare])[0].d_in == DEFAULT_DEGREE_CAP + 1
        # One database without labels moves every database to attributes.
        assert [db.d_in for db in featurize([both, attrs])] == [3, 3]
        assert featurize([GraphDatabase(graphs=())])[0].d_in is None

    def test_joint_alphabet(self):
        # The label 7 occurs only in the second database, and still has
        # a slot in the first.
        a = GraphDatabase(graphs=(self.g(0, np.array([3, 5])),))
        b = GraphDatabase(graphs=(self.g(0, np.array([7, 3])),))
        fa, fb = featurize([a, b])
        assert fa.d_in == fb.d_in == 3
        np.testing.assert_array_equal(fa.graphs[0].features,
                                      [[1, 0, 0], [0, 1, 0]])
        np.testing.assert_array_equal(fb.graphs[0].features,
                                      [[0, 0, 1], [1, 0, 0]])

    def test_given_alphabet_keeps_its_order(self):
        a = GraphDatabase(graphs=(self.g(0, np.array([3, 5])),))
        fa, = featurize([a], "one_hot_label", alphabet=[5, 9, 3])
        np.testing.assert_array_equal(fa.graphs[0].features,
                                      [[0, 0, 1], [1, 0, 0]])


class TestEvaluatePool:
    def make_pool(self):
        scores = np.array([[0.1, 0.2, 0.9, 0.8],
                           [0.9, 0.8, 0.1, 0.2]])
        configs = [ModelConfig(pooling="mean", seed=i) for i in range(2)]
        return CandidatePool(model_ids=["m000", "m001"], configs=configs,
                             scores=scores, graph_ids=[0, 1, 2, 3])

    def test_auc_bookkeeping(self):
        pool = self.make_pool()
        flags = np.array([False, False, True, True])
        from glad.selection import hits_select
        sel = {"hits": hits_select(pool)}
        rep = evaluate_pool(pool, sel, flags, n_dropped=1, notices=["x"])
        np.testing.assert_allclose(rep.model_auc, [1.0, 0.0])
        assert rep.pool_mean_auc == 0.5 and rep.pool_best_auc == 1.0
        assert rep.n_models == 2 and rep.n_dropped == 1
        assert rep.notices == ["x"]
        assert set(rep.method_auc) == {"hits"}

    def test_write_report(self, tmp_path):
        pool = self.make_pool()
        flags = np.array([False, False, True, True])
        from glad.selection import hits_select
        sel = {"hits": hits_select(pool)}
        rep = evaluate_pool(pool, sel, flags, n_dropped=0)
        path = tmp_path / "report.txt"
        write_report(rep, pool, sel, path, elapsed=1.23)
        text = path.read_text()
        assert "models_kept = 2" in text
        assert "elapsed_seconds = 1.2" in text
        assert "pool_mean_auc = 0.5" in text
        assert "auc[hits] = 1 (m000)" in text


class TestRunPipeline:
    def cfg(self, out, seed=0):
        return PipelineConfig(out_dir=out, master_seed=seed,
                              bench=TINY_BENCH, grid_spec=TINY_GRID)

    def test_artifacts_and_report(self, tmp_path):
        t0 = time.monotonic()
        report, pool, selections = run_pipeline(self.cfg(tmp_path / "run"))
        wall = time.monotonic() - t0
        out = tmp_path / "run"
        for name in ("pool_configs.csv", "pool_scores.csv", "report.txt",
                     "selected_hits.csv", "selection_meta_hits.txt",
                     "selected_hits_ens.csv", "selection_meta_hits_ens.txt",
                     "selected_mc.csv", "selected_udr.csv"):
            assert (out / name).exists(), name
        assert pool.scores.shape == (3, 8)
        assert set(selections) == {"hits", "hits-ens", "mc", "udr"}
        assert set(report.method_auc) == set(selections)
        for auc in report.method_auc.values():
            assert 0.0 <= auc <= 1.0
        text = (out / "report.txt").read_text()
        assert "models_kept = 3" in text
        assert "did not converge" not in text
        elapsed = float(re.search(r"^elapsed_seconds = (.*)$", text,
                                  re.M).group(1))
        assert 0.0 <= elapsed <= round(wall, 1)

    def test_same_seed_runs_are_byte_identical(self, tmp_path):
        run_pipeline(self.cfg(tmp_path / "a", seed=5))
        run_pipeline(self.cfg(tmp_path / "b", seed=5))
        for name in ("pool_configs.csv", "pool_scores.csv"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    def test_returns_the_pool_it_wrote_with_its_drops(self, tmp_path):
        # lr 1e9 diverges: the returned pool is the one read back from the
        # files, with the dropped candidates it was trained with.
        grid = {"common": {"epochs": [5], "batch_size": [8], "d_hidden": [8]},
                "mean": {"lr": [1e-3, 1e9], "seed": [0, 1]}}
        out = tmp_path / "run"
        report, pool, _ = run_pipeline(
            PipelineConfig(out_dir=out, bench=TINY_BENCH, grid_spec=grid))
        assert [mid for mid, _ in pool.dropped] == ["m002", "m003"]
        assert report.n_dropped == 2
        saved = load_pool(out)
        assert pool.model_ids == saved.model_ids == ["m000", "m001"]
        assert pool.scores.tobytes() == saved.scores.tobytes()
        assert pool.graph_ids == saved.graph_ids
        flags = generate_benchmark(TINY_BENCH, 0)[1].anomaly_flags
        assert report.model_auc.tolist() == [roc_auc(r, flags)
                                             for r in saved.scores]

    def test_udr_skipped_without_seed_variation(self, tmp_path):
        grid = {"common": TINY_GRID["common"],
                "mean": {"layers": [1, 2], "weight_decay": [1e-4],
                         "lr": [1e-3], "seed": [0]}}
        cfg = PipelineConfig(out_dir=tmp_path / "run", bench=TINY_BENCH,
                             grid_spec=grid)
        report, _, selections = run_pipeline(cfg)
        assert "udr" not in selections
        assert any("udr skipped" in n for n in report.notices)
        assert not (tmp_path / "run" / "selected_udr.csv").exists()

    def test_hits_non_convergence_is_a_notice(self, tmp_path, monkeypatch):
        monkeypatch.setattr(gsel, "HITS_MAX_ITER", 1)
        report, _, selections = run_pipeline(self.cfg(tmp_path / "run"))
        text = (tmp_path / "run" / "report.txt").read_text()
        for method in ("hits", "hits-ens"):
            residual = selections[method].residual
            assert residual > gsel.HITS_TOL
            note = (f"selection {method} did not converge "
                    f"(residual {residual:.3e})")
            assert note in report.notices
            assert f"notice: {note}\n" in text
        assert not any("selection mc" in n or "selection udr" in n
                       for n in report.notices)


class TestCli:
    def write_grid(self, path):
        path.write_text("[common]\nepochs = 2\nbatch_size = 8\n"
                        "d_hidden = 6\n\n[mean]\nlayers = 1\n"
                        "weight_decay = 1e-4\nlr = 1e-3\nseed = 0, 1\n")

    def test_generate_train_select_evaluate(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert cli.main(["generate", "--out", str(data), "--n-train", "6",
                         "--n-test", "6", "--nodes", "10", "--labels", "2",
                         "--anomaly-rate", "0.2", "--seed", "1"]) == 0
        assert (data / "train" / "synthetic_A.txt").exists()

        grid = tmp_path / "grid.txt"
        self.write_grid(grid)
        pool_dir = tmp_path / "pool"
        assert cli.main(["train", "--data", str(data), "--grid", str(grid),
                         "--out", str(pool_dir), "--seed", "0"]) == 0
        assert (pool_dir / "pool_scores.csv").exists()

        scores = tmp_path / "scores.csv"
        assert cli.main(["select", "--pool", str(pool_dir), "--method",
                         "hits", "--out", str(scores)]) == 0
        assert scores.read_text().startswith("graph_id,score\n")
        assert (tmp_path / "selection_meta_hits.txt").exists()

        test_db = load_tu_dataset(data / "test")
        flags = tmp_path / "flags.csv"
        rows = ["graph_id,flag"] + [
            f"{g.graph_id},{int(f)}"
            for g, f in zip(test_db.graphs, test_db.anomaly_flags)]
        flags.write_text("\n".join(rows) + "\n")
        result = tmp_path / "eval.txt"
        assert cli.main(["evaluate", "--scores", str(scores), "--flags",
                         str(flags), "--out", str(result)]) == 0
        text = result.read_text()
        assert "roc_auc = " in text and "graphs = 6" in text
        out = capsys.readouterr().out
        assert "roc_auc = " in out

    def test_train_names_dropped_candidates(self, tmp_path, capsys):
        data, grid = tmp_path / "data", tmp_path / "grid.txt"
        assert cli.main(["generate", "--out", str(data), "--n-train", "6",
                         "--n-test", "6", "--nodes", "10", "--labels", "2",
                         "--anomaly-rate", "0.2"]) == 0
        grid.write_text("[common]\nepochs = 5\nbatch_size = 8\nd_hidden = 6\n"
                        "\n[mean]\nlr = 1e-3, 1e9\n")  # 1e9 diverges
        capsys.readouterr()
        assert cli.main(["train", "--data", str(data), "--grid", str(grid),
                         "--out", str(tmp_path / "pool")]) == 0
        out, err = capsys.readouterr()
        assert err == "dropped m001: non-finite loss in epoch 2\n"
        assert out.startswith("trained 1 of 2 candidates;")

    def test_bad_weights_and_attributes_exit_2(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert cli.main(["generate", "--out", str(data), "--n-train", "6",
                         "--n-test", "6", "--nodes", "10", "--labels", "2",
                         "--anomaly-rate", "0.2"]) == 0
        grid = tmp_path / "grid.txt"
        self.write_grid(grid)
        train = ["train", "--data", str(data), "--grid", str(grid),
                 "--out", str(tmp_path / "pool")]
        a_path = data / "train" / "synthetic_A.txt"
        first, rest = a_path.read_text().split("\n", 1)
        for w in ("0", "-1", "nan", "inf"):
            a_path.write_text(f"{first}, {w}\n{rest}")
            assert cli.main(train) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {a_path}:1: bad edge: weight {w}")
        n_total = len((data / "train" / "synthetic_graph_indicator.txt")
                      .read_text().split())
        for line, why in [  # ids past the end, then a column too few or many
                (f"{n_total + 1}, 1", "node id out of range in"),
                (f"1, {n_total + 1}", "node id out of range in"),
                ("1", "expected 'i, j[, w]', got"),
                ("1, 2, 1.0, 7", "expected 'i, j[, w]', got")]:
            a_path.write_text(f"{line}\n{first}\n{rest}")
            assert cli.main(train) == 2
            assert capsys.readouterr().err == (
                f"error: {a_path}:1: bad edge: {why} {line!r}\n")
        a_path.write_text(f"{first}\n{rest}")
        attrs = data / "test" / "synthetic_node_attributes.txt"
        n_nodes = len((data / "test" / "synthetic_graph_indicator.txt")
                      .read_text().split())
        for bad in ("nan", "inf"):
            attrs.write_text("1.5\n" + f"{bad}\n" + "0.5\n" * (n_nodes - 2))
            assert cli.main(train) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {attrs}:2: bad attribute row")
        assert not (tmp_path / "pool").exists()

    def test_integer_past_int64_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert cli.main(["generate", "--out", str(data), "--n-train", "6",
                         "--n-test", "6", "--nodes", "10", "--labels", "2",
                         "--anomaly-rate", "0.2"]) == 0
        grid = tmp_path / "grid.txt"
        self.write_grid(grid)
        ind = data / "train" / "synthetic_graph_indicator.txt"
        ind.write_text("99999999999999999999\n" + ind.read_text())
        assert cli.main(["train", "--data", str(data), "--grid", str(grid),
                         "--out", str(tmp_path / "pool")]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {ind}:1: bad graph id: ")

    def test_empty_graph_indicator_exits_2(self, tmp_path, capsys):
        data, grid = tmp_path / "data", tmp_path / "grid.txt"
        self.generate_split(data)
        self.write_grid(grid)
        ind = data / "train" / "synthetic_graph_indicator.txt"
        ind.write_text("")
        assert cli.main(["train", "--data", str(data), "--grid", str(grid),
                         "--out", str(tmp_path / "pool")]) == 2
        assert capsys.readouterr().err == f"error: {ind}: no nodes\n"

    @staticmethod
    def generate_split(data, **attribute_rows):
        """A generated split; each side named in ``attribute_rows`` trades
        its node labels for that attribute row on every node."""
        assert cli.main(["generate", "--out", str(data), "--n-train", "6",
                         "--n-test", "6", "--nodes", "10", "--labels", "2",
                         "--anomaly-rate", "0.2"]) == 0
        for side, row in attribute_rows.items():
            (data / side / "synthetic_node_labels.txt").unlink()
            n_nodes = len((data / side / "synthetic_graph_indicator.txt")
                          .read_text().split())
            (data / side / "synthetic_node_attributes.txt").write_text(
                f"{row}\n" * n_nodes)

    def test_huge_attributes_exit_2(self, tmp_path, capsys):
        # Finite attributes of 1e300 overflow the embeddings, so the first
        # Nystrom refit gets a NaN bandwidth.
        data, grid = tmp_path / "data", tmp_path / "grid.txt"
        self.generate_split(data, train="1e300, 1, 2", test="1e300, 1, 2")
        grid.write_text("[mmd]\nnystrom_k = 4\nepochs = 2\nd_hidden = 6\n")
        assert cli.main(["train", "--data", str(data), "--grid", str(grid),
                         "--out", str(tmp_path / "pool")]) == 2
        assert capsys.readouterr().err.startswith(
            "error: all 1 candidates failed; first dropped m000: refresh "
            "failed in epoch 0: gamma must be positive, got nan\n")
        assert not (tmp_path / "pool").exists()

    def test_attribute_widths_differ_exit_2(self, tmp_path, capsys):
        data, grid = tmp_path / "data", tmp_path / "grid.txt"
        self.generate_split(data, train="1, 2, 3", test="1, 2, 3, 4")
        self.write_grid(grid)
        assert cli.main(["train", "--data", str(data), "--grid", str(grid),
                         "--out", str(tmp_path / "pool")]) == 2
        assert capsys.readouterr().err == (
            f"error: {data}: attributes features are 3 wide in train/ but "
            f"4 in test/\n")
        assert not (tmp_path / "pool").exists()

    def test_labels_in_train_only_use_degrees(self, tmp_path, capsys):
        # The feature kind is the first one both sides carry: here degrees,
        # since test/ has neither labels nor attributes.
        data, grid = tmp_path / "data", tmp_path / "grid.txt"
        self.generate_split(data)
        (data / "test" / "synthetic_node_labels.txt").unlink()
        train, test = cli._load_split_dir(data)
        assert train.d_in == test.d_in == DEFAULT_DEGREE_CAP + 1
        degrees = derive_features(load_tu_dataset(data / "train"),
                                  "one_hot_degree")
        for g, h in zip(train.graphs, degrees.graphs):
            np.testing.assert_array_equal(g.features, h.features)
        self.write_grid(grid)
        assert cli.main(["train", "--data", str(data), "--grid", str(grid),
                         "--out", str(tmp_path / "pool")]) == 0
        assert "trained 2 of 2 candidates" in capsys.readouterr().out

    def test_flagged_training_graph_exits_2(self, tmp_path, capsys):
        # train/ is the clean split: a flag of 1 there is refused with
        # its file and line, and a file of zeros trains.
        data, grid = tmp_path / "data", tmp_path / "grid.txt"
        self.generate_split(data)
        self.write_grid(grid)
        flags = data / "train" / "synthetic_anomaly_flags.txt"
        train = ["train", "--data", str(data), "--grid", str(grid),
                 "--out", str(tmp_path / "pool")]
        flags.write_text("0\n0\n0\n1\n0\n0\n")
        assert cli.main(train) == 2
        assert capsys.readouterr().err == (
            f"error: {flags}:4: bad anomaly flag: 1 in a training split\n")
        assert not (tmp_path / "pool").exists()
        flags.write_text("0\n" * 6)
        assert cli.main(train) == 0
        assert "trained 2 of 2 candidates" in capsys.readouterr().out

    def test_sizes_past_int64_exit_2(self, tmp_path, capsys):
        # A 20-digit integer is refused where each input is read, before
        # numpy sizes an array or a loop by it.
        huge = "99999999999999999999"
        data, grid = tmp_path / "data", tmp_path / "grid.txt"
        self.generate_split(data)
        grid.write_text(f"[mean]\nepochs = 2\nd_hidden = {huge}\n")
        ini, tu = tmp_path / "run.ini", tmp_path / "tu.ini"
        ini.write_text(f"[run]\nout_dir = {tmp_path / 'out'}\n\n[data]\n"
                       f"n_train = {huge}\n")
        tu.write_text(f"[run]\nout_dir = {tmp_path / 'out'}\n\n[data]\n"
                      f"source = tu\ndirectory = {data / 'test'}\n"
                      f"feature_kind = one_hot_degree\ndegree_cap = {huge}\n")
        pool = tmp_path / "pool"
        self.write_grid(tmp_path / "small.txt")
        assert cli.main(["train", "--data", str(data), "--grid",
                         str(tmp_path / "small.txt"), "--out", str(pool)]) == 0
        configs = pool / "pool_configs.csv"
        head, row, rest = configs.read_text().split("\n", 2)
        configs.write_text(f"{head}\n{row.replace('mean,1,', f'mean,{huge},', 1)}"
                           f"\n{rest}")
        capsys.readouterr()
        for argv, named in (
                (["train", "--data", str(data), "--grid", str(grid), "--out",
                  str(tmp_path / "o")], f"{grid}: d_hidden must be below"),
                (["generate", "--out", str(tmp_path / "g"), "--nodes", huge],
                 "bad generate option: nodes must be below"),
                (["pipeline", "--config", str(ini)],
                 f"{ini}: bad value for [data] n_train: '{huge}'"),
                (["pipeline", "--config", str(tu)],
                 f"{tu}: bad value for [data] degree_cap: '{huge}'"),
                (["select", "--pool", str(pool), "--method", "udr", "--out",
                  str(tmp_path / "s.csv")], f"{configs}:2: bad config row: "
                                            f"layers must be below")):
            assert cli.main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(f"error: {named}") and err.count("\n") == 1, err
        assert not (tmp_path / "o").exists() and not (tmp_path / "g").exists()
        assert not (tmp_path / "out").exists()

    def test_pipeline_kind_the_data_lacks_exits_2(self, tmp_path, capsys):
        data, ini = tmp_path / "data", tmp_path / "run.ini"
        self.generate_split(data)
        ini.write_text(f"[run]\nout_dir = {tmp_path / 'out'}\n\n[data]\n"
                       f"source = tu\ndirectory = {data / 'train'}\n"
                       f"feature_kind = attributes\n")
        capsys.readouterr()
        assert cli.main(["pipeline", "--config", str(ini)]) == 2
        assert capsys.readouterr().err == (
            f"error: {data / 'train'}: attributes kind requires node "
            f"attributes\n")

    def test_pipeline_labels_the_data_lacks_exits_2(self, tmp_path, capsys):
        # The missing labels are named, before any alphabet is built.
        data, ini = tmp_path / "data", tmp_path / "run.ini"
        self.generate_split(data, train="1, 2")
        ini.write_text(f"[run]\nout_dir = {tmp_path / 'out'}\n\n[data]\n"
                       f"source = tu\ndirectory = {data / 'train'}\n"
                       f"feature_kind = one_hot_label\n")
        capsys.readouterr()
        assert cli.main(["pipeline", "--config", str(ini)]) == 2
        assert capsys.readouterr().err == (
            f"error: {data / 'train'}: one_hot_label requires node labels "
            f"on every graph\n")

    def test_sizes_past_memory_exit_2(self, tmp_path, capsys):
        # Sizes below 2**63 whose arrays are far past any address space:
        # the allocation is refused at once, and touches no memory.
        huge = "1000000000000000"
        data, grid = tmp_path / "data", tmp_path / "grid.txt"
        self.generate_split(data)
        grid.write_text(f"[mean]\nd_hidden = {huge}\n")
        tu = tmp_path / "tu.ini"
        tu.write_text(f"[run]\nout_dir = {tmp_path / 'out'}\n\n[data]\n"
                      f"source = tu\ndirectory = {data / 'test'}\n"
                      f"feature_kind = one_hot_degree\ndegree_cap = {huge}\n")
        capsys.readouterr()
        for argv in (["train", "--data", str(data), "--grid", str(grid),
                      "--out", str(tmp_path / "pool")],
                     ["pipeline", "--config", str(tu)]):
            assert cli.main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: Unable to allocate ") and (
                err.count("\n") == 1), err
        assert not (tmp_path / "pool").exists()

    def test_pipeline_subcommand(self, tmp_path, capsys):
        grid = tmp_path / "grid.txt"
        self.write_grid(grid)
        ini = tmp_path / "run.ini"
        ini.write_text(f"""\
[run]
out_dir = {tmp_path / 'out'}
master_seed = 2

[selection]
methods = hits

[grid]
file = {grid}

[data]
source = generate
n_train = 6
n_test = 6
anomaly_rate = 0.2
nodes = 10
labels = 2
""")
        assert parse_pipeline_config(ini).grid_spec == parse_grid_file(grid)
        assert cli.main(["pipeline", "--config", str(ini)]) == 0
        assert (tmp_path / "out" / "report.txt").exists()
        assert "auc[hits]" in capsys.readouterr().out

    def test_pipeline_selections_equal_select_on_its_pool(self, tmp_path):
        # The pipeline selects on the pool as written, so `glad select` on
        # its out_dir reproduces each selection file and its meta text,
        # and runs into one directory keep one meta file per method.
        grid, ini = tmp_path / "grid.txt", tmp_path / "run.ini"
        out = tmp_path / "out"
        grid.write_text("[common]\nepochs = 2\nbatch_size = 8\n"
                        "d_hidden = 6\nlayers = 1\n\n[mean]\nseed = 0, 1\n"
                        "lr = 1e-3, 1e-2\n\n[mmd]\nnystrom_k = 4\n")
        ini.write_text(f"[run]\nout_dir = {out}\nmaster_seed = 3\n\n"
                       f"[grid]\nfile = {grid}\n\n[data]\nn_train = 8\n"
                       "n_test = 40\nanomaly_rate = 0.2\nnodes = 10\n"
                       "labels = 2\n")
        assert cli.main(["pipeline", "--config", str(ini)]) == 0
        sel = tmp_path / "sel"
        for method in gsel.METHODS:
            tag = method.replace("-", "_")
            assert cli.main(["select", "--pool", str(out), "--method", method,
                             "--out", str(sel / f"{tag}.csv")]) == 0
            assert (sel / f"{tag}.csv").read_bytes() == (
                out / f"selected_{tag}.csv").read_bytes(), method
        for method in gsel.METHODS:
            meta = f"selection_meta_{method.replace('-', '_')}.txt"
            assert (sel / meta).read_bytes() == (out / meta).read_bytes()

    def test_pipeline_negative_class_id(self, tmp_path, capsys):
        class_of = write_signed_tu(tmp_path / "tu")
        grid, ini = tmp_path / "grid.txt", tmp_path / "run.ini"
        self.write_grid(grid)
        ini.write_text(f"[run]\nout_dir = {tmp_path / 'out'}\n\n[grid]\n"
                       f"file = {grid}\n\n[data]\nsource = tu\n"
                       f"directory = {tmp_path / 'tu'}\ninlier_class = -1\n")
        train, _ = build_dataset(parse_pipeline_config(ini))
        assert {class_of[g] for g in train.graph_ids} == {-1}
        assert cli.main(["pipeline", "--config", str(ini)]) == 0
        assert (tmp_path / "out" / "report.txt").exists()

    @pytest.mark.parametrize("key,raw", [
        ("anomaly_rate", "1"), ("anomaly_rate", "2"),
        ("train_fraction", "0"), ("train_fraction", "nan")])
    def test_pipeline_fraction_refused_before_load(self, tmp_path, capsys,
                                                   key, raw):
        # The directory does not exist: the key is named, not the directory.
        ini = tmp_path / "run.ini"
        ini.write_text(f"[run]\nout_dir = {tmp_path / 'out'}\n\n[data]\n"
                       f"source = tu\ndirectory = {tmp_path / 'none'}\n"
                       f"{key} = {raw}\n")
        assert cli.main(["pipeline", "--config", str(ini)]) == 2
        assert capsys.readouterr().err == (
            f"error: {ini}: bad value for [data] {key}: '{raw}'\n")
        assert not (tmp_path / "out").exists()

    def test_pipeline_percent_paths(self, tmp_path, capsys):
        # A % in a path is a plain character, never a traceback.
        grid, ini = tmp_path / "grid.txt", tmp_path / "run.ini"
        self.write_grid(grid)
        out = tmp_path / "50%done"
        head = f"[run]\nout_dir = {out}\n\n[grid]\nfile = {grid}\n\n[data]\n"
        ini.write_text(head + "n_train = 6\nn_test = 6\nanomaly_rate = 0.2\n"
                              "nodes = 10\nlabels = 2\n")
        assert cli.main(["pipeline", "--config", str(ini)]) == 0
        assert (out / "report.txt").exists()
        capsys.readouterr()
        ini.write_text(head + f"source = tu\ndirectory = {tmp_path / 'd%x'}\n")
        assert cli.main(["pipeline", "--config", str(ini)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path / "d%x") in err

    def test_huge_grid_fails_fast(self, tmp_path, capsys):
        # four 1,000-value keys: 10^12 configs, 19.6 KB of text
        values = ", ".join(str(v) for v in range(1, 1001))
        grid = tmp_path / "huge.txt"
        grid.write_text("[mean]\n" + "".join(
            f"{k} = {values}\n"
            for k in ("layers", "epochs", "batch_size", "d_hidden")))
        data = tmp_path / "data"
        assert cli.main(["generate", "--out", str(data), "--n-train", "6",
                         "--n-test", "6", "--nodes", "10", "--labels", "2",
                         "--anomaly-rate", "0.2"]) == 0
        ini = tmp_path / "run.ini"
        ini.write_text(f"[run]\nout_dir = {tmp_path / 'out'}\n\n"
                       f"[grid]\nfile = {grid}\n")
        # The grid is checked before the data is loaded, so a missing data
        # directory does not hide it.
        for argv in (["train", "--data", str(data), "--grid", str(grid),
                      "--out", str(tmp_path / "pool")],
                     ["train", "--data", str(tmp_path / "no_data"), "--grid",
                      str(grid), "--out", str(tmp_path / "pool")],
                     ["pipeline", "--config", str(ini)]):
            t0 = time.perf_counter()
            assert cli.main(argv) == 2
            assert time.perf_counter() - t0 < 1.0
            err = capsys.readouterr().err
            assert err.startswith(f"error: {grid}: grid expands to "
                                  "1000000000000 configurations")

    def test_step_limit_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert cli.main(["generate", "--out", str(data), "--n-train", "6",
                         "--n-test", "6", "--nodes", "10", "--labels", "2",
                         "--anomaly-rate", "0.2"]) == 0
        grid, ini = tmp_path / "grid.txt", tmp_path / "run.ini"
        ini.write_text(f"[run]\nout_dir = {tmp_path / 'out'}\n\n[grid]\n"
                       f"file = {grid}\n\n[data]\nn_train = 6\nn_test = 6\n"
                       "anomaly_rate = 0.2\nnodes = 10\nlabels = 2\n")
        train = ["train", "--grid", str(grid), "--out", str(tmp_path / "pool"),
                 "--data"]
        # Past MAX_STEPS on one graph: refused before the data is loaded.
        grid.write_text("[mean]\nepochs = 1000000000000\n")
        for argv in (train + [str(data)], train + [str(tmp_path / "none")],
                     ["pipeline", "--config", str(ini)]):
            t0 = time.perf_counter()
            assert cli.main(argv) == 2
            assert time.perf_counter() - t0 < 1.0
            assert capsys.readouterr().err == (
                f"error: {grid}: epochs 1000000000000 makes 1000000000000 "
                "training steps on 1 graphs, more than 10000000\n")
        # Within it on one graph, past it on the 6 loaded training graphs.
        grid.write_text("[mean]\nepochs = 5000000\nbatch_size = 1\n")
        for argv in (train + [str(data)], ["pipeline", "--config", str(ini)]):
            assert cli.main(argv) == 2
            assert capsys.readouterr().err == (
                "error: epochs 5000000 makes 30000000 training steps on 6 "
                "graphs, more than 10000000\n")
        # Each command makes its output directory only to write the pool.
        assert not (tmp_path / "pool").exists()
        assert not (tmp_path / "out").exists()

    def test_evaluate_rejects_bad_rows(self, tmp_path, capsys):
        scores, flags = tmp_path / "scores.csv", tmp_path / "flags.csv"
        argv = ["evaluate", "--scores", str(scores), "--flags", str(flags),
                "--out", str(tmp_path / "e.txt")]
        scores.write_text("graph_id,score\n1,0.5\n 2 ,0.25\n")
        for body, want in [
                ("1,0\n2,2\n", ":3: bad flag row: must be 0 or 1, got 2"),
                ("1,0\n2,1.0\n", ":3: bad flag row: invalid literal"),
                ("1,0\n1,1\n", ":3: bad flag row: duplicate graph id 1"),
                ("1,0\n\n2,1,3\n", ":4: bad flag row: expected two"),
                ("", ": no data rows")]:
            flags.write_text("graph_id,flag\n" + body)
            assert cli.main(argv) == 2
            assert capsys.readouterr().err.startswith(f"error: {flags}{want}")
        flags.write_text("graph_id,flag\n2,1\n1,0\n")
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("graphs = 2\nflagged = 1\nroc_auc = 0")
        scores.write_text("graph_id,score\n1,0.5\n2,-inf\n")
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {scores}:3: bad score row: non-finite value -inf")
        # A blank id (after strip) is refused, not matched to a flag.
        scores.write_text("graph_id,score\n,0.5\n2,0.7\n")
        flags.write_text("graph_id,flag\n,1\n2,0\n")
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {scores}:2: bad score row: blank graph id")
        scores.write_text("graph_id,score\n1,0.5\n2,0.7\n")
        flags.write_text("graph_id,flag\n1,1\n \t,0\n")
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {flags}:3: bad flag row: blank graph id")
        scores.write_text("id,score\n1,0.5\n2,0.7\n")
        flags.write_text("graph_id,flag\n1,1\n2,0\n")
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {scores}:1: expected header 'graph_id,score'\n")

    def test_evaluate_reads_spellings_numpy_refuses(self, tmp_path, capsys):
        # "1_0" sends a file to the line reader, which keeps ids and values.
        scores, flags = tmp_path / "scores.csv", tmp_path / "flags.csv"
        scores.write_text("graph_id,score\n7,1_0\n8,0.5\n9,2.5\n")
        flags.write_text("graph_id,flag\n9,0\n8,0\n7,1\n")
        assert cli.main(["evaluate", "--scores", str(scores), "--flags",
                         str(flags), "--out", str(tmp_path / "e.txt")]) == 0
        assert capsys.readouterr().out == (
            "graphs = 3\nflagged = 1\nroc_auc = 1\n")

    def test_evaluate_empty_file_names_line_1(self, tmp_path, capsys):
        scores, flags = tmp_path / "scores.csv", tmp_path / "flags.csv"
        scores.write_text("\n \n")
        flags.write_text("graph_id,flag\n1,1\n")
        assert cli.main(["evaluate", "--scores", str(scores), "--flags",
                         str(flags), "--out", str(tmp_path / "e.txt")]) == 2
        assert capsys.readouterr().err == (
            f"error: {scores}:1: expected header 'graph_id,score'\n")

    def test_select_prints_its_pick(self, tmp_path, capsys):
        # Model m001 agrees most with the others; the ensemble has no pick.
        pool = CandidatePool(
            model_ids=["m000", "m001", "m002"],
            configs=[ModelConfig(pooling="mean", seed=s) for s in range(3)],
            scores=np.array([[0.1, 0.2, 0.3, 0.9], [0.2, 0.1, 0.3, 0.9],
                             [0.9, 0.1, 0.3, 0.2]]), graph_ids=[1, 2, 3, 4])
        save_pool(pool, tmp_path / "pool")
        for method, who in (("mc", "m001"), ("hits-ens", "ensemble")):
            out = tmp_path / f"{method}.csv"
            assert cli.main(["select", "--pool", str(tmp_path / "pool"),
                             "--method", method, "--out", str(out)]) == 0
            assert capsys.readouterr().out == f"{method}: {who} -> {out}\n"
        # mc runs no recursion: zero iterations, zero residual.
        assert (tmp_path / "selection_meta_mc.txt").read_text() == (
            "method = mc\nselected_model = m001\niterations = 0\n"
            "residual = 0.000e+00\n")

    def test_default_seeds_and_workers(self, tmp_path, monkeypatch):
        import glad.trainer as gt
        small = ["--n-train", "4", "--n-test", "4", "--nodes", "6",
                 "--anomaly-rate", "0.25"]
        for name, seed in (("default", []), ("zero", ["--seed", "0"])):
            assert cli.main(["generate", "--out", str(tmp_path / name),
                             *small, *seed]) == 0
        for f in (tmp_path / "zero").rglob("*.txt"):
            assert (tmp_path / "default" / f.relative_to(
                tmp_path / "zero")).read_bytes() == f.read_bytes()
        calls, run = [], gt.run_grid

        def recorded(*args, **kw):
            calls.append(kw)
            return run(*args, **kw)

        monkeypatch.setattr(gt, "run_grid", recorded)
        self.write_grid(tmp_path / "grid.txt")
        assert cli.main(["train", "--data", str(tmp_path / "zero"), "--grid",
                         str(tmp_path / "grid.txt"), "--out",
                         str(tmp_path / "pool")]) == 0
        assert calls == [{"workers": 1, "base_seed": 0}]

    def test_dead_worker_exits_2(self, tmp_path, capsys, monkeypatch):
        # A worker that dies mid-grid ends both commands in one error line.
        import glad.trainer as gt
        data, grid = tmp_path / "data", tmp_path / "grid.txt"
        assert cli.main(["generate", "--out", str(data), "--n-train", "6",
                         "--n-test", "6", "--nodes", "10"]) == 0
        self.write_grid(grid)
        ini = tmp_path / "run.ini"
        ini.write_text(f"[run]\nout_dir = {tmp_path / 'out'}\nworkers = 2\n"
                       f"\n[grid]\nfile = {grid}\n\n[data]\nn_train = 6\n"
                       f"n_test = 6\nnodes = 10\n")
        fit, parent, died = gt._train_and_score, os.getpid(), tmp_path / "d"

        def die_in_worker(*args):
            # This process waits for the worker to take a candidate and die.
            if os.getpid() != parent:
                died.touch()
                os._exit(3)
            deadline = time.monotonic() + 60
            while not died.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            return fit(*args)

        monkeypatch.setattr(gt, "_train_and_score", die_in_worker)
        capsys.readouterr()
        for argv in (["train", "--data", str(data), "--grid", str(grid),
                      "--out", str(tmp_path / "pool"), "--workers", "2"],
                     ["pipeline", "--config", str(ini)]):
            assert cli.main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: a worker process died"), err
            assert err.count("\n") == 1, err
            died.unlink()
        assert not (tmp_path / "pool").exists()

    def test_domain_errors_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nothing"
        assert cli.main(["select", "--pool", str(missing), "--method",
                         "hits", "--out", str(tmp_path / "s.csv")]) == 2
        assert "error:" in capsys.readouterr().err
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "pool_configs.csv").write_text(
            "model_id," + ",".join(f.name for f in fields(ModelConfig)) + "\n")
        (empty / "pool_scores.csv").write_text("model_id,1,2\n")
        for method in ("hits", "hits-ens"):
            assert cli.main(["select", "--pool", str(empty), "--method",
                             method, "--out", str(tmp_path / "s.csv")]) == 2
            assert capsys.readouterr().err == (
                f"error: {empty / 'pool_configs.csv'}: no model rows\n")
        assert not (tmp_path / "s.csv").exists()
        # Graph ids that collide once read as integers.
        (empty / "pool_configs.csv").write_text(
            (empty / "pool_configs.csv").read_text()
            + "m000,mean,1,1e-05,0.0001,0,,2,8,6\n"
            + "m001,mean,1,1e-05,0.0001,1,,2,8,6\n")
        (empty / "pool_scores.csv").write_text(
            "model_id,1, 1,2\nm000,0.5,0.25,0.75\nm001,0.5,0.75,0.25\n")
        assert cli.main(["select", "--pool", str(empty), "--method", "mc",
                         "--out", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err == (
            f"error: {empty / 'pool_scores.csv'}:1: graph ids must be "
            f"unique\n")
        (empty / "pool_scores.csv").write_text(
            "model,1,2\nm000,0.5,0.25\nm001,0.5,0.75\n")
        assert cli.main(["select", "--pool", str(empty), "--method", "mc",
                         "--out", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err == (
            f"error: {empty / 'pool_scores.csv'}:1: bad header\n")
        # A repeated config row is refused, not overwritten by the later one.
        (empty / "pool_scores.csv").write_text(
            "model_id,1,2\nm000,0.5,0.25\nm001,0.5,0.75\n")
        configs = (empty / "pool_configs.csv").read_text()
        (empty / "pool_configs.csv").write_text(
            configs + configs.splitlines()[1] + "\n")
        assert cli.main(["select", "--pool", str(empty), "--method", "mc",
                         "--out", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err == (
            f"error: {empty / 'pool_configs.csv'}:4: duplicate model id "
            f"m000\n")
        assert not (tmp_path / "s.csv").exists()

        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n1,2\n")
        assert cli.main(["evaluate", "--scores", str(bad), "--flags",
                         str(bad), "--out", str(tmp_path / "e.txt")]) == 2
        assert "error:" in capsys.readouterr().err

        nan = tmp_path / "nan.csv"
        nan.write_text("graph_id,score\n1,0.5\n2,nan\n")
        flags = tmp_path / "flags.csv"
        flags.write_text("graph_id,flag\n1,0\n2,1\n")
        assert cli.main(["evaluate", "--scores", str(nan), "--flags",
                         str(flags), "--out", str(tmp_path / "e.txt")]) == 2
        assert f"{nan}:3:" in capsys.readouterr().err

        data = tmp_path / "data"
        assert cli.main(["generate", "--out", str(data), "--n-train", "6",
                         "--n-test", "6", "--nodes", "10", "--labels", "2",
                         "--anomaly-rate", "0.2"]) == 0
        grid = tmp_path / "both.txt"
        grid.write_text("[mmd]\nnystrom_k = 4\nnystrom_mult = 2.0\n")
        assert cli.main(["train", "--data", str(data), "--grid", str(grid),
                         "--out", str(tmp_path / "pool")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(grid) in err

        ini = tmp_path / "run.ini"
        ini.write_text(f"[run]\nout_dir = {tmp_path / 'out'}\n\n"
                       f"[grid]\nfile = {grid}\n\n[data]\nn_train = 6\n"
                       f"n_test = 6\nanomaly_rate = 0.2\nnodes = 10\n")
        assert cli.main(["pipeline", "--config", str(ini)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(grid) in err

        # Missing input files name the path instead of a traceback.
        gone = tmp_path / "missing.txt"
        good = tmp_path / "good.csv"
        good.write_text("graph_id,score\n1,0.5\n2,0.7\n")
        assert cli.main(["evaluate", "--scores", str(good), "--flags",
                         str(gone), "--out", str(tmp_path / "e.txt")]) == 2
        assert str(gone) in capsys.readouterr().err
        assert cli.main(["train", "--data", str(data), "--grid", str(gone),
                         "--out", str(tmp_path / "pool")]) == 2
        assert str(gone) in capsys.readouterr().err
        ini.write_text(ini.read_text().replace(str(grid), str(gone)))
        assert cli.main(["pipeline", "--config", str(ini)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(gone) in err

        # Malformed pipeline configs name the file instead of a traceback.
        run = f"[run]\nout_dir = {tmp_path / 'out'}\n"
        for body in (run + "\n[data]\nn_train = abc\n",
                     run + "workers = two\n",
                     run + "workers = 0\n",
                     run + "\n[data]\nanomaly_rate = 2\n",
                     "n_train = 3\n" + run,
                     run + "\n[run]\nworkers = 2\n",
                     run + f"\n[data]\nsource = tu\ndirectory = {data}\n"
                           "feature_kind = bogus\n"):
            ini.write_text(body)
            assert cli.main(["pipeline", "--config", str(ini)]) == 2, body
            err = capsys.readouterr().err
            assert err.startswith("error:") and str(ini) in err, body

        # Keys, sections and lines outside the INI dialect, or of the other
        # data source, end in one error line naming the file and the key,
        # section or line.
        for body, named in (
                (run + "worker = 2\n", "[run] worker"),
                (run + "\n[grid]\nfil = g.ini\n", "[grid] fil"),
                (run + "\n[selecton]\nmethods = hits\n", "[selecton]"),
                ("[DEFAULT]\nworkers = 0\n\n" + run, "[DEFAULT]"),
                (run + "\n[data]\nsource = tu\ndirectory = d\nnodes = 5\n",
                 "[data] nodes"),
                (run + "\n[data]\nsource = generate\ndegree_cap = 0\n",
                 "[data] degree_cap"),
                ("[run]\nout_dir: x\n", "[line 2]"),
                (run + "; note\n", "[line 3]"),
                ("[run]\nOUT_DIR = x\n", "[run] OUT_DIR")):
            ini.write_text(body)
            assert cli.main(["pipeline", "--config", str(ini)]) == 2, body
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1, body
            assert str(ini) in err and named in err, body

        for flag, bad in (("--ba-m", "0"), ("--anomaly-rate", "1.5"),
                          ("--n-train", "0"), ("--seed", "-1")):
            assert cli.main(["generate", "--out", str(tmp_path / "g"),
                             flag, bad]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and flag[2:].replace("-", "_") \
                in err
        for bad in ("0", "-0.5"):
            assert cli.main(["generate", "--out", str(tmp_path / "g"),
                             "--anomaly-rate", bad]) == 2
            assert capsys.readouterr().err == (
                f"error: bad generate option: anomaly_rate {float(bad)} "
                f"outside (0, 1)\n")
        assert not (tmp_path / "g").exists()
        # The smallest valid training set, attachment count and alphabet.
        assert cli.main(["generate", "--out", str(tmp_path / "g1"),
                         "--n-train", "1", "--ba-m", "1", "--labels", "1",
                         "--n-test", "4", "--nodes", "6"]) == 0
        assert "wrote 1 training and 4 test graphs" in capsys.readouterr().out

        # Negative seeds, on the command line or in a grid file.
        grid.write_text("[mean]\nepochs = 1\n")
        assert cli.main(["train", "--data", str(data), "--grid", str(grid),
                         "--out", str(tmp_path / "pool"), "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--seed" in err
        grid.write_text("[mean]\nseed = 0, -1\n")
        assert cli.main(["train", "--data", str(data), "--grid", str(grid),
                         "--out", str(tmp_path / "pool")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(grid) in err and "seed" in err
        assert not (tmp_path / "pool").exists()

        # A grid whose candidates all diverge, a non-finite rate and a
        # landmark count or multiplier below the valid range end in an
        # error line from both commands, not in a traceback.
        run_grid_ini = (f"[run]\nout_dir = {tmp_path / 'out'}\n\n"
                        f"[grid]\nfile = {grid}\n\n[data]\nn_train = 6\n"
                        f"n_test = 6\nanomaly_rate = 0.2\nnodes = 10\n")
        # A NaN rate is refused by name before any candidate trains.
        for body, *named in (("[mean]\nlr = 1e9\nepochs = 5\n", "m000"),
                             ("[mean]\nlr = nan\n", str(grid), "lr"),
                             ("[mmd]\nnystrom_k = -5\n", str(grid)),
                             ("[mmd]\nnystrom_mult = 0\n", str(grid))):
            grid.write_text(body)
            assert cli.main(["train", "--data", str(data), "--grid",
                             str(grid), "--out", str(tmp_path / "pool")]) \
                == 2, body
            err = capsys.readouterr().err
            assert err.startswith("error:") and all(
                n in err.splitlines()[0] for n in named), (body, err)
            ini.write_text(run_grid_ini)
            assert cli.main(["pipeline", "--config", str(ini)]) == 2, body
            err = capsys.readouterr().err
            assert err.startswith("error:") and all(
                n in err.splitlines()[0] for n in named), (body, err)
        assert not (tmp_path / "pool").exists()
        # A multiplier whose landmark count overflows a float takes every
        # training graph.
        grid.write_text("[mmd]\nnystrom_mult = 1e308\nepochs = 1\n"
                        "layers = 1\nd_hidden = 4\n")
        assert cli.main(["train", "--data", str(data), "--grid", str(grid),
                         "--out", str(tmp_path / "big")]) == 0
        row = (tmp_path / "big" / "pool_configs.csv").read_text().split()[1]
        assert row.split(",")[1] == "mmd" and row.split(",")[6] == "6"
        capsys.readouterr()

        # A worker count below 1 is an error, not a silent serial run.
        grid.write_text("[mean]\nepochs = 1\n")
        for bad in ("0", "-3"):
            assert cli.main(["train", "--data", str(data), "--grid",
                             str(grid), "--out", str(tmp_path / "pool"),
                             "--workers", bad]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "--workers" in err
        assert not (tmp_path / "pool").exists()

        # Scores and flags over different ids: both files and one id named.
        other = tmp_path / "other_flags.csv"
        other.write_text("graph_id,flag\n1,0\n3,1\n")
        assert cli.main(["evaluate", "--scores", str(good), "--flags",
                         str(other), "--out", str(tmp_path / "e.txt")]) == 2
        err = capsys.readouterr().err
        assert str(good) in err and str(other) in err
        assert "2 is only in " + str(good) in err

        # A byte that is not UTF-8 in a grid file, a pipeline config, an
        # evaluate CSV or a TU file names the file instead of a traceback.
        grid.write_bytes(b"[mean]\nepochs = 1\xff\n")
        ini.write_bytes(f"[run]\nout_dir = {tmp_path / 'out'}\n".encode()
                        + b"# \xff\n")
        scores = tmp_path / "latin.csv"
        scores.write_bytes(b"graph_id,score\n1,0.5\n2,0.7\xff\n")
        tu = tmp_path / "tu"
        for part in ("train", "test"):
            (tu / part).mkdir(parents=True)
            for f in (data / part).iterdir():
                (tu / part / f.name).write_bytes(f.read_bytes())
        edges = tu / "train" / "synthetic_A.txt"
        edges.write_bytes(edges.read_bytes().replace(b"\n", b"\xff\n", 1))
        grid_ok = tmp_path / "ok_grid.txt"
        grid_ok.write_text("[mean]\nepochs = 1\n")
        for argv, named in (
                (["train", "--data", str(data), "--grid", str(grid),
                  "--out", str(tmp_path / "pool")], grid),
                (["pipeline", "--config", str(ini)], ini),
                (["evaluate", "--scores", str(scores), "--flags", str(flags),
                  "--out", str(tmp_path / "e.txt")], scores),
                (["train", "--data", str(tu), "--grid", str(grid_ok),
                  "--out", str(tmp_path / "pool")], edges)):
            assert cli.main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(f"error: {named}: not utf-8 text"), err
        assert not (tmp_path / "pool").exists()

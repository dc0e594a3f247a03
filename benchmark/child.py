"""One round, or one set-up probe, of a workload in a fresh process.

``run.py`` starts this file; it is not meant to be run by hand.  It puts
the checkout's ``src`` first on the import path, imports glad, performs
the workload's set-up calls and, for a round, the workload itself, then
checks the outputs.  Times are ``time.perf_counter`` readings, which on
Linux share one monotonic clock across processes, so the parent can
measure from the moment it started this process.  The result goes to
``<work>/<mode>-<index>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import numpy as np  # noqa: E402

import glad  # noqa: E402
import glad.pipeline  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

METHODS = ("hits", "hits-ens", "mc", "udr")


class Outcome:
    """What one round did: AUC metrics, operation counts and checks."""

    def __init__(self):
        self.metrics = {}
        self.attempted = 0
        self.failed = 0

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def aucs(self, method_auc: dict, pool_mean: float) -> None:
        for m in METHODS:
            self.metrics["auc_" + m.replace("-", "_")] = method_auc.get(m, 0.0)
        self.metrics["auc_pool_mean"] = pool_mean


def select_all(pool, out: Outcome, directory: Path | None = None) -> dict:
    """Run every selection method; one that raises counts as failed."""
    selections = {}
    for m in METHODS:
        try:
            selections[m] = glad.selection.select(pool, m)
        except glad.GladError as exc:
            print(f"selection {m} failed: {exc}", file=sys.stderr)
            continue
        if directory is not None:
            tag = m.replace("-", "_")
            glad.selection.write_selection(
                selections[m], directory / f"selected_{tag}.csv",
                directory / f"selection_meta_{tag}.txt")
    out.count(len(METHODS), len(METHODS) - len(selections))
    return selections


def nothing(work: Path, seed: int):
    return None


# ---------------------------------------------------------------------------
# bench-pipeline
# ---------------------------------------------------------------------------

def bench_run(work: Path, seed: int, state, out_dir: Path) -> Outcome:
    cfg = glad.pipeline.PipelineConfig(
        out_dir=out_dir, master_seed=seed, workers=1, methods=METHODS,
        bench=glad.BenchmarkParams(**inputs.BENCH_SHAPE),
        grid_spec=inputs.BENCH_GRID)
    report, pool, selections = glad.pipeline.run_pipeline(cfg)
    out = Outcome()
    n_candidates = len(pool.model_ids) + len(pool.dropped)
    out.count(n_candidates, len(pool.dropped))
    out.count(len(METHODS), len(METHODS) - len(selections))
    out.aucs(report.method_auc, report.pool_mean_auc)
    out.pool, out.selections = pool, selections
    return out


def bench_check(work: Path, seed: int, state, out: Outcome, out_dir: Path):
    _, test_db = glad.generate_benchmark(
        glad.BenchmarkParams(**inputs.BENCH_SHAPE), seed)
    flag_of = dict(zip(test_db.graph_ids, test_db.anomaly_flags))
    flags = np.array([flag_of[g] for g in out.pool.graph_ids])
    reported = {}
    for line in (out_dir / "report.txt").read_text().splitlines():
        if line.startswith("auc["):
            name = line[4:line.index("]")]
            reported[name] = line.split("=", 1)[1].split()[0]
    pairs = {}
    for m in METHODS:
        path = out_dir / f"selected_{m.replace('-', '_')}.csv"
        rows = dict(r.split(",") for r in path.read_text().splitlines()[1:])
        scores = np.array([float(rows.get(str(g), "nan"))
                           for g in out.pool.graph_ids])
        pairs[m] = (reported.get(m, "missing"), scores)
    return checks.auc_checks("report", pairs, flags) + pool_checks(out, flags)


def pool_checks(out: Outcome, flags):
    """Oracles shared by the two workloads that train a pool."""
    pool = out.pool
    mean = float(np.mean([checks.pair_auc(r, flags) for r in pool.scores]))
    found = checks.pool_scores_valid(pool.scores)
    found += checks.hits_oracle(pool.scores, out.selections)
    found += checks.auc_checks(
        "method", {m: (out.metrics["auc_" + m.replace("-", "_")],
                       s.final_scores) for m, s in out.selections.items()},
        flags)
    found.append(("pool mean auc equals mean of pair counts",
                  abs(out.metrics["auc_pool_mean"] - mean) <= 1e-12,
                  f"reported {out.metrics['auc_pool_mean']!r}, pairs {mean!r}"))
    return found


# ---------------------------------------------------------------------------
# tu-mean-pool
# ---------------------------------------------------------------------------

def tu_setup(work: Path, seed: int):
    raw = glad.load_tu_dataset(work / "tu")
    db = glad.derive_features(raw, "one_hot_label")
    split_seed = inputs.sub_seed(seed, 3)
    train_db, test_db = glad.make_split(db, seed=split_seed, **inputs.TU_SPLIT)
    return raw, train_db, test_db


def tu_run(work: Path, seed: int, state, out_dir: Path) -> Outcome:
    _, train_db, test_db = state
    configs = glad.expand_grid(inputs.TU_GRID, len(train_db))
    pool = glad.trainer.run_grid(train_db, test_db, configs,
                                 workers=inputs.TU_WORKERS,
                                 base_seed=inputs.sub_seed(seed, 4))
    out = Outcome()
    out.count(len(configs), len(pool.dropped))
    selections = select_all(pool, out)
    report = glad.pipeline.evaluate_pool(pool, selections,
                                         test_db.anomaly_flags,
                                         n_dropped=len(pool.dropped))
    out.aucs(report.method_auc, report.pool_mean_auc)
    out.pool, out.selections = pool, selections
    return out


def tu_check(work: Path, seed: int, state, out: Outcome, out_dir: Path):
    raw, train_db, test_db = state
    graphs, classes = inputs.tu_graphs(seed)
    found = [("loaded graph count", len(raw) == len(graphs),
              f"{len(raw)} of {len(graphs)}")]
    bad = {"node count": 0, "edge set": 0, "node labels": 0}
    for g, (labels, edges) in zip(raw.graphs, graphs):
        bad["node count"] += g.node_count != len(labels)
        bad["edge set"] += {(u, v) for u, v, _ in g.edges} != set(edges)
        bad["node labels"] += not np.array_equal(g.node_labels, labels)
    for what, n in bad.items():
        found.append((f"loaded {what} per graph", n == 0, f"{n} graphs differ"))
    found.append(("loaded class labels",
                  np.array_equal(raw.class_labels, classes), ""))

    split = inputs.TU_SPLIT
    inlier = split["inlier_class"]
    n_in = int(np.sum(classes == inlier))
    n_train = min(max(int(round(split["train_fraction"] * n_in)), 1), n_in - 1)
    held = n_in - n_train
    rate = split["anomaly_rate"]
    want = min(max(int(round(rate * held / (1.0 - rate))), 1),
               len(classes) - n_in)
    train_ids, test_ids = set(train_db.graph_ids), set(test_db.graph_ids)
    test_classes = classes[test_db.graph_ids]
    found += [
        ("split trains on inlier class only",
         bool(np.all(classes[train_db.graph_ids] == inlier))
         and len(train_ids) == n_train, f"{len(train_ids)} train graphs"),
        ("split train and test disjoint", not train_ids & test_ids, ""),
        ("split anomaly count follows the rule",
         int(np.sum(test_db.anomaly_flags)) == want
         and np.array_equal(test_db.anomaly_flags, test_classes != inlier)
         and len(test_ids) == held + want,
         f"{int(np.sum(test_db.anomaly_flags))} anomalies, rule gives {want}"),
    ]
    found += pool_checks(out, test_db.anomaly_flags)
    return found


# ---------------------------------------------------------------------------
# pool-select
# ---------------------------------------------------------------------------

def pool_inputs(work: Path, seed: int):
    scores, flags = inputs.pool_matrix(seed)
    configs = [glad.ModelConfig(epochs=150, batch_size=64, d_hidden=64, **r)
               for r in inputs.pool_rows()]
    pool = glad.trainer.CandidatePool(
        model_ids=[f"m{i:03d}" for i in range(len(configs))],
        configs=configs, scores=scores, graph_ids=list(range(scores.shape[1])))
    return pool, flags


def pool_run(work: Path, seed: int, state, out_dir: Path) -> Outcome:
    pool, flags = state
    out = Outcome()
    glad.trainer.save_pool(pool, out_dir)
    loaded = glad.trainer.load_pool(out_dir)
    selections = select_all(loaded, out, out_dir)
    model_auc = [glad.roc_auc(row, flags) for row in loaded.scores]
    out.aucs({m: glad.roc_auc(s.final_scores, flags)
              for m, s in selections.items()}, float(np.mean(model_auc)))
    out.saved, out.pool, out.selections = pool.scores, loaded, selections
    out.model_auc, out.flags = model_auc, flags
    return out


def pool_check(work: Path, seed: int, state, out: Outcome, out_dir: Path):
    saved, loaded = out.saved, out.pool.scores
    found = [("pool holds no NaN", not np.isnan(saved).any(), "")]
    dev = np.max(np.abs(loaded - saved) / np.maximum(np.abs(saved), 1e-300))
    found.append(("load_pool returns the matrix to nine digits",
                  loaded.shape == saved.shape and dev <= 5.000001e-9,
                  f"max relative deviation {dev:.2e}"))
    found += checks.hits_oracle(loaded, out.selections)
    found += checks.reliability_checks(out.pool, out.selections)
    exact = [a == checks.pair_auc(r, out.flags)
             for a, r in zip(out.model_auc, loaded)]
    found.append(("every model auc equals pair counting", all(exact),
                  f"{exact.count(False)} differ"))
    found += checks.auc_checks(
        "method", {m: (out.metrics["auc_" + m.replace("-", "_")],
                       s.final_scores) for m, s in out.selections.items()},
        out.flags)
    return found


# name -> (set-up calls, benchmark-side inputs, round, checks).  Set-up
# is timed into setup_s; building inputs is not timed at all.
WORKLOADS = {
    "bench-pipeline": (nothing, nothing, bench_run, bench_check),
    "tu-mean-pool": (tu_setup, nothing, tu_run, tu_check),
    "pool-select": (nothing, pool_inputs, pool_run, pool_check),
}


def run_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "glad").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas,
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")},
            "src_sha256": digest.hexdigest()[:16]}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "round", "traced"))
    ap.add_argument("--index", type=int, default=0)
    args = ap.parse_args()
    setup, make_inputs, run, check = WORKLOADS[args.workload]
    out_dir = args.work / f"{args.mode}-{args.index}"
    out_dir.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.mode == "traced":
        import layers
        tracer = layers.Tracer(out_dir)
        layers.install(tracer)
    state = setup(args.work, args.seed)
    result = {"t_setup": time.perf_counter()}
    if args.mode != "setup":
        t0 = time.perf_counter()
        state = make_inputs(args.work, args.seed) or state
        result["inputs_s"] = time.perf_counter() - t0
        out = run(args.work, args.seed, state, out_dir)
        result["t_end"] = time.perf_counter()
        if tracer is not None:
            # Snapshot before the checks, which call glad too.
            result["layers"] = tracer.metrics()
            result["missing"] = tracer.missing
        found = check(args.work, args.seed, state, out, out_dir)
        result.update(
            metrics=out.metrics, record=run_record(),
            attempted=out.attempted + len(found),
            failed=out.failed + sum(not ok for _, ok, _ in found),
            checks=[[name, bool(ok), detail] for name, ok, detail in found])
    (args.work / f"{args.mode}-{args.index}.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

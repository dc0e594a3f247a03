"""Per-layer spans, recorded around glad's public functions.

``install`` replaces each listed function, in every ``glad`` module that
holds it, with a wrapper that adds the call's wall time (callees
included) and counts to a :class:`Tracer`.  Nothing inside ``src/glad``
changes.  A function that no longer exists is listed in
``tracer.missing`` and its metrics read 0.

Worker processes forked by ``run_grid`` inherit the wrappers.  A worker
writes its totals to ``worker-<pid>.json`` after each candidate, and the
``run_grid`` wrapper merges those files when the grid returns.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, function) pairs; each gets a summed time and a call count.
WRAPPED = (
    ("data", "load_tu_dataset"), ("data", "derive_features"),
    ("data", "make_split"), ("data", "generate_mixhop"),
    ("encoder", "gin_forward"), ("encoder", "gin_backward"),
    ("pooling", "set_kernel_matrix"), ("pooling", "set_kernel_grads"),
    ("pooling", "median_heuristic"), ("pooling", "nystrom_fit"),
    ("pooling", "mmd_pool_batch"), ("pooling", "mean_pool"),
    ("numkit", "sgd_step"),
    ("trainer", "train_candidate"), ("trainer", "batch_gradients"),
    ("trainer", "score_graphs"), ("trainer", "run_grid"),
    ("trainer", "save_pool"), ("trainer", "load_pool"),
    ("selection", "select"), ("selection", "hits"),
    ("selection", "write_selection"),
    ("metrics", "midrank"), ("metrics", "roc_auc"),
    ("pipeline", "run_pipeline"), ("pipeline", "build_dataset"),
    ("pipeline", "evaluate_pool"),
)

METHODS = ("hits", "hits-ens", "mc", "udr")
MIB = float(1 << 20)

# Reported per-layer metrics: name -> (unit, better, source).  A source
# "t:<fn>" is summed time, "n:<fn>" a call count, "c:<key>" a counter,
# "m:<key>" the median of recorded samples, "x:<key>" computed at report.
LAYER_METRICS = {
    "data.load_tu_dataset_s": ("s", "lower", "t:load_tu_dataset"),
    "data.tu_nodes": ("count", "lower", "c:tu_nodes"),
    "data.derive_features_s": ("s", "lower", "t:derive_features"),
    "data.make_split_s": ("s", "lower", "t:make_split"),
    "data.generate_mixhop_s": ("s", "lower", "t:generate_mixhop"),
    "encoder.gin_forward_s": ("s", "lower", "t:gin_forward"),
    "encoder.gin_forward_calls": ("count", "lower", "n:gin_forward"),
    "encoder.gin_forward_nodes": ("count", "lower", "c:gin_forward_nodes"),
    "encoder.gin_backward_s": ("s", "lower", "t:gin_backward"),
    "encoder.gin_backward_calls": ("count", "lower", "n:gin_backward"),
    "pooling.set_kernel_matrix_s": ("s", "lower", "t:set_kernel_matrix"),
    "pooling.set_kernel_matrix_calls": ("count", "lower", "n:set_kernel_matrix"),
    "pooling.set_kernel_grads_s": ("s", "lower", "t:set_kernel_grads"),
    "pooling.set_kernel_grads_calls": ("count", "lower", "n:set_kernel_grads"),
    "pooling.kernel_pairs": ("count", "lower", "c:kernel_pairs"),
    "pooling.kernel_pairs_repeated": ("count", "lower", "c:kernel_pairs_repeated"),
    "pooling.median_heuristic_s": ("s", "lower", "t:median_heuristic"),
    "pooling.median_heuristic_calls": ("count", "lower", "n:median_heuristic"),
    "pooling.nystrom_fit_s": ("s", "lower", "t:nystrom_fit"),
    "pooling.mmd_pool_batch_s": ("s", "lower", "t:mmd_pool_batch"),
    "pooling.mean_pool_calls": ("count", "lower", "n:mean_pool"),
    "numkit.sgd_step_s": ("s", "lower", "t:sgd_step"),
    "numkit.sgd_step_calls": ("count", "lower", "n:sgd_step"),
    "trainer.train_candidate_s.mean": ("s", "lower", "m:train_candidate.mean"),
    "trainer.train_candidate_s.mmd": ("s", "lower", "m:train_candidate.mmd"),
    "trainer.batch_gradients_s": ("s", "lower", "t:batch_gradients"),
    "trainer.score_graphs_s": ("s", "lower", "t:score_graphs"),
    "trainer.run_grid_s": ("s", "lower", "t:run_grid"),
    "trainer.parallel_efficiency": ("1", "higher", "x:parallel_efficiency"),
    "trainer.candidate_s_sum": ("s", "lower", "c:candidate_s"),
    "trainer.run_grid_worker_s": ("s", "lower", "c:run_grid_worker_s"),
    "trainer.task_pickle_mib": ("MiB", "lower", "c:task_pickle_mib"),
    "trainer.save_pool_s": ("s", "lower", "t:save_pool"),
    "trainer.load_pool_s": ("s", "lower", "t:load_pool"),
    "trainer.pool_csv_mib": ("MiB", "lower", "c:pool_csv_mib"),
    **{f"selection.select_s.{m}": ("s", "lower", f"c:select_s.{m}")
       for m in METHODS},
    "selection.hits_iterations": ("count", "lower", "c:hits_iterations"),
    "selection.write_selection_s": ("s", "lower", "t:write_selection"),
    "metrics.midrank_s": ("s", "lower", "t:midrank"),
    "metrics.midrank_calls": ("count", "lower", "n:midrank"),
    "metrics.midrank_elements": ("count", "lower", "c:midrank_elements"),
    "metrics.roc_auc_s": ("s", "lower", "t:roc_auc"),
    "pipeline.run_pipeline_s": ("s", "lower", "t:run_pipeline"),
    "pipeline.build_dataset_s": ("s", "lower", "t:build_dataset"),
    "pipeline.evaluate_pool_s": ("s", "lower", "t:evaluate_pool"),
}


def _rows(sets) -> int:
    return sum(s.vectors.shape[0] for s in sets)


class Tracer:
    """Totals of one process; a forked child starts from zero."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.root_pid = self.pid = os.getpid()
        self.missing = []
        self._reset()

    def _reset(self):
        self.time = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(float)
        self.samples = defaultdict(list)
        # Kernel operands seen since the last optimizer step, held so that
        # their ids cannot be reused while they are keys.
        self.step_operands = {}

    def _own(self):
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self._reset()

    # -- hooks run after a wrapped call; `args` are the call's arguments --

    def after(self, fn, args, kwargs, result, elapsed):
        self._own()
        self.time[fn] += elapsed
        self.calls[fn] += 1
        hook = getattr(self, f"_on_{fn}", None)
        if hook is not None:
            hook(args, kwargs, result, elapsed)

    def before(self, fn, args, kwargs):
        self._own()
        if fn in ("sgd_step", "train_candidate"):
            self.step_operands = {}
        elif fn == "run_grid" and self.pid == self.root_pid:
            self._task_pickle(args, kwargs)

    def _on_load_tu_dataset(self, args, kwargs, db, _):
        self.count["tu_nodes"] += sum(g.node_count for g in db.graphs)

    def _on_gin_forward(self, args, kwargs, result, _):
        self.count["gin_forward_nodes"] += args[0].node_count

    def _kernel(self, args):
        a, b = args[0], args[1]
        pairs = _rows(a) * _rows(b)
        self.count["kernel_pairs"] += pairs
        key = (tuple(id(s.vectors) for s in a), tuple(id(s.vectors) for s in b))
        if key in self.step_operands:
            self.count["kernel_pairs_repeated"] += pairs
        else:
            self.step_operands[key] = (list(a), list(b))

    def _on_set_kernel_matrix(self, args, kwargs, result, _):
        self._kernel(args)

    def _on_set_kernel_grads(self, args, kwargs, result, _):
        self._kernel(args)

    def _on_train_candidate(self, args, kwargs, result, elapsed):
        config = args[1] if len(args) > 1 else kwargs["config"]
        self.samples[f"train_candidate.{config.pooling}"].append(elapsed)
        self.count["candidate_s"] += elapsed
        self._flush_worker()

    def _on_score_graphs(self, args, kwargs, result, elapsed):
        self.count["candidate_s"] += elapsed
        self._flush_worker()

    def _on_run_grid(self, args, kwargs, result, elapsed):
        workers = kwargs.get("workers", args[3] if len(args) > 3 else 1)
        self.count["run_grid_worker_s"] += max(workers, 1) * elapsed
        if self.pid == self.root_pid:
            self._merge_workers()

    def _on_save_pool(self, args, kwargs, result, _):
        directory = Path(args[1] if len(args) > 1 else kwargs["directory"])
        self.count["pool_csv_mib"] += sum(
            (directory / f).stat().st_size
            for f in ("pool_configs.csv", "pool_scores.csv")) / MIB

    def _on_select(self, args, kwargs, result, elapsed):
        method = args[1] if len(args) > 1 else kwargs["method"]
        self.count[f"select_s.{method}"] += elapsed

    def _on_hits(self, args, kwargs, result, _):
        self.count["hits_iterations"] += result[2]

    def _on_midrank(self, args, kwargs, result, _):
        self.count["midrank_elements"] += int(np.size(result))

    def _task_pickle(self, args, kwargs):
        """Bytes ``run_grid`` sends to workers: one pickled task tuple per
        config.  Zero on the serial path, which pickles nothing."""
        names = ("train_db", "test_db", "configs", "workers", "base_seed")
        bound = dict(zip(names, args), **kwargs)
        if bound.get("workers", 1) <= 1:
            return
        size = sum(len(pickle.dumps((bound["train_db"], bound["test_db"], cfg,
                                     bound.get("base_seed", 0))))
                   for cfg in bound["configs"])
        self.count["task_pickle_mib"] += size / MIB

    # -- worker totals --

    def _state(self):
        return {"time": self.time, "calls": self.calls, "count": self.count,
                "samples": self.samples}

    def _flush_worker(self):
        if self.pid == self.root_pid:
            return
        path = self.out_dir / f"worker-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self._state()))
        os.replace(tmp, path)

    def _merge_workers(self):
        for path in sorted(self.out_dir.glob("worker-*.json")):
            state = json.loads(path.read_text())
            for k, v in state["time"].items():
                self.time[k] += v
            for k, v in state["calls"].items():
                self.calls[k] += v
            for k, v in state["count"].items():
                self.count[k] += v
            for k, v in state["samples"].items():
                self.samples[k].extend(v)
            path.unlink()

    # -- report --

    def metrics(self) -> dict:
        out = {}
        for name, (unit, _, source) in LAYER_METRICS.items():
            kind, key = source.split(":", 1)
            if kind == "t":
                value = self.time.get(key, 0.0)
            elif kind == "n":
                value = self.calls.get(key, 0)
            elif kind == "c":
                value = self.count.get(key, 0.0)
            elif kind == "m":
                vals = self.samples.get(key, [])
                value = statistics.median(vals) if vals else 0.0
            else:
                base = self.count.get("run_grid_worker_s", 0.0)
                value = self.count.get("candidate_s", 0.0) / base if base else 0.0
            if unit == "count":
                value = int(value)
            out[name] = {"value": value, "unit": unit}
        return out


def install(tracer: Tracer) -> None:
    """Wrap every listed function in every loaded ``glad`` module."""
    mods = {name: m for name, m in sys.modules.items()
            if name == "glad" or name.startswith("glad.")}
    for mod_name, fn in WRAPPED:
        orig = getattr(mods.get(f"glad.{mod_name}"), fn, None)
        if orig is None:
            tracer.missing.append(f"{mod_name}.{fn}")
            continue
        wrapper = _wrap(tracer, fn, orig)
        for m in mods.values():
            for attr, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, attr, wrapper)


def _wrap(tracer: Tracer, fn: str, orig):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        tracer.before(fn, args, kwargs)
        t0 = time.perf_counter()
        result = orig(*args, **kwargs)
        tracer.after(fn, args, kwargs, result, time.perf_counter() - t0)
        return result
    return wrapper

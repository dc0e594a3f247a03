"""The benchmark's per-layer wrappers still run against glad, and its
inputs still match the acceptance benchmark.

``benchmark/layers.py`` wraps glad functions by name and reads their
arguments.  A wrapper whose hook reads an argument glad no longer passes
fails the traced benchmark round, so a tiny traced pipeline runs here,
in a fresh interpreter (the wrappers patch glad's modules in place).
"""

import dataclasses
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import test_acceptance

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
from pathlib import Path
root, out = Path(sys.argv[1]), Path(sys.argv[2])
sys.path[:0] = [str(root / "src"), str(root / "benchmark")]
import glad, glad.pipeline
import layers
tracer = layers.Tracer(out)
layers.install(tracer)
glad.pipeline.run_pipeline(glad.PipelineConfig(
    out_dir=out / "run", workers=1,
    bench=glad.BenchmarkParams(n_train=16, n_test=12, anomaly_rate=0.1,
                               nodes=8),
    grid_spec={"common": {"epochs": [1], "batch_size": [8], "d_hidden": [4]},
               "mean": {"layers": [1], "lr": [1e-3], "seed": [0]},
               "mmd": {"layers": [1], "lr": [0.01], "seed": [0],
                       "nystrom_k": [4]}}))
print(json.dumps({"missing": tracer.missing,
                  "metrics": {k: v["value"]
                              for k, v in tracer.metrics().items()}}))
"""

# Wrapped names with no glad function behind them; their metrics read 0.
MISSING = ["encoder.gin_forward", "encoder.gin_backward",
           "pooling.set_kernel_matrix", "pooling.set_kernel_grads",
           "pooling.mean_pool", "trainer.batch_gradients"]


def test_traced_pipeline_runs(tmp_path):
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT),
                           str(tmp_path)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["missing"] == MISSING
    assert out["metrics"]["pooling.median_heuristic_calls"] > 0
    assert out["metrics"]["trainer.train_candidate_s.mmd"] > 0


def test_bench_inputs_match_the_acceptance_benchmark():
    # benchmark/inputs.py restates BENCH without importing glad or the tests
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", ROOT / "benchmark" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    assert inputs.BENCH_GRID == test_acceptance.BENCH_GRID
    assert inputs.BENCH_SHAPE == dataclasses.asdict(test_acceptance.BENCH)

"""glad's benchmark: three workloads, end-to-end and per-layer metrics.

    python3 benchmark/run.py --workload bench-pipeline --seed 1 --seconds 10 --trace 0
    python3 benchmark/run.py --workload all --seed 1

Each round runs in a fresh process (``child.py``), so a round's wall time
and set-up time start at process start.  Rounds repeat until
``--seconds`` have passed, with a per-workload minimum; set-up probes
(start, import, set-up calls, exit) top the set-up samples up to a
per-workload minimum.  Reported times are medians.  ``--trace 1`` runs
one untraced and one traced round and reports the per-layer metrics of
the traced one, plus its overhead over the untraced one.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".bench_work"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0
POLL_S = 0.02

# name -> (minimum rounds, minimum set-up samples).  A bench-pipeline
# round takes about half a minute, so an untraced run makes one; its
# rerun check is made by the traced run.
WORKLOADS = {
    "bench-pipeline": (1, 5),
    "tu-mean-pool": (3, 3),
    "pool-select": (3, 5),
}
END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
    "auc_hits_ens": "1", "auc_hits": "1", "auc_mc": "1", "auc_udr": "1",
    "auc_pool_mean": "1",
}
COMPARED_FILES = ("pool_configs.csv", "pool_scores.csv")


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Process tree memory
# ---------------------------------------------------------------------------

def _children(pid: int) -> list:
    out = []
    try:
        for task in Path(f"/proc/{pid}/task").iterdir():
            out += [int(c) for c in (task / "children").read_text().split()]
    except OSError:
        pass
    return out


def _descendants(pid: int) -> list:
    found, todo = [], _children(pid)
    while todo:
        p = todo.pop()
        found.append(p)
        todo += _children(p)
    return found


def _status(pid: int):
    """``(start time, VmHWM in KiB)`` of a live process, else None."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    start = stat.rsplit(")", 1)[1].split()[19]
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return start, int(line.split()[1])
    return None


def _stop(seen: dict) -> None:
    """Kill the processes in ``seen`` (pid -> start time) that still run,
    and wait until each is gone.  The start time guards against a pid
    that was reused."""
    def alive():
        return [p for p, start in seen.items()
                if (_status(p) or (None,))[0] == start]
    for p in alive():
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    end = time.monotonic() + 10.0
    while alive() and time.monotonic() < end:
        time.sleep(POLL_S)


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

def spawn(workload: str, seed: int, work: Path, mode: str, index: int,
          deadline: float) -> dict:
    """Run one child to completion and time it from its start.

    Peak memory is the child's own peak (from ``wait4``) plus the peak of
    every process it started, read from ``VmHWM`` while they run.
    """
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--work", str(work), "--mode", mode,
           "--index", str(index)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=sys.stderr)
    seen, hwm = {}, {}
    reaped = False
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                reaped = True
                break
            if time.monotonic() > deadline:
                raise BenchError(f"{mode} {index} of {workload} passed the "
                                 f"{DEADLINE_S:.0f} s deadline")
            for p in _descendants(proc.pid):
                st = _status(p)
                if st is not None:
                    seen[p], hwm[p] = st
            time.sleep(POLL_S)
    finally:
        if not reaped:
            for p in _descendants(proc.pid):
                st = _status(p)
                if st is not None:
                    seen[p] = st[0]
            proc.kill()
            proc.wait()
        _stop(seen)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"{mode} {index} of {workload} exited with "
                         f"{proc.returncode}")
    result = json.loads((work / f"{mode}-{index}.json").read_text())
    result["setup_s"] = result["t_setup"] - t0
    if "t_end" in result:
        result["wall_s"] = result["t_end"] - t0 - result["inputs_s"]
        result["peak_rss_mib"] = (usage.ru_maxrss + sum(hwm.values())) / 1024.0
    return result


def compare_rounds(work: Path, rounds: list) -> list:
    """Reruns at one seed must write the same pool files and metrics."""
    found = []
    first = rounds[0]
    for r in rounds[1:]:
        for name in COMPARED_FILES:
            a = work / f"{first['dir']}/{name}"
            b = work / f"{r['dir']}/{name}"
            if a.exists() or b.exists():
                same = a.exists() and b.exists() and a.read_bytes() == b.read_bytes()
                found.append([f"{name} byte-identical across reruns", same, ""])
        found.append(["AUC metrics identical across reruns",
                      r["metrics"] == first["metrics"], ""])
    return found


def prepare(workload: str, seed: int, work: Path) -> None:
    """Write inputs that every round reads from disk."""
    work.mkdir(parents=True, exist_ok=True)
    if workload == "tu-mean-pool":
        sys.path.insert(0, str(HERE))
        import inputs
        graphs, classes = inputs.tu_graphs(seed)
        inputs.write_tu(work / "tu", graphs, classes)


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 work: Path) -> dict:
    min_rounds, min_setups = WORKLOADS[workload]
    deadline = time.monotonic() + DEADLINE_S
    prepare(workload, seed, work)
    setups, rounds = [], []

    def round_(mode):
        r = spawn(workload, seed, work, mode, len(rounds), deadline)
        r["dir"] = f"{mode}-{len(rounds)}"
        rounds.append(r)
        return r

    if trace:
        base = round_("round")
        traced = round_("traced")
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = {
            "value": traced["wall_s"] - base["wall_s"], "unit": "s"}
        metrics = layers
    else:
        for i in range(max(min_setups - min_rounds, 0)):
            setups.append(spawn(workload, seed, work, "setup", i,
                                deadline)["setup_s"])
        start = time.monotonic()
        while len(rounds) < min_rounds or time.monotonic() - start < seconds:
            round_("round")
        setups += [r["setup_s"] for r in rounds]
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in rounds),
            **rounds[0]["metrics"],
        }
        metrics = {k: {"value": metrics[k], "unit": u}
                   for k, u in END_TO_END.items()}
    compared = compare_rounds(work, rounds)
    found = [c for r in rounds for c in r["checks"]] + compared
    failed_checks = [c for c in found if not c[1]]
    return {
        "workload": workload, "seed": seed, "rounds": len(rounds),
        "round_walls": [r["wall_s"] for r in rounds], "setup_samples": setups,
        "setups": len(setups), "record": rounds[0]["record"],
        "missing": rounds[-1].get("missing", []),
        "checks": len(found), "failed_checks": failed_checks,
        "correct": not failed_checks,
        "attempted": sum(r["attempted"] for r in rounds) + len(compared),
        "failed": sum(r["failed"] for r in rounds)
                  + sum(not c[1] for c in compared),
        "metrics": metrics,
    }


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def report(res: dict) -> None:
    print(f"workload {res['workload']}  seed {res['seed']}  "
          f"rounds {res['rounds']}  set-up samples {res['setups'] or '-'}")
    for name, m in res["metrics"].items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")
    print("  round wall_s " + " ".join(f"{v:.3f}" for v in res["round_walls"])
          + "; set-up s " + " ".join(f"{v:.3f}" for v in res["setup_samples"]))
    print(f"  checks {res['checks'] - len(res['failed_checks'])}/{res['checks']} "
          f"passed; operations {res['attempted']} attempted, "
          f"{res['failed']} failed")
    for name, _, detail in res["failed_checks"]:
        print(f"  FAILED CHECK: {name} ({detail})")
    if res["missing"]:
        print(f"  missing functions, metrics read 0: {', '.join(res['missing'])}")
    record = dict(res["record"], nproc=len(os.sched_getaffinity(0)),
                  git_sha=git_sha())
    print(f"  record {json.dumps(record, sort_keys=True)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "glad" / "__init__.py").is_file():
        print(f"error: no glad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    # On SIGTERM unwind through spawn(), which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    work = WORK_ROOT / str(os.getpid())
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds,
                                        bool(args.trace), work / name))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    for res in results:
        report(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

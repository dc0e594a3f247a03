"""Raise-guard sweep: switch off each ``if ...: raise`` in ``src/glad`` and
fail if a guard whose loss no tier-1 test notices is not kept on purpose.

For every ``if`` statement in ``src/glad`` whose body ends in ``raise``,
the sweep copies the repository's ``src``, ``tests``, ``benchmark``,
``README.md`` and ``pyproject.toml`` to a temporary directory, sets that
``if``'s test to ``False`` there, and runs tier-1 in the copy without
the two slow acceptance criteria (``-k "not criterion_1_ and not
criterion_6_"``).  A guard whose mutant passes every test survives.  A
mutant that runs past ten minutes counts as noticed.  The working tree
is only read.

``KEPT`` names the guards that may survive, by file and test text, each
with the reason it stays.  The sweep exits 1 if a guard survives that
``KEPT`` does not name, or if a ``KEPT`` entry names no guard; else 0.

Usage, from anywhere::

    python tools/guard_sweep.py          # sweep; prints the survivors
    python tools/guard_sweep.py --list   # list the guards, run nothing

Each run gets one BLAS thread, and at most two mutants run at once.  On
a 2-vCPU machine a mutant takes about 7 s, so 101 guards take about
6 minutes.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "benchmark", "README.md", "pyproject.toml")
SELECT = "not criterion_1_ and not criterion_6_"
JOBS = 2
TIMEOUT_S = 600
ONE_THREAD = dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
# (file, the if's test as listed) -> why the guard stays with no test.
KEPT = {
    ("src/glad/pooling.py", "not np.any(keep)"):
        "numeric safety on LAPACK output: eigh returns finite eigenvalues "
        "even for a NaN kernel, so no finite input makes it fire",
}


@dataclass(frozen=True)
class Guard:
    path: Path  # relative to the repository root
    line: int
    test: str  # the if's test, whitespace collapsed
    start: int  # byte span of the test in the file
    end: int


def find_guards(root: Path) -> list:
    """Every ``if`` in ``src/glad`` whose body ends in ``raise``, in file
    and line order."""
    found = []
    for path in sorted((root / "src" / "glad").glob("*.py")):
        data = path.read_bytes()  # ast offsets count UTF-8 bytes
        line_at = [0]
        for ln in data.splitlines(keepends=True):
            line_at.append(line_at[-1] + len(ln))
        for node in ast.walk(ast.parse(data, str(path))):
            if isinstance(node, ast.If) and isinstance(node.body[-1],
                                                       ast.Raise):
                t = node.test
                start = line_at[t.lineno - 1] + t.col_offset
                end = line_at[t.end_lineno - 1] + t.end_col_offset
                text = " ".join(data[start:end].decode().split())
                found.append(Guard(path.relative_to(root), node.lineno,
                                   text, start, end))
    return sorted(found, key=lambda g: (str(g.path), g.line))


def passes(root: Path, guard: Guard | None = None) -> bool:
    """Whether tier-1 (criteria 1 and 6 left out) passes in a fresh copy
    of ``root`` with ``guard``'s test set to ``False``."""
    with tempfile.TemporaryDirectory(prefix="guard_sweep_") as tmp:
        tmp = Path(tmp)
        for name in COPIED:
            if (root / name).is_dir():
                shutil.copytree(root / name, tmp / name, ignore=
                                shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(root / name, tmp / name)
        if guard is not None:
            target = tmp / guard.path
            data = target.read_bytes()
            target.write_bytes(data[:guard.start] + b"False"
                               + data[guard.end:])
        env = {**os.environ, **ONE_THREAD, "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p",
               "no:cacheprovider", f"--basetemp={tmp / 'pytest'}", "-k",
               SELECT]
        try:
            done = subprocess.run(cmd, cwd=tmp, env=env, timeout=TIMEOUT_S,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            return False
        return done.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true",
                        help="list the guards and exit")
    args = parser.parse_args(argv)
    guards = find_guards(ROOT)
    if args.list:
        for g in guards:
            print(f"{g.path}:{g.line}: if {g.test}")
        return 0
    stale = set(KEPT) - {(g.path.as_posix(), g.test) for g in guards}
    for path, test in sorted(stale):
        print(f"KEPT names no guard: {path}: if {test}", file=sys.stderr)
    if stale:
        return 1
    if not passes(ROOT):
        print("tier-1 fails with no guard switched off", file=sys.stderr)
        return 1
    survivors = []
    with ThreadPoolExecutor(JOBS) as pool:
        for k, (g, ok) in enumerate(zip(
                guards, pool.map(lambda g: passes(ROOT, g), guards)), 1):
            print(f"[{k}/{len(guards)}] {'SURVIVED' if ok else 'killed'} "
                  f"{g.path}:{g.line}", file=sys.stderr, flush=True)
            if ok:
                survivors.append(g)
    print(f"{len(survivors)} of {len(guards)} guards survive")
    unlisted = 0
    for g in survivors:
        reason = KEPT.get((g.path.as_posix(), g.test))
        unlisted += reason is None
        print(f"{g.path}:{g.line}: if {g.test}"
              + ("" if reason is None else f"  (kept: {reason})"))
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())

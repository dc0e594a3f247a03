"""Mutation sweep: change each guard and operator in ``src/glad`` one at a
time and fail if a change that no tier-1 test notices is not kept on
purpose.

A site is one of:

- a raise-guard, an ``if`` whose body ends in ``raise``: its test
  becomes ``False``;
- a numeric constant, a negative literal such as ``-1`` included: an
  int ``c`` becomes ``c + 1``, a float ``c`` becomes ``2 * c`` (``0.0``
  becomes ``1.0``);
- an arithmetic operator, in a binary operation or an augmented
  assignment: ``+`` and ``-`` swap, ``*`` and ``/`` swap, ``//``
  becomes ``/``, ``%`` becomes ``//``, ``**`` and ``@`` become ``*``,
  ``|`` and ``&`` swap, ``^`` becomes ``|`` and ``<<`` and ``>>`` swap;
- a comparison operator: ``<`` and ``<=`` swap, ``>`` and ``>=``
  swap, ``==`` and ``!=`` swap, ``is`` and ``is not`` swap, ``in`` and
  ``not in`` swap;
- a boolean operator: ``and`` and ``or`` swap.

Annotations are skipped: every module that has them imports
``annotations`` from ``__future__``, so they are never run.

For each site the sweep copies the repository's ``src``, ``tests``,
``benchmark``, ``README.md`` and ``pyproject.toml`` to a temporary
directory, applies that one change there, and runs tier-1 in the copy
without the two slow acceptance criteria and this tool's own
bookkeeping test (``-k "not criterion_1_ and not criterion_6_ and not
kept_entries"``), stopping at the first failure.  The mutated module's
own ``tests/test_<module>.py`` runs first, as its own pytest run, and
the other test files after it, so most mutants stop within a few
seconds; every test runs either way.  A mutant that passes every test
survives.  A mutant that runs past two minutes (a clean run takes about
12 s) counts as noticed, and its whole process group is killed.  The
working tree is only read.

``KEPT`` names the changes that may survive, keyed as ``--list`` prints
them: file, the site's text and the change.  Each has the reason it
stays.  The sweep exits 1 if a change survives that ``KEPT`` does not
name, or if a ``KEPT`` entry names no site; else 0.

Usage, from anywhere::

    python tools/guard_sweep.py          # sweep; prints the survivors
    python tools/guard_sweep.py --list   # list the sites, run nothing

Each run gets one BLAS thread and a 3 GiB address-space limit, and at
most two mutants run at once.  On a 2-vCPU machine the sweep of about
1,230 sites takes about 26 minutes.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "benchmark", "README.md", "pyproject.toml")
SELECT = "not criterion_1_ and not criterion_6_ and not kept_entries"
# Plain asserts: pytest's diff of two long unequal strings, built when an
# assert fails, can take minutes; the outcome is all the sweep reads.
PYTEST = ("-q", "-x", "--tb=no", "--assert=plain", "-p", "no:cacheprovider",
          "-k", SELECT)
JOBS = 2
TIMEOUT_S = 120
MEMORY_LIMIT = 3 << 30  # bytes of address space per mutant run
ONE_THREAD = dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
SWAP = {
    "+": "-", "-": "+", "*": "/", "/": "*", "//": "/", "%": "//",
    "**": "*", "@": "*", "|": "&", "&": "|", "^": "|", "<<": ">>",
    ">>": "<<",
    "<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
    "is": "is not", "is not": "is", "in": "not in", "not in": "in",
    "and": "or", "or": "and",
}
# Reasons shared by several KEPT entries.
DEFAULT = "default: a default value that no document fixes; any is as valid"
GRID = "tuning: a DEFAULT_GRID value; nearby values are as valid"
LOSS = ("per-step loss: only its finiteness is read until a per-candidate "
        "record reads its value")
TUNING = "tuning: nearby values are as valid"
# (file, site text, change) as --list prints them -> why the change may
# survive every test.
KEPT = {
    ('src/glad/cli.py', 'if getattr(args, "seed", 0) < 0:',
     '0 -> 1'):
        'equivalent: the seed checked for a command without --seed; any '
        'default >= 0 passes',
    ('src/glad/cli.py', 'if getattr(args, "workers", 1) < 1:',
     '1 -> 2'):
        'equivalent: the count checked for a command without --workers; any '
        'default >= 1 passes',
    ('src/glad/data.py', 'DEFAULT_DEGREE_CAP = 10',
     '10 -> 11'):
        TUNING,
    ('src/glad/data.py', '(u > v, "edge ({0}, {1}) not stored with u < v"),',
     '> -> >='):
        'equivalent: u == v is a self loop, the rule checked before it',
    ('src/glad/data.py', 'same = rng.random() < homophily',
     '< -> <='):
        'equivalent: differs only where a uniform draw equals homophily '
        'exactly',
    ('src/glad/data.py', 'c = list(accumulate(degrees[t] / total for t in pool))',
     '/ -> *'):
        'equivalent in practice: the weights are divided by c[-1] next, '
        'which cancels total up to a few ulps',
    ('src/glad/data.py', 't = pool[bisect_right([x / c[-1] for x in c], rng.random())]',
     '/ -> *'):
        'equivalent in practice: c[-1] is within a few ulps of 1',
    ('src/glad/encoder.py', 'BLOCK_ROWS = 400',
     '400 -> 401'):
        'tuning: sets which graphs share a block (800 changes score bits)',
    ('src/glad/encoder.py', 'spans, start, widest = [], 0, 0 (#2)',
     '0 -> 1'):
        'equivalent: every graph has at least one node',
    ('src/glad/encoder.py', 'a += 0.0',
     '+= -> -='):
        'equivalent here: fmax keeps -0.0 only where z @ w1 is -0.0, which '
        'a GEMM summing from +0.0 never gives; kept for BLAS builds that '
        'might',
    ('src/glad/encoder.py', 'dm.view(np.int64)[...] &= np.right_shift(m, 63, out=m)',
     '63 -> 64'):
        'equivalent: numpy fills a shift by 64 or more with the sign bit, '
        'as one by 63',
    ('src/glad/metrics.py', 'w_plus = float(np.sum(ranks[d > 0.0]))',
     '> -> >='):
        'equivalent: zero differences were dropped',
    ('src/glad/metrics.py', 'ways = np.zeros(int(doubled.sum()) + 1, dtype=np.int64)',
     '1 -> 2'):
        'equivalent: a slot past the largest rank sum stays 0',
    ('src/glad/pipeline.py', 'STAGE_TRAINING = 4',
     '4 -> 5'):
        TUNING,
    ('src/glad/pipeline.py', 'return int(np.random.SeedSequence((master_seed, stage)).generate_state(1)[0])',
     '1 -> 2'):
        "equivalent: generate_state's first word does not depend on the "
        'word count',
    ('src/glad/pipeline.py', 'n_train: int = 100',
     '100 -> 101'):
        DEFAULT,
    ('src/glad/pipeline.py', 'n_test: int = 100',
     '100 -> 101'):
        DEFAULT,
    ('src/glad/pipeline.py', 'anomaly_rate: float = 0.05',
     '0.05 -> 0.1'):
        DEFAULT,
    ('src/glad/pipeline.py', 'nodes: int = 50',
     '50 -> 51'):
        DEFAULT,
    ('src/glad/pipeline.py', 'labels: int = 5',
     '5 -> 6'):
        DEFAULT,
    ('src/glad/pipeline.py', 'homophily_out: float = 0.3',
     '0.3 -> 0.6'):
        DEFAULT,
    ('src/glad/pipeline.py', 'inlier_class: int = 0',
     '0 -> 1'):
        DEFAULT,
    ('src/glad/pipeline.py', 'anomaly_rate: float = 0.05 (#2)',
     '0.05 -> 0.1'):
        DEFAULT,
    ('src/glad/pipeline.py', 'if result.residual > gsel.HITS_TOL:',
     '> -> >='):
        'equivalent: differs only at a residual exactly equal to HITS_TOL',
    ('src/glad/pooling.py', 'if not np.any(keep)',
     'not np.any(keep) -> False'):
        'numeric safety on LAPACK output: eigh returns finite eigenvalues '
        'even for a NaN kernel, so no finite input makes it fire',
    ('src/glad/pooling.py', 'SAMPLE_CAP = 100_000',
     '100_000 -> 100001'):
        TUNING,
    ('src/glad/pooling.py', 'n_pairs = n * (n - 1) // 2',
     '// -> /'):
        'equivalent: n * (n - 1) is even, so / and // agree',
    ('src/glad/pooling.py', 'rng = np.random.default_rng(0)',
     '0 -> 1'):
        TUNING,
    ('src/glad/pooling.py', 'keep = evals > floor',
     '> -> >='):
        'equivalent: differs only at an eigenvalue exactly at the floor',
    ('src/glad/pooling.py', 'factor = (vecs * signs) / np.sqrt(vals)',
     '* -> /'):
        'equivalent: the signs are +1 or -1',
    ('src/glad/pooling.py', 'if rank is not None and n_keep < rank:',
     '< -> <='):
        'equivalent: padding to the same width adds no column',
    ('src/glad/selection.py', 'HITS_MAX_ITER = 1000',
     '1000 -> 1001'):
        TUNING,
    ('src/glad/selection.py', 'span[flat] = 1.0',
     '1.0 -> 2.0'):
        'equivalent: constant rows become 0.5 after the division',
    ('src/glad/selection.py', 'if residual <= HITS_TOL:',
     '<= -> <'):
        'equivalent: differs only at a residual exactly equal to HITS_TOL',
    ('src/glad/selection.py', 'norms[constant] = 1.0',
     '1.0 -> 2.0'):
        "equivalent: a constant row's correlations become NaN after the "
        'division',
    ('src/glad/selection.py', 'out = np.full(corr.shape[0], -np.inf)',
     '0 -> 1'):
        'equivalent: the correlation matrix is square',
    ('src/glad/trainer.py', '"mean": {"layers": [1, 2, 4], "weight_decay": [1e-5, 1e-4, 1e-3],',
     '2 -> 3'):
        GRID,
    ('src/glad/trainer.py', '"mean": {"layers": [1, 2, 4], "weight_decay": [1e-5, 1e-4, 1e-3],',
     '4 -> 5'):
        GRID,
    ('src/glad/trainer.py', '"mean": {"layers": [1, 2, 4], "weight_decay": [1e-5, 1e-4, 1e-3],',
     '1e-5 -> 2e-05'):
        GRID,
    ('src/glad/trainer.py', '"mean": {"layers": [1, 2, 4], "weight_decay": [1e-5, 1e-4, 1e-3],',
     '1e-4 -> 0.0002'):
        GRID,
    ('src/glad/trainer.py', '"mean": {"layers": [1, 2, 4], "weight_decay": [1e-5, 1e-4, 1e-3],',
     '1e-3 -> 0.002'):
        GRID,
    ('src/glad/trainer.py', '"lr": [1e-4, 1e-3], "seed": [0, 1, 2]},',
     '1e-4 -> 0.0002'):
        GRID,
    ('src/glad/trainer.py', '"lr": [1e-4, 1e-3], "seed": [0, 1, 2]},',
     '1e-3 -> 0.002'):
        GRID,
    ('src/glad/trainer.py', '"lr": [1e-4, 1e-3], "seed": [0, 1, 2]},',
     '2 -> 3'):
        GRID,
    ('src/glad/trainer.py', '"mmd": {"layers": [1, 2, 4], "weight_decay": [1e-5, 1e-4, 1e-3],',
     '2 -> 3'):
        GRID,
    ('src/glad/trainer.py', '"mmd": {"layers": [1, 2, 4], "weight_decay": [1e-5, 1e-4, 1e-3],',
     '4 -> 5'):
        GRID,
    ('src/glad/trainer.py', '"mmd": {"layers": [1, 2, 4], "weight_decay": [1e-5, 1e-4, 1e-3],',
     '1e-5 -> 2e-05'):
        GRID,
    ('src/glad/trainer.py', '"mmd": {"layers": [1, 2, 4], "weight_decay": [1e-5, 1e-4, 1e-3],',
     '1e-4 -> 0.0002'):
        GRID,
    ('src/glad/trainer.py', '"mmd": {"layers": [1, 2, 4], "weight_decay": [1e-5, 1e-4, 1e-3],',
     '1e-3 -> 0.002'):
        GRID,
    ('src/glad/trainer.py', '"lr": [0.01, 0.1], "seed": [0, 1, 2],',
     '0.01 -> 0.02'):
        GRID,
    ('src/glad/trainer.py', '"lr": [0.01, 0.1], "seed": [0, 1, 2],',
     '0.1 -> 0.2'):
        GRID,
    ('src/glad/trainer.py', '"lr": [0.01, 0.1], "seed": [0, 1, 2],',
     '2 -> 3'):
        GRID,
    ('src/glad/trainer.py', '"common": {"epochs": [150], "batch_size": [64], "d_hidden": [64]}, (#2)',
     '64 -> 65'):
        GRID,
    ('src/glad/trainer.py', 'layers: int = 2',
     '2 -> 3'):
        DEFAULT,
    ('src/glad/trainer.py', 'weight_decay: float = 1e-4',
     '1e-4 -> 0.0002'):
        DEFAULT,
    ('src/glad/trainer.py', 'seed: int = 0',
     '0 -> 1'):
        DEFAULT,
    ('src/glad/trainer.py', 'epochs: int = 150',
     '150 -> 151'):
        DEFAULT,
    ('src/glad/trainer.py', 'batch_size: int = 64',
     '64 -> 65'):
        DEFAULT,
    ('src/glad/trainer.py', 'd_hidden: int = 64',
     '64 -> 65'):
        DEFAULT,
    ('src/glad/trainer.py', 'd = ws("d_out", h.shape, fill=0.0)',
     '0.0 -> 1.0'):
        "equivalent: a padded row's upstream gradient is dropped by its "
        'ReLU mask, so any finite fill gives the same gradient',
    ('src/glad/trainer.py', 'base_seed: int = 0) -> TrainedCandidate:',
     '0 -> 1'):
        DEFAULT,
    ('src/glad/trainer.py', 'for epoch in range(config.epochs + 1):',
     '1 -> 2'):
        'equivalent: the loop breaks at epoch == epochs',
    ('src/glad/trainer.py', 'loss = data_loss + 0.5 * config.weight_decay * params.sq_norm()',
     '+ -> -'):
        LOSS,
    ('src/glad/trainer.py', 'loss = data_loss + 0.5 * config.weight_decay * params.sq_norm()',
     '0.5 -> 1.0'):
        LOSS,
    ('src/glad/trainer.py', 'loss = data_loss + 0.5 * config.weight_decay * params.sq_norm() (#2)',
     '* -> /'):
        LOSS,
    ('src/glad/trainer.py', 'return n_train if raw >= n_train else min(max(math.ceil(raw), 4), n_train)',
     '>= -> >'):
        'equivalent: raw == n_train gives n_train either way',
    ('src/glad/trainer.py', 'workers: int = 1, base_seed: int = 0) -> CandidatePool:',
     '0 -> 1'):
        DEFAULT,
    ('src/glad/trainer.py', 'futures = [pool.submit(_train_share) for _ in range(workers - 1)]',
     '- -> +'):
        'equivalent: an extra task finds the shared counter spent',
    ('src/glad/trainer.py', 'g = np.arange(10000)',
     '10000 -> 10001'):
        'equivalent: a table row for group 10000 is never indexed',
    ('src/glad/trainer.py', 'neg, x = np.arange(2)[:, None, None, None], np.arange(-4, 9)[:, None, None]',
     '2 -> 3'):
        'equivalent: a third sign block of the keep table is never indexed',
    ('src/glad/trainer.py', 'keep = np.concatenate([keep.reshape(-1, 24), np.zeros((1, 24), bool)])',
     '1 -> 2'):
        'equivalent: key -1 still picks a row of zeros',
    ('src/glad/trainer.py', '_POW10 = 10.0 ** np.arange(14) # exact doubles',
     '14 -> 15'):
        'equivalent: k stays at most 13, so a 15th power is never read',
    ('src/glad/trainer.py', 'k = np.where(ok, k, 0).astype(np.intp)',
     '0 -> 1'):
        'equivalent: a placeholder k for a value whose row is left out; any '
        'index in range serves',
    ('src/glad/trainer.py', 'ok &= (scaled >= 1e8) & (m <= 1e9) & (np.abs(scaled - m) < 0.499999)',
     '1e9 -> 2000000000.0'):
        'equivalent with a correctly rounded log10: scaled stays below 1e9, '
        'so m never passes it',
    ('src/glad/trainer.py', 'ok &= (scaled >= 1e8) & (m <= 1e9) & (np.abs(scaled - m) < 0.499999)',
     '< -> <='):
        'equivalent: differs only where |scaled - m| is exactly 0.499999',
    ('src/glad/trainer.py', 'k[~ok] = 0',
     '0 -> 1'):
        'equivalent: a placeholder k for a value whose row is left out; any '
        'index in range serves',
    ('src/glad/trainer.py', 'key = np.where(ok, ((x.ravel() < 0) * 13 + 12 - k) * 13 + frac, -1)',
     '< -> <='):
        'equivalent: zeros are never on the vectorized path',
    ('src/glad/trainer.py', 'key = np.where(ok, ((x.ravel() < 0) * 13 + 12 - k) * 13 + frac, -1)',
     '-1 -> 0'):
        "equivalent: a left-out row's bytes are skipped by the row ends "
        'either way',
    ('src/glad/trainer.py', 'step = max(1, _CHUNK_VALUES // max(values.shape[1], 1))',
     '1 -> 2'):
        'equivalent: the chunk size changes memory, not the text',
    ('src/glad/trainer.py', 'step = max(1, _CHUNK_VALUES // max(values.shape[1], 1)) (#3)',
     '1 -> 2'):
        'equivalent: the chunk size changes memory, not the text',
}


@dataclass(frozen=True)
class Site:
    path: Path  # relative to the repository root
    line: int
    kind: str  # guard, constant, arithmetic, comparison or boolean
    text: str  # the if's test for a guard, else the source line
    before: str
    after: str
    start: int  # byte span that ``after`` replaces
    end: int

    @property
    def key(self):
        return (self.path.as_posix(), self.text, self.change)

    @property
    def change(self):
        return f"{self.before} -> {self.after}"

    def __str__(self):
        return f"{self.path}:{self.line}: {self.text}  [{self.change}]"


def _annotations(tree):
    """Ids of every node inside an annotation."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(n) for r in roots for n in ast.walk(r)}


def _number(node):
    """The value of a numeric literal, ``-c`` included; else None."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = _number(node.operand)
        return None if value is None else -value
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    return None


def _operator_spans(node):
    """Pairs of ``node``'s operands, one pair around each of its operator
    tokens."""
    if isinstance(node, ast.BinOp):
        return [(node.left, node.right)]
    if isinstance(node, ast.AugAssign):
        return [(node.target, node.value)]
    if isinstance(node, ast.Compare):
        sides = [node.left, *node.comparators]
        return list(zip(sides, sides[1:]))
    values = node.values  # ast.BoolOp
    return list(zip(values, values[1:]))


def find_sites(root: Path) -> list:
    """Every site in ``src/glad``, in file, line and column order."""
    found = []
    for path in sorted((root / "src" / "glad").glob("*.py")):
        data = path.read_bytes()  # ast offsets count UTF-8 bytes
        lines = data.splitlines(keepends=True)
        line_at = [0]
        for ln in lines:
            line_at.append(line_at[-1] + len(ln))

        def pos(lineno, col):
            return line_at[lineno - 1] + col

        # Operator tokens by byte span; tokenize counts characters.
        tokens = []
        for tok in tokenize.tokenize(io.BytesIO(data).readline):
            if tok.type in (tokenize.OP, tokenize.NAME):
                (r0, c0), (r1, c1) = tok.start, tok.end
                text0, text1 = (lines[r - 1].decode() for r in (r0, r1))
                tokens.append((pos(r0, len(text0[:c0].encode())),
                               pos(r1, len(text1[:c1].encode())),
                               tok.string))
        rel = path.relative_to(root)
        tree = ast.parse(data, str(path))
        skip = _annotations(tree) | {  # the c of each -c
            id(n.operand) for n in ast.walk(tree)
            if isinstance(n, ast.UnaryOp) and _number(n) is not None}

        def add(kind, start, end, after, text=None):
            ln = next(k for k in range(len(lines)) if line_at[k + 1] > start)
            text = text or " ".join(lines[ln].decode().split())
            before = " ".join(data[start:end].decode().split())
            found.append(Site(rel, ln + 1, kind, text, before, after, start,
                              end))

        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.If) and isinstance(node.body[-1],
                                                       ast.Raise):
                t = node.test
                start = pos(t.lineno, t.col_offset)
                end = pos(t.end_lineno, t.end_col_offset)
                test = " ".join(data[start:end].decode().split())
                add("guard", start, end, "False", f"if {test}")
            if (v := _number(node)) is not None:
                after = (str(v + 1) if type(v) is int
                         else repr(2 * v) if v else "1.0")
                add("constant", pos(node.lineno, node.col_offset),
                    pos(node.end_lineno, node.end_col_offset), after)
            elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.Compare,
                                   ast.BoolOp)):
                kind = ("comparison" if isinstance(node, ast.Compare) else
                        "boolean" if isinstance(node, ast.BoolOp) else
                        "arithmetic")
                for left, right in _operator_spans(node):
                    lo = pos(left.end_lineno, left.end_col_offset)
                    hi = pos(right.lineno, right.col_offset)
                    between = [t for t in tokens if lo <= t[0] and t[1] <= hi
                               and t[2] not in "()"]
                    if not between:  # inside an f-string: one token
                        raw = data[lo:hi].decode()
                        bare = raw.strip("() \t\n\\")
                        at = lo + len(raw[:raw.index(bare)].encode())
                        between = [(at, at + len(bare.encode()), bare)]
                    op = " ".join(t[2] for t in between)
                    if isinstance(node, ast.AugAssign):
                        op = op.removesuffix("=")
                    if op not in SWAP:
                        raise RuntimeError(
                            f"{rel}:{node.lineno}: no operator in {op!r}")
                    after = SWAP[op] + ("=" if isinstance(node, ast.AugAssign)
                                        else "")
                    add(kind, between[0][0], between[-1][1], after)
    found.sort(key=lambda s: (str(s.path), s.start, s.kind != "guard"))
    # Two equal sites on one line are told apart by their order.
    seen = Counter()
    for k, s in enumerate(found):
        seen[s.key] += 1
        if seen[s.key] > 1:
            found[k] = Site(s.path, s.line, s.kind,
                            f"{s.text} (#{seen[s.key]})", s.before, s.after,
                            s.start, s.end)
    return found


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _run(cmd, cwd: Path, timeout: float) -> bool | None:
    """Whether ``cmd`` exits 0 within ``timeout`` seconds; None past it.
    Its whole process group is killed after, pool workers included."""
    env = {**os.environ, **ONE_THREAD, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True,
                            preexec_fn=_limit_memory)
    try:
        return proc.wait(timeout=max(timeout, 0)) == 0
    except subprocess.TimeoutExpired:
        return None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def passes(root: Path, site: Site | None = None) -> bool | None:
    """Whether tier-1 (criteria 1 and 6 left out) passes in a fresh copy
    of ``root`` with ``site``'s change applied; None past the time limit.
    The mutated module's own test file runs first, then the rest."""
    with tempfile.TemporaryDirectory(prefix="guard_sweep_") as tmp:
        tmp = Path(tmp)
        for name in COPIED:
            if (root / name).is_dir():
                shutil.copytree(root / name, tmp / name, ignore=
                                shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(root / name, tmp / name)
        stages = [["tests"]]
        if site is not None:
            target = tmp / site.path
            data = target.read_bytes()
            target.write_bytes(data[:site.start] + site.after.encode()
                               + data[site.end:])
            own = f"tests/test_{site.path.stem}.py"
            if (tmp / own).exists():
                stages = [[own], [f"--ignore={own}", "tests"]]
        deadline = time.monotonic() + TIMEOUT_S
        for args in stages:
            ok = _run([sys.executable, "-m", "pytest", *PYTEST,
                       f"--basetemp={tmp / 'pytest'}", *args], tmp,
                      deadline - time.monotonic())
            if not ok:
                return ok
        return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true",
                        help="list the sites and exit")
    args = parser.parse_args(argv)
    sites = find_sites(ROOT)
    if args.list:
        for s in sites:
            print(s)
        return 0
    stale = set(KEPT) - {s.key for s in sites}
    for key in sorted(stale):
        print("KEPT names no site: {}: {}  [{}]".format(*key),
              file=sys.stderr)
    if stale:
        return 1
    if not passes(ROOT):
        print("tier-1 fails with no change made", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    survivors = []
    timeouts = 0
    with ThreadPoolExecutor(JOBS) as pool:
        for k, (s, ok) in enumerate(zip(
                sites, pool.map(lambda s: passes(ROOT, s), sites)), 1):
            word = {True: "SURVIVED", False: "killed", None: "timeout"}[ok]
            print(f"[{k}/{len(sites)}] {word} {s}", file=sys.stderr,
                  flush=True)
            timeouts += ok is None
            if ok:
                survivors.append(s)
    total = Counter(s.kind for s in sites)
    lived = Counter(s.kind for s in survivors)
    print(f"{len(survivors)} of {len(sites)} changes survive "
          f"({timeouts} timed out; {time.perf_counter() - t0:.0f} s): "
          + ", ".join(f"{kind} {lived[kind]}/{n}"
                      for kind, n in sorted(total.items())))
    unlisted = 0
    for s in survivors:
        reason = KEPT.get(s.key)
        unlisted += reason is None
        print(str(s) + ("" if reason is None else f"  (kept: {reason})"))
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())

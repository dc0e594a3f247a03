"""Seeded mutation test of the CLI's input contract.

Five inputs (a generated TU split, a grid file, a pool, read by two
selection methods, an ``evaluate`` pair and a pipeline config) are each
mutated line by line from a fixed seed and fed to ``cli.main``
in-process under a per-call time limit.
Every call must exit 0, or exit 2 with one ``error:`` line; an exception
or a call past the limit fails the test.

The bookkeeping of ``tools/guard_sweep.py``, the mutation sweep of
``src/glad`` that runs outside the suite, is checked here too: its site
list, without running a mutant.
"""

import importlib.util
import signal
import sys
from pathlib import Path

import numpy as np
import pytest

from glad import cli
from glad import trainer as gtrain
from glad.data import load_tu_dataset

SEED = 20261019
ROUNDS = 4          # each mutation kind, at a random line, per input
LIMIT_S = 10.0      # per cli.main call; a clean call takes well under 1 s
HUGE = "99999999999999999999"
VALUES = ("nan", "inf", "1e400", "-1", "0", HUGE, "1_0", "", " ",
          ", ".join(["1"] * 20_001))  # past MAX_CONFIGS on any grid key
# "empty" keeps only the first line (a CSV's header) of every file of
# an input at once, so the pool is left with no models.
LINE_KINDS = ("delete", "duplicate", "truncate", "extra", "byte", "empty",
              *(("value", v) for v in VALUES))
INI_KINDS = LINE_KINDS + ("percent", "colon", "semicolon", "default",
                          "misspell", "upper")

GRID = """\
[common]
epochs = 1
batch_size = 8
d_hidden = 4   # small
weight_decay = 1e-4

[mean]
layers = 1
lr = 1e-3
seed = 0, 1

[mmd]
layers = 1
lr = 0.01
seed = 0
nystrom_k = 4
"""

# Relative paths: the test runs in its own directory.  No workers key,
# so no mutation starts worker processes.
RUN_INI = """\
[run]
out_dir = out
master_seed = 3

[selection]
methods = hits, hits-ens, mc, udr

[grid]
file = grid.txt

[data]
source = generate
n_train = 6
n_test = 6
anomaly_rate = 0.2
nodes = 10
labels = 2
"""


class Hang(Exception):
    """A call ran past LIMIT_S."""


def _alarm(signum, frame):
    raise Hang(f"cli.main ran past {LIMIT_S} s")


def mutate(data: bytes, kind, rng, ini: bool) -> bytes:
    """``data`` with one line, chosen by ``rng``, mutated by ``kind``.  In
    an INI file a value or a ``%`` goes into the value of a ``key = ...``
    line; elsewhere a value replaces one comma-separated field."""
    lines = data.decode().split("\n")
    value = kind[1] if isinstance(kind, tuple) else None
    at = [i for i, line in enumerate(lines) if "=" in line
          or not (ini and (value is not None or kind == "percent"))]
    i = at[int(rng.integers(len(at)))]
    line = lines[i]
    key, eq, rest = line.partition("=") if ini else ("", "", line)
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, line)
    elif kind == "truncate":
        lines[i] = line[:int(rng.integers(len(line) + 1))]
    elif kind == "empty":
        del lines[1:]
    elif value is not None:
        fields = rest.split(",")
        fields[int(rng.integers(len(fields)))] = value
        lines[i] = key + eq + ",".join(fields)
    elif kind == "extra":
        lines[i] = line + ",1"
    elif kind == "byte":
        k = int(rng.integers(len(line) + 1))
        return "\n".join(lines[:i] + [line[:k]]).encode() + b"\xff" + \
            "\n".join([line[k:]] + lines[i + 1:]).encode()
    elif kind == "percent":
        k = int(rng.integers(len(rest) + 1))
        lines[i] = key + eq + rest[:k] + "%" + rest[k:]
    elif kind == "colon":
        lines[i] = line.replace("=", ":", 1)
    elif kind == "semicolon":
        lines[i] = "; " + line
    elif kind == "default":
        lines.insert(i, "[DEFAULT]")
    elif kind == "misspell" and key.strip():
        k = int(rng.integers(len(key.strip())))
        lines[i] = key.strip()[:k] + key.strip()[k + 1:] + " =" + rest
    elif kind == "upper":
        lines[i] = key.upper() + eq + rest
    return "\n".join(lines).encode()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory holding the five clean inputs, and the argv that reads
    each; every path is relative to that directory."""
    root = tmp_path_factory.mktemp("mutations")
    data = root / "data"
    assert cli.main(["generate", "--out", str(data), "--n-train", "6",
                     "--n-test", "6", "--nodes", "10", "--labels", "2",
                     "--anomaly-rate", "0.2", "--seed", "1"]) == 0
    (root / "grid.txt").write_text(GRID)
    (root / "run.ini").write_text(RUN_INI)
    assert cli.main(["train", "--data", str(data), "--grid",
                     str(root / "grid.txt"), "--out",
                     str(root / "pool")]) == 0
    assert cli.main(["select", "--pool", str(root / "pool"), "--method",
                     "hits", "--out", str(root / "scores.csv")]) == 0
    test_db = load_tu_dataset(data / "test")
    (root / "flags.csv").write_text("graph_id,flag\n" + "".join(
        f"{g.graph_id},{int(f)}\n"
        for g, f in zip(test_db.graphs, test_db.anomaly_flags)))
    train = ["train", "--data", "data", "--grid", "grid.txt", "--out", "o"]
    split = sorted(p.relative_to(root) for p in data.rglob("*.txt"))
    return root, [
        (split, train, False),
        (["grid.txt"], train, True),
        *((["pool/pool_configs.csv", "pool/pool_scores.csv"],
           ["select", "--pool", "pool", "--method", method, "--out", "s.csv"],
           False) for method in ("udr", "hits")),
        (["scores.csv", "flags.csv"],
         ["evaluate", "--scores", "scores.csv", "--flags", "flags.csv",
          "--out", "e.txt"], False),
        (["run.ini"], ["pipeline", "--config", "run.ini"], True),
    ]


def test_mutated_inputs_exit_0_or_2(inputs, monkeypatch, capsys):
    root, cases = inputs
    monkeypatch.chdir(root)
    # A pipeline config that loses its [grid] file runs the default grid;
    # a small one keeps that case inside the time limit.
    monkeypatch.setattr(gtrain, "DEFAULT_GRID", {
        "mean": {"epochs": [1], "d_hidden": [4], "layers": [1]}})
    rng = np.random.default_rng(SEED)
    old = signal.signal(signal.SIGALRM, _alarm)
    try:
        for files, argv, ini in cases:
            for kind in (INI_KINDS if ini else LINE_KINDS) * ROUNDS:
                target = root / files[int(rng.integers(len(files)))]
                targets = ([root / f for f in files] if kind == "empty"
                           else [target])
                names = ", ".join(t.name for t in targets)
                clean = [t.read_bytes() for t in targets]
                for t, data in zip(targets, clean):
                    text = mutate(data, kind, rng, ini)
                    t.write_bytes(text)
                signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
                try:
                    code = cli.main(argv)
                except Exception as exc:
                    raise AssertionError(
                        f"{argv[0]} on mutated {names}: {exc!r}\n"
                        f"{text[:400]!r}") from exc
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    for t, data in zip(targets, clean):
                        t.write_bytes(data)
                err = capsys.readouterr().err
                assert code == 0 or (code == 2 and err.startswith("error:")
                                     and err.count("\n") == 1), \
                    (argv[0], names, code, err, text[:400])
    finally:
        signal.signal(signal.SIGALRM, old)


def test_kept_entries_name_one_site(monkeypatch):
    # The sweep leaves this test out of its mutant runs (its copies hold
    # no tools/), so a KEPT site's own mutant cannot orphan its entry.
    path = Path(__file__).resolve().parents[1] / "tools" / "guard_sweep.py"
    spec = importlib.util.spec_from_file_location("guard_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, sweep)  # for @dataclass
    spec.loader.exec_module(sweep)
    keys = [s.key for s in sweep.find_sites(sweep.ROOT)]
    assert len(keys) > 1000
    assert {k: keys.count(k) for k in sweep.KEPT} == dict.fromkeys(
        sweep.KEPT, 1)

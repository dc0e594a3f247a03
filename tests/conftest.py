"""Shared test helpers.

Bookkeeping for the acceptance suite: every acceptance test records a
verdict so the run ends with one pass/fail line per criterion, even when
a test aborts half way.  Oracles used by several test files: a parameter
flattener, central finite differences, the one-graph embedding, the mean
readout, squared MMD and a per-edge TU writer.
"""

from pathlib import Path

import numpy as np

from glad.encoder import EmbeddingSet, embed_block
from glad.numkit import GradSet, ParamSet
from glad.pooling import set_kernel_matrix

RESULTS = {}


def record(number: int, description: str, passed: bool) -> None:
    RESULTS[number] = (description, bool(passed))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(RESULTS):
        desc, ok = RESULTS[num]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num}: {verdict} - {desc}")


def flatten(ps) -> np.ndarray:
    """The matrices of a ParamSet or GradSet as one vector (w1 before w2,
    layer by layer)."""
    return np.concatenate([w.ravel() for pair in ps.layers for w in pair])


def finite_diff_grad(loss_fn, params: ParamSet, h: float = 1e-5,
                     indices=None) -> GradSet:
    """Central-difference gradient of ``loss_fn`` at ``params``.

    ``loss_fn`` maps a ParamSet to a float and must not mutate it.  When
    ``indices`` (positions into :func:`flatten` of the parameters) is
    given, only those entries are filled; the rest stay zero.
    """
    work = ParamSet(layers=[(w1.copy(), w2.copy()) for w1, w2 in params.layers],
                    d_in=params.d_in, d_hidden=params.d_hidden)
    grads = GradSet.zeros_like(params)
    mats = [w for pair in work.layers for w in pair]
    gmats = [g for pair in grads.layers for g in pair]
    bounds = np.cumsum([0] + [m.size for m in mats])
    if indices is None:
        indices = range(int(bounds[-1]))
    for flat_idx in indices:
        k = int(np.searchsorted(bounds, flat_idx, side="right") - 1)
        pos = np.unravel_index(flat_idx - bounds[k], mats[k].shape)
        orig = mats[k][pos]
        mats[k][pos] = orig + h
        up = loss_fn(work)
        mats[k][pos] = orig - h
        down = loss_fn(work)
        mats[k][pos] = orig
        gmats[k][pos] = (up - down) / (2.0 * h)
    return grads


def embed_one(graph, params: ParamSet) -> EmbeddingSet:
    """Node embeddings of one graph, from a block that holds only it (so
    no row is padded)."""
    return EmbeddingSet(graph_id=graph.graph_id,
                        vectors=embed_block([graph], params)[0])


def mean_pool(s: EmbeddingSet) -> np.ndarray:
    """Average of the node embedding vectors."""
    return s.vectors.mean(axis=0)


def mmd_squared(s_i, s_j, gamma: float) -> float:
    """Biased squared maximum mean discrepancy between two embedding
    sets: ``k(i,i) + k(j,j) - 2 k(i,j)`` with the mean-pairwise set
    kernel."""
    k = set_kernel_matrix([s_i, s_j], [s_i, s_j], gamma)
    return float(k[0, 0] + k[1, 1] - 2.0 * k[0, 1])


def write_tu_reference(db, directory, name: str) -> None:
    """The TU text files of ``db``, written line by line and edge by edge:
    each edge in both directions, weights as Python float reprs when some
    weight differs from 1."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    weighted = any(w != 1.0 for g in db.graphs for _, _, w in g.edges)
    files = {"A": [], "graph_indicator": [], "node_labels": [],
             "node_attributes": []}
    base = 0
    for k, g in enumerate(db.graphs):
        for u, v, w in g.edges:
            for i, j in ((u, v), (v, u)):
                line = f"{base + i + 1}, {base + j + 1}"
                files["A"].append(line + f", {float(w)!r}" if weighted else line)
        files["graph_indicator"] += [str(k + 1)] * g.node_count
        if g.node_labels is not None:
            files["node_labels"] += [str(int(x)) for x in g.node_labels]
        if g.node_attributes is not None:
            files["node_attributes"] += [", ".join(repr(float(x)) for x in row)
                                         for row in g.node_attributes]
        base += g.node_count
    if db.class_labels is not None:
        files["graph_labels"] = [str(int(x)) for x in db.class_labels]
    if db.anomaly_flags is not None:
        files["anomaly_flags"] = [str(int(x)) for x in db.anomaly_flags]
    for suffix, lines in files.items():
        if lines or suffix in ("A", "graph_indicator"):
            (directory / f"{name}_{suffix}.txt").write_text(
                "\n".join(lines) + "\n")

"""Shared test helpers.

Bookkeeping for the acceptance suite: every acceptance test records a
verdict so the run ends with one pass/fail line per criterion, even when
a test aborts half way.  Oracles used by several test files: a parameter
flattener, central finite differences, the one-graph embedding, an
``np.where`` encoder step, set packing, the mean readout, squared MMD,
a per-edge TU writer and a two-vector rank correlation.
"""

from pathlib import Path

import numpy as np

from glad.encoder import embed_block
from glad.metrics import midrank
from glad.numkit import ParamSet
from glad.pooling import set_kernel

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
    """The matrices of a ParamSet as one vector (w1 before w2,
    layer by layer)."""
    return np.concatenate([w.ravel() for pair in ps.layers for w in pair])


def finite_diff_grad(loss_fn, params: ParamSet, h: float = 1e-5,
                     indices=None) -> ParamSet:
    """Central-difference gradient of ``loss_fn`` at ``params``.

    ``loss_fn`` maps a ParamSet to a float and must not mutate it.  When
    ``indices`` (positions into :func:`flatten` of the parameters) is
    given, only those entries are filled; the rest stay zero.
    """
    work = ParamSet(layers=[(w1.copy(), w2.copy()) for w1, w2 in params.layers],
                    d_in=params.d_in, d_hidden=params.d_hidden)
    grads = params.zeros_like()
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


def embed_one(graph, params: ParamSet) -> np.ndarray:
    """Node embeddings of one graph, (node_count, d_hidden), from a block
    that holds only it (so no row is padded)."""
    return embed_block([graph], params)[0]


def where_encoder_step(graphs, params: ParamSet, d_out: np.ndarray):
    """A block's forward and backward pass with ``np.where`` ReLUs and
    ``h + A @ h`` aggregation, GEMM for GEMM as in :mod:`glad.encoder`:
    the padded output ``h``, the per-layer ``(z, a)`` and the weight
    gradients of ``sum(h * d_out)``."""
    n_b, n_max = len(graphs), max(g.node_count for g in graphs)
    h = np.zeros((n_b, n_max, params.d_in))
    adj = np.zeros((n_b, n_max, n_max))
    for b, g in enumerate(graphs):
        h[b, :g.node_count] = g.features
        for u, v, w in g.edges:
            adj[b, u, v] = adj[b, v, u] = w
    layers = []
    for w1, w2 in params.layers:
        z = (h + adj @ h).reshape(-1, h.shape[2])
        m = z @ w1
        a = np.where(m > 0, m, 0.0)
        h = (a @ w2).reshape(n_b, n_max, -1)
        layers.append((z, a, m > 0))
    grads = params.zeros_like()
    dh = d_out.reshape(n_b * n_max, -1)
    for l in range(params.n_layers - 1, -1, -1):
        (w1, w2), (z, a, mask) = params.layers[l], layers[l]
        g1, g2 = grads.layers[l]
        g2 += a.T @ dh
        dm = np.where(mask, dh @ w2.T, 0.0)
        g1 += z.T @ dm
        if l:
            dz = (dm @ w1.T).reshape(n_b, n_max, -1)
            dh = (dz + adj @ dz).reshape(n_b * n_max, -1)
    return h, [(z, a) for z, a, _ in layers], grads


def pack(sets):
    """Packed rows and int64 row offsets of a list of ``(n_i, d)`` node
    row arrays, the form :mod:`glad.pooling` takes."""
    sizes = [len(s) for s in sets]
    return np.concatenate(sets), np.concatenate([[0], np.cumsum(sizes)])


def mean_pool(x: np.ndarray) -> np.ndarray:
    """Average of one set's node embedding rows."""
    return x.mean(axis=0)


def mmd_squared(x_i, x_j, gamma: float) -> float:
    """Biased squared maximum mean discrepancy between two sets of node
    rows: ``k(i,i) + k(j,j) - 2 k(i,j)`` with the mean-pairwise set
    kernel."""
    k = set_kernel(*pack([x_i, x_j]), *pack([x_i, x_j]), gamma)
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


def spearman(x, y) -> float:
    """Rank correlation of two vectors: the Pearson correlation of their
    midranks, NaN when either is constant."""
    rx = midrank(x) - np.mean(midrank(x))
    ry = midrank(y) - np.mean(midrank(y))
    den = np.sqrt(np.sum(rx * rx) * np.sum(ry * ry))
    return float(np.sum(rx * ry) / den) if den else float("nan")

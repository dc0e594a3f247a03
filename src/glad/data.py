"""Graph collections: in-memory model, TU-style disk format, node feature
derivation, one-class train/test splits, and a synthetic generator that
grows Barabasi-Albert graphs with label-dependent attachment.

Graphs are undirected and may carry edge weights.  A database holds many
graphs plus database-level annotations (class labels, anomaly flags).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import FormatError, LoadError, SplitError

FEATURE_KINDS = ("one_hot_label", "attributes", "one_hot_degree")
DEFAULT_DEGREE_CAP = 10


@dataclass(frozen=True, eq=False)
class Graph:
    """A single undirected graph.

    Parameters
    ----------
    graph_id : int
        Identifier, unique within a database.
    node_count : int
        Number of nodes; node ids are 0..node_count-1.
    edges : tuple
        Tuple of (u, v, weight) triples with u < v, each pair at most once.
    node_labels : ndarray or None
        Integer label per node.
    node_attributes : ndarray or None
        (node_count, d_attr) float array of raw attributes.
    features : ndarray or None
        (node_count, d_in) float array of derived model inputs.
    """

    graph_id: int
    node_count: int
    edges: tuple
    node_labels: np.ndarray | None = None
    node_attributes: np.ndarray | None = None
    features: np.ndarray | None = None

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("graph must have at least one node")
        seen = set()
        for u, v, w in self.edges:
            if u == v:
                raise ValueError(f"self loop on node {u}")
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ValueError(f"edge ({u}, {v}) outside node range")
            if u > v:
                raise ValueError(f"edge ({u}, {v}) not stored with u < v")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            if not 0 < w < math.inf:
                raise ValueError(f"edge ({u}, {v}) has weight {w}, not finite "
                                 f"and > 0")
            seen.add((u, v))
        for name in ("node_labels", "node_attributes", "features"):
            arr = getattr(self, name)
            if arr is not None and arr.shape[0] != self.node_count:
                raise ValueError(f"{name} has {arr.shape[0]} rows for "
                                 f"{self.node_count} nodes")

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Dense symmetric weighted adjacency matrix, zero diagonal."""
        a = np.zeros((self.node_count, self.node_count))
        for u, v, w in self.edges:
            a[u, v] = w
            a[v, u] = w
        return a

    @cached_property
    def degrees(self) -> np.ndarray:
        """Unweighted node degrees (incident edge counts)."""
        d = np.zeros(self.node_count, dtype=np.int64)
        for u, v, _ in self.edges:
            d[u] += 1
            d[v] += 1
        return d

    @property
    def d_in(self) -> int | None:
        return None if self.features is None else self.features.shape[1]


@dataclass(frozen=True, eq=False)
class GraphDatabase:
    """An ordered collection of graphs with shared annotations.

    ``class_labels`` are raw per-graph classification labels (used to pick
    the inlier class for one-class splits).  ``anomaly_flags`` are boolean
    ground-truth markers reserved for evaluation; training databases must
    not carry a True flag.
    """

    graphs: tuple
    feature_kind: str | None = None
    class_labels: np.ndarray | None = None
    anomaly_flags: np.ndarray | None = None
    split_tag: str | None = None

    def __post_init__(self):
        for name in ("class_labels", "anomaly_flags"):
            arr = getattr(self, name)
            if arr is not None and len(arr) != len(self.graphs):
                raise ValueError(f"{name} length {len(arr)} != "
                                 f"{len(self.graphs)} graphs")
        # Training embeds each graph id once, so ids must name one graph.
        if len({g.graph_id for g in self.graphs}) != len(self.graphs):
            raise ValueError("graph ids must be unique")
        dims = {g.d_in for g in self.graphs}
        if len(dims) > 1:
            raise ValueError(f"inconsistent feature widths: {sorted(map(str, dims))}")
        if self.split_tag == "train" and self.anomaly_flags is not None \
                and bool(np.any(self.anomaly_flags)):
            raise ValueError("training database carries anomaly flags")

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self):
        return iter(self.graphs)

    @property
    def d_in(self) -> int | None:
        return self.graphs[0].d_in if self.graphs else None

    @property
    def graph_ids(self) -> list:
        return [g.graph_id for g in self.graphs]


def _prechecked(fields: dict) -> Graph:
    # Skips Graph's per-edge checks: the TU loader checks its edges as
    # arrays, and derive_features keeps an already checked graph's edges.
    g = object.__new__(Graph)
    g.__dict__.update(fields)
    return g


def _normalized_edges(u, v, w, starts) -> list:
    """Per graph, the sorted tuple of its (u, v, w) triples with u < v,
    from edges between node positions in graph-major order (graph k
    starts at ``starts[k]``).  A repeated pair keeps its first weight in
    file order; ``w`` None means weight 1 throughout."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    key = lo * (int(hi.max(initial=0)) + 1) + hi
    order = np.argsort(key, kind="stable")  # stable: file order among copies
    order = order[np.diff(key[order], prepend=-1) != 0]
    lo, hi = lo[order], hi[order]
    b = np.append(np.searchsorted(lo, starts), lo.size)
    base = np.repeat(starts, np.diff(b))
    us, vs, b = (lo - base).tolist(), (hi - base).tolist(), b.tolist()
    ws = [1.0] * len(us) if w is None else w[order].tolist()
    return [tuple(zip(us[s:e], vs[s:e], ws[s:e])) for s, e in zip(b, b[1:])]


# ---------------------------------------------------------------------------
# TU-style disk format
# ---------------------------------------------------------------------------

def dataset_name(directory) -> str:
    """Infer the dataset name from the single ``<NAME>_A.txt`` file."""
    hits = sorted(Path(directory).glob("*_A.txt"))
    if len(hits) != 1:
        raise LoadError(f"expected exactly one *_A.txt in {directory}, "
                        f"found {len(hits)}")
    return hits[0].name[:-len("_A.txt")]


def table_rows(path, what: str, parse, header: bool = False):
    """Yield ``(line_number, parse(stripped line))`` for each non-blank
    line of a text table; with ``header`` the first such line is yielded
    unparsed.  A ``ValueError`` from ``parse`` becomes a FormatError
    ``"<path>:<line>: bad <what>: <reason>"``.
    """
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        s = raw.strip()
        if not s:
            continue
        if not header:
            try:
                s = parse(s)
            except ValueError as exc:
                raise FormatError(f"{path}:{ln}: bad {what}: {exc}") from None
        header = False
        yield ln, s


def first_row(path):
    """``(line_number, stripped text)`` of a table's first non-blank line."""
    with open(path) as f:
        return next(((ln, s.strip()) for ln, s in enumerate(f, 1)
                     if s.strip()), (1, ""))


def read_table(path, what: str, parse, dtype, check, header: bool = False):
    """Parse a comma-separated table whole with ``np.loadtxt`` into a 2-D
    array of ``dtype`` (a structured dtype fixes the columns), skipping a
    ``header`` line, and return it if ``check(table)`` holds.  Otherwise
    return the rows of :func:`table_rows` with ``parse``, which raises the
    first bad line's FormatError; the rows are what numpy refuses but the
    format allows (``1_0``, mixed edge widths, lines of spaces)."""
    try:
        with warnings.catch_warnings():
            # numpy warns on an empty file, and numpy 1.x on "1.0" as an int
            warnings.simplefilter("error")
            table = np.loadtxt(path, dtype, delimiter=",", comments=None,
                               skiprows=int(header), ndmin=2)
    except (ValueError, Warning):
        table = None
    if table is not None and check(table):
        return table
    return [row for _, row in table_rows(path, what, parse, header)][int(header):]


def parse_flag(s: str) -> bool:
    """Parse an anomaly flag, which must be 0 or 1."""
    v = int(s)
    if v not in (0, 1):
        raise ValueError(f"must be 0 or 1, got {v}")
    return bool(v)


def _attribute_row(s: str) -> list:
    row = [float(p) for p in s.split(",")]
    if not all(map(math.isfinite, row)):
        raise ValueError(f"non-finite value in {s!r}")
    return row


def load_tu_dataset(directory, name: str | None = None) -> GraphDatabase:
    """Read a dataset in the adjacency-list text format.

    Mandatory files are ``<name>_A.txt`` (one ``i, j`` edge per line,
    node ids 1-based and global across graphs) and
    ``<name>_graph_indicator.txt`` (graph id per node line).  Optional
    files add node labels, node attributes, per-graph class labels and
    per-graph anomaly flags.  An optional third column in the edge file
    carries weights, which must be finite and > 0; attributes must be
    finite.  A graph's nodes keep their file order whether or not the
    indicator lists each graph contiguously.

    Raises
    ------
    LoadError
        If a mandatory file is missing.
    FormatError
        On malformed lines, out-of-range ids, self loops, cross-graph
        edges, bad weights or attributes, or row-count mismatches;
        messages carry line numbers.
    """
    directory = Path(directory)
    if name is None:
        name = dataset_name(directory)
    a_path = directory / f"{name}_A.txt"
    ind_path = directory / f"{name}_graph_indicator.txt"
    for p in (a_path, ind_path):
        if not p.is_file():
            raise LoadError(f"missing mandatory file {p}")

    def graph_id(s):
        gid = int(s)
        if gid < 1:
            raise ValueError(f"{gid} < 1")
        return gid

    ind = read_table(ind_path, "graph id", graph_id, np.int64,
                     lambda t: t.shape[1] == 1 and np.all(t >= 1))
    ind = np.asarray(ind, dtype=np.int64).ravel()
    if not ind.size:
        raise FormatError(f"{ind_path}: no nodes")
    n_total, n_graphs = ind.size, int(ind.max())

    # Graph-major node positions; the stable sort keeps file order.
    counts = np.bincount(ind, minlength=n_graphs + 1)[1:]
    if np.any(counts == 0):
        empty = int(np.flatnonzero(counts == 0)[0]) + 1
        raise FormatError(f"{ind_path}: graph {empty} has no nodes")
    order = np.argsort(ind, kind="stable")
    pos = np.empty(n_total, dtype=np.int64)
    pos[order] = np.arange(n_total)
    starts = np.cumsum(counts) - counts

    def edge(s):
        parts = s.split(",")
        if len(parts) not in (2, 3):
            raise ValueError(f"expected 'i, j[, w]', got {s!r}")
        i, j = int(parts[0]), int(parts[1])
        w = float(parts[2]) if len(parts) == 3 else 1.0
        if not (1 <= i <= n_total and 1 <= j <= n_total):
            raise ValueError(f"node id out of range in {s!r}")
        if i == j:
            raise ValueError(f"self loop on node {i}")
        gi, gj = ind[i - 1], ind[j - 1]
        if gi != gj:
            raise ValueError(f"edge joins graphs {gi} and {gj}")
        if not 0 < w < math.inf:
            raise ValueError(f"weight {parts[2].strip()} is not finite "
                             f"and > 0")
        return i, j, w

    def edges_ok(t):
        i, j = t["i"] - 1, t["j"] - 1
        w = t["w"] if "w" in t.dtype.names else 1.0
        return np.all((0 <= i) & (i < n_total) & (0 <= j) & (j < n_total)
                      & (i != j) & (0 < w) & (w < np.inf)
                      & (ind.take(i, mode="clip") == ind.take(j, mode="clip")))

    fields = [("i", np.int64), ("j", np.int64), ("w", np.float64)]
    width = 3 if first_row(a_path)[1].count(",") == 2 else 2
    tab = read_table(a_path, "edge", edge, fields[:width], edges_ok)
    tab = np.array(tab, fields) if isinstance(tab, list) else tab.ravel()
    edges = _normalized_edges(pos[tab["i"] - 1], pos[tab["j"] - 1],
                              tab["w"] if "w" in tab.dtype.names else None,
                              starts)

    def optional(suffix, what, parse, n_rows, noun, dtype=np.int64,
                 valid=lambda t: True, one_column=True):
        path = directory / f"{name}_{suffix}.txt"
        if not path.is_file():
            return None
        rows = read_table(path, what, parse, dtype, lambda t: (
            (t.shape[1] == 1 or not one_column) and np.all(valid(t))))
        if len(rows) != n_rows:
            raise FormatError(f"{path}: {len(rows)} rows for {n_rows} {noun}")
        try:
            rows = np.asarray(rows, dtype=dtype).reshape(n_rows, -1)
        except ValueError:  # attribute rows of differing widths
            raise FormatError(f"{path}: ragged {what}s") from None
        return rows[:, 0] if one_column else rows

    node_labels = optional("node_labels", "node label", int, n_total, "nodes")
    node_attrs = optional("node_attributes", "attribute row", _attribute_row,
                          n_total, "nodes", np.float64, np.isfinite, False)
    class_labels = optional("graph_labels", "graph label", int, n_graphs,
                            "graphs")
    flags = optional("anomaly_flags", "anomaly flag", parse_flag, n_graphs,
                     "graphs", valid=lambda t: np.isin(t, (0, 1)))

    members = np.split(order, np.cumsum(counts)[:-1])
    graphs = tuple(_prechecked(dict(
        graph_id=k,
        node_count=c,
        edges=edges[k],
        node_labels=None if node_labels is None else node_labels[idx],
        node_attributes=None if node_attrs is None else node_attrs[idx],
        features=None,
    )) for k, (c, idx) in enumerate(zip(counts.tolist(), members)))
    return GraphDatabase(graphs=graphs, class_labels=class_labels,
                         anomaly_flags=None if flags is None else flags.astype(bool))


def write_tu_dataset(db: GraphDatabase, directory, name: str) -> None:
    """Write a database in the adjacency-list text format.

    Edges are emitted in both directions.  The weight column is written
    only when some weight differs from 1.  Anomaly flags and class labels
    are written when present.  Files use LF line endings.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    offsets = np.cumsum([0] + [g.node_count for g in db.graphs])
    weighted = any(w != 1.0 for g in db.graphs for _, _, w in g.edges)

    a_lines, ind_lines = [], []
    label_lines, attr_lines = [], []
    for k, g in enumerate(db.graphs):
        base = offsets[k]
        for u, v, w in g.edges:
            for i, j in ((u, v), (v, u)):
                if weighted:
                    a_lines.append(f"{base + i + 1}, {base + j + 1}, {w!r}")
                else:
                    a_lines.append(f"{base + i + 1}, {base + j + 1}")
        ind_lines.extend([str(k + 1)] * g.node_count)
        if g.node_labels is not None:
            label_lines.extend(str(int(x)) for x in g.node_labels)
        if g.node_attributes is not None:
            attr_lines.extend(", ".join(repr(float(x)) for x in row)
                              for row in g.node_attributes)

    def dump(suffix: str, lines) -> None:
        path = directory / f"{name}_{suffix}.txt"
        path.write_text("\n".join(lines) + "\n")

    dump("A", a_lines)
    dump("graph_indicator", ind_lines)
    if label_lines:
        dump("node_labels", label_lines)
    if attr_lines:
        dump("node_attributes", attr_lines)
    if db.class_labels is not None:
        dump("graph_labels", [str(int(x)) for x in db.class_labels])
    if db.anomaly_flags is not None:
        dump("anomaly_flags", [str(int(x)) for x in db.anomaly_flags])


# ---------------------------------------------------------------------------
# Feature derivation
# ---------------------------------------------------------------------------

def node_label_alphabet(*dbs) -> np.ndarray:
    """The sorted distinct node labels of the given databases."""
    labels = np.concatenate([g.node_labels for db in dbs for g in db.graphs])
    # With an index output np.unique does not import numpy.ma (~13 ms).
    return np.unique(labels, return_inverse=True)[0]


def derive_features(db: GraphDatabase, kind: str,
                    degree_cap: int = DEFAULT_DEGREE_CAP,
                    label_alphabet=None) -> GraphDatabase:
    """Attach derived node feature matrices, returning a new database.

    ``one_hot_label`` encodes node labels over a shared alphabet (the
    sorted distinct labels in ``db`` unless ``label_alphabet`` is given).
    ``attributes`` uses raw attribute rows as-is.  ``one_hot_degree``
    encodes ``min(degree, degree_cap)`` over ``degree_cap + 1`` slots.
    """
    if kind not in FEATURE_KINDS:
        raise ValueError(f"unknown feature kind {kind!r}, "
                         f"expected one of {FEATURE_KINDS}")
    if not db.graphs:
        return replace(db, feature_kind=kind)
    if kind == "attributes":
        if any(g.node_attributes is None for g in db.graphs):
            raise ValueError("attributes kind requires node attributes")
        feats = [g.node_attributes.astype(float) for g in db.graphs]
    else:
        if kind == "one_hot_label":
            if any(g.node_labels is None for g in db.graphs):
                raise ValueError("one_hot_label requires node labels on every graph")
            labels = np.concatenate([g.node_labels for g in db.graphs])
            alphabet = np.asarray(node_label_alphabet(db) if label_alphabet is None
                                  else label_alphabet)
            outside = np.flatnonzero(~np.isin(labels, alphabet))
            if outside.size:
                raise ValueError(f"label {int(labels[outside[0]])} outside alphabet")
            by_value = np.argsort(alphabet, kind="stable")
            slot = by_value[np.searchsorted(alphabet, labels, sorter=by_value)]
            width = alphabet.size
        else:
            if degree_cap < 1:
                raise ValueError("degree_cap must be >= 1")
            slot = np.minimum(np.concatenate([g.degrees for g in db.graphs]),
                              degree_cap)
            width = degree_cap + 1
        one_hot = np.zeros((slot.size, width))
        one_hot[np.arange(slot.size), slot] = 1.0
        ends = np.cumsum([g.node_count for g in db.graphs]).tolist()
        feats = [one_hot[e - g.node_count:e] for g, e in zip(db.graphs, ends)]
    return replace(db, feature_kind=kind, graphs=tuple(
        _prechecked(vars(g) | {"features": f}) for g, f in zip(db.graphs, feats)))


# ---------------------------------------------------------------------------
# One-class splits
# ---------------------------------------------------------------------------

def make_split(db: GraphDatabase, inlier_class: int, anomaly_rate: float,
               train_fraction: float, seed: int):
    """Split a labelled database into a clean training set and a
    contaminated test set.

    Training graphs are a seeded random ``train_fraction`` of the inlier
    class.  The test set takes the remaining inliers plus anomalies drawn
    from the other classes, sized so anomalies make up ``anomaly_rate``
    of the test set (at least one, at most all available).

    Returns ``(train_db, test_db)``.
    """
    if db.class_labels is None:
        raise SplitError("database has no class labels")
    if not 0 < train_fraction < 1:
        raise SplitError(f"train_fraction {train_fraction} outside (0, 1)")
    if not 0 < anomaly_rate < 1:
        raise SplitError(f"anomaly_rate {anomaly_rate} outside (0, 1)")
    labels = np.asarray(db.class_labels)
    inlier_idx = np.flatnonzero(labels == inlier_class)
    other_idx = np.flatnonzero(labels != inlier_class)
    if inlier_idx.size < 2:
        raise SplitError(f"need at least two graphs of class {inlier_class}, "
                         f"found {inlier_idx.size}")
    if other_idx.size == 0:
        raise SplitError("no graphs outside the inlier class")

    rng = np.random.default_rng(seed)
    inlier_idx = rng.permutation(inlier_idx)
    n_train = int(round(train_fraction * inlier_idx.size))
    n_train = min(max(n_train, 1), inlier_idx.size - 1)
    train_idx = inlier_idx[:n_train]
    held_idx = inlier_idx[n_train:]

    want = int(round(anomaly_rate * held_idx.size / (1.0 - anomaly_rate)))
    n_anom = min(max(want, 1), other_idx.size)
    anom_idx = rng.choice(other_idx, size=n_anom, replace=False)

    test_idx = np.concatenate([held_idx, anom_idx])
    order = rng.permutation(test_idx.size)
    test_idx = test_idx[order]
    flags = np.concatenate([np.zeros(held_idx.size, dtype=bool),
                            np.ones(n_anom, dtype=bool)])[order]

    def take(idx):
        return tuple(db.graphs[i] for i in idx)

    train_db = GraphDatabase(graphs=take(train_idx),
                             feature_kind=db.feature_kind,
                             class_labels=labels[train_idx],
                             split_tag="train")
    test_db = GraphDatabase(graphs=take(test_idx),
                            feature_kind=db.feature_kind,
                            class_labels=labels[test_idx],
                            anomaly_flags=flags,
                            split_tag="test")
    return train_db, test_db


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------

def _grow_homophily_ba(n_nodes: int, ba_m: int, homophily: float,
                       n_labels: int, rng):
    labels = rng.integers(0, n_labels, size=n_nodes)
    degrees = np.zeros(n_nodes, dtype=np.int64)
    edges = []
    for s in range(ba_m, n_nodes):
        existing = np.arange(s)
        snapshot = degrees[:s].astype(float)
        chosen = []
        for _ in range(ba_m):
            same = rng.random() < homophily
            mask = (labels[:s] == labels[s]) if same else (labels[:s] != labels[s])
            mask = mask.copy()
            mask[chosen] = False
            pool = existing[mask]
            if pool.size == 0:
                avail = np.ones(s, dtype=bool)
                avail[chosen] = False
                pool = existing[avail]
            w = snapshot[pool]
            total = w.sum()
            p = None if total == 0 else w / total
            t = int(rng.choice(pool, p=p))
            chosen.append(t)
            edges.append((min(s, t), max(s, t), 1.0))
        degrees[chosen] += 1
        degrees[s] += ba_m
    return labels, edges


def generate_mixhop(n_graphs: int, nodes_per_graph: int, ba_m: int,
                    homophily: float, n_labels: int, seed: int,
                    id_offset: int = 0) -> GraphDatabase:
    """Generate graphs by preferential attachment with label-aware targets.

    Each node draws a uniform label from ``n_labels`` symbols.  Arriving
    nodes connect to ``ba_m`` distinct earlier nodes; each connection
    restricts the candidate pool to same-label nodes with probability
    ``homophily`` and to different-label nodes otherwise (falling back to
    all remaining candidates when the restricted pool is empty), then
    picks degree-proportionally (uniform while all degrees are zero).
    Every graph has exactly ``ba_m * (nodes_per_graph - ba_m)`` edges.
    """
    if ba_m < 1 or nodes_per_graph <= ba_m:
        raise ValueError("need nodes_per_graph > ba_m >= 1")
    if not 0 <= homophily <= 1:
        raise ValueError(f"homophily {homophily} outside [0, 1]")
    if n_labels < 1:
        raise ValueError("need at least one label symbol")
    if n_graphs < 1:
        raise ValueError("need at least one graph")
    rng = np.random.default_rng(seed)
    graphs = []
    for k in range(n_graphs):
        labels, edges = _grow_homophily_ba(nodes_per_graph, ba_m,
                                           homophily, n_labels, rng)
        graphs.append(Graph(graph_id=id_offset + k,
                            node_count=nodes_per_graph,
                            edges=tuple(sorted(edges)),
                            node_labels=labels))
    return GraphDatabase(graphs=tuple(graphs))

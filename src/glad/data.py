"""Graph collections: in-memory model, TU-style disk format, node feature
derivation, one-class train/test splits, and a synthetic generator that
grows Barabasi-Albert graphs with label-dependent attachment.

Graphs are undirected and may carry edge weights.  A database holds many
graphs plus database-level annotations (class labels, anomaly flags).
"""

from __future__ import annotations

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
            if not w > 0:
                raise ValueError(f"edge ({u}, {v}) has non-positive weight")
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


def _normalized_edges(pairs) -> tuple:
    """Collapse (u, v, w) triples to a sorted tuple with u < v, first
    weight kept when a pair appears in both directions."""
    out = {}
    for u, v, w in pairs:
        key = (min(u, v), max(u, v))
        if key not in out:
            out[key] = float(w)
    return tuple((u, v, out[(u, v)]) for u, v in sorted(out))


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


def parse_flag(s: str) -> bool:
    """Parse an anomaly flag, which must be 0 or 1."""
    v = int(s)
    if v not in (0, 1):
        raise ValueError(f"must be 0 or 1, got {v}")
    return bool(v)


def load_tu_dataset(directory, name: str | None = None) -> GraphDatabase:
    """Read a dataset in the adjacency-list text format.

    Mandatory files are ``<name>_A.txt`` (one ``i, j`` edge per line,
    node ids 1-based and global across graphs) and
    ``<name>_graph_indicator.txt`` (graph id per node line).  Optional
    files add node labels, node attributes, per-graph class labels and
    per-graph anomaly flags.  An optional third column in the edge file
    carries weights.  A graph's nodes keep their file order whether or
    not the indicator lists each graph contiguously.

    Raises
    ------
    LoadError
        If a mandatory file is missing.
    FormatError
        On malformed lines, out-of-range ids, self loops, cross-graph
        edges, or row-count mismatches; messages carry line numbers.
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

    indicator = [gid for _, gid in table_rows(ind_path, "graph id", graph_id)]
    if not indicator:
        raise FormatError(f"{ind_path}: no nodes")
    n_total = len(indicator)
    n_graphs = max(indicator)

    # Group global node ids by graph; the stable sort keeps file order.
    ind = np.array(indicator)
    counts = np.bincount(ind, minlength=n_graphs + 1)[1:]
    if np.any(counts == 0):
        empty = int(np.flatnonzero(counts == 0)[0]) + 1
        raise FormatError(f"{ind_path}: graph {empty} has no nodes")
    order = np.argsort(ind, kind="stable")
    ends = np.cumsum(counts)
    members = np.split(order, ends[:-1])
    local = np.empty(n_total, dtype=np.int64)
    local[order] = np.arange(n_total) - np.repeat(ends - counts, counts)
    local_id = local.tolist()

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
        gi, gj = indicator[i - 1], indicator[j - 1]
        if gi != gj:
            raise ValueError(f"edge joins graphs {gi} and {gj}")
        return gi, (local_id[i - 1], local_id[j - 1], w)

    per_graph_edges = [[] for _ in range(n_graphs)]
    for _, (gid, e) in table_rows(a_path, "edge", edge):
        per_graph_edges[gid - 1].append(e)

    def optional(suffix, what, parse, n_rows, noun, dtype):
        path = directory / f"{name}_{suffix}.txt"
        if not path.is_file():
            return None
        rows = [row for _, row in table_rows(path, what, parse)]
        if len(rows) != n_rows:
            raise FormatError(f"{path}: {len(rows)} rows for {n_rows} {noun}")
        try:
            return np.array(rows, dtype=dtype)
        except ValueError:  # attribute rows of differing widths
            raise FormatError(f"{path}: ragged {what}s") from None

    node_labels = optional("node_labels", "node label", int,
                           n_total, "nodes", np.int64)
    node_attrs = optional("node_attributes", "attribute row",
                          lambda s: [float(p) for p in s.split(",")],
                          n_total, "nodes", np.float64)
    class_labels = optional("graph_labels", "graph label", int,
                            n_graphs, "graphs", np.int64)
    flags = optional("anomaly_flags", "anomaly flag", parse_flag,
                     n_graphs, "graphs", bool)

    graphs = tuple(Graph(
        graph_id=k,
        node_count=int(counts[k]),
        edges=_normalized_edges(per_graph_edges[k]),
        node_labels=None if node_labels is None else node_labels[idx],
        node_attributes=None if node_attrs is None else node_attrs[idx],
    ) for k, idx in enumerate(members))
    return GraphDatabase(graphs=graphs, class_labels=class_labels,
                         anomaly_flags=flags)


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
    new_graphs = []
    if kind == "one_hot_label":
        if any(g.node_labels is None for g in db.graphs):
            raise ValueError("one_hot_label requires node labels on every graph")
        if label_alphabet is None:
            label_alphabet = sorted({int(x) for g in db.graphs
                                     for x in g.node_labels})
        index = {lab: i for i, lab in enumerate(label_alphabet)}
        width = len(index)
        for g in db.graphs:
            feats = np.zeros((g.node_count, width))
            for v, lab in enumerate(g.node_labels):
                if int(lab) not in index:
                    raise ValueError(f"label {int(lab)} outside alphabet")
                feats[v, index[int(lab)]] = 1.0
            new_graphs.append(replace(g, features=feats))
    elif kind == "attributes":
        if any(g.node_attributes is None for g in db.graphs):
            raise ValueError("attributes kind requires node attributes")
        for g in db.graphs:
            new_graphs.append(replace(g, features=g.node_attributes.astype(float)))
    else:
        if degree_cap < 1:
            raise ValueError("degree_cap must be >= 1")
        width = degree_cap + 1
        for g in db.graphs:
            feats = np.zeros((g.node_count, width))
            idx = np.minimum(g.degrees, degree_cap)
            feats[np.arange(g.node_count), idx] = 1.0
            new_graphs.append(replace(g, features=feats))
    return replace(db, graphs=tuple(new_graphs), feature_kind=kind)


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
                            edges=_normalized_edges(edges),
                            node_labels=labels))
    return GraphDatabase(graphs=tuple(graphs))

"""Graph collections: in-memory model, TU-style disk format, node feature
derivation, one-class train/test splits, and a synthetic generator that
grows Barabasi-Albert graphs with label-dependent attachment.

Graphs are undirected and may carry edge weights.  A database holds many
graphs plus database-level annotations (class labels, anomaly flags).
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate, islice, takewhile
from pathlib import Path

import numpy as np

from .errors import FormatError, LoadError, SplitError

FEATURE_KINDS = ("one_hot_label", "attributes", "one_hot_degree")
DEFAULT_DEGREE_CAP = 10
EDGE_DTYPE = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])


def _edge_array(u, v, w=1.0) -> np.ndarray:
    """An edge array (``EDGE_DTYPE``) with the given columns."""
    e = np.empty(np.size(u), EDGE_DTYPE)
    e["u"], e["v"], e["w"] = u, v, w
    return e


def _id_fault(edge) -> str:
    """The rule an edge's node ids break unless both are whole numbers
    inside int64 ('' then); NaN and +-inf are not integral."""
    try:
        ids = int(edge[0]), int(edge[1])
    except (ValueError, OverflowError):
        ids = None
    if ids != (edge[0], edge[1]):
        return "has a non-integral node id"
    return "" if -2**63 <= min(ids) and max(ids) < 2**63 else "outside node range"


def _first_bad(checks):
    """``(row, message)`` for the first row that fails one of ``checks``,
    ``(bad, message)`` pairs in the order the rules apply (``bad`` a mask
    of bad rows), with the message of the first check it fails; None when
    every row passes."""
    bad = np.column_stack([b for b, _ in checks])
    rows = np.flatnonzero(bad.any(axis=1))
    return (int(rows[0]), checks[bad[rows[0]].argmax()][1]) if rows.size else None


def first_copies(*keys):
    """``(first, repeat)`` over the rows of equal-length key columns:
    ``first`` holds each distinct key tuple's first row, in key order (the
    first column major), and ``repeat`` masks the rows that repeat an
    earlier row.  Columns are compared as tuples: no combined key wraps."""
    order = np.lexsort(keys[::-1])  # stable: equal keys keep row order
    new = np.zeros(order.size, bool)
    new[:1] = True
    for k in keys:  # one sorted column alive at a time keeps the peak low
        k = k[order]
        new[1:] |= k[1:] != k[:-1]
    first, repeat = order[new], np.ones(order.size, bool)
    repeat[first] = False
    return first, repeat


@dataclass(frozen=True, eq=False)
class Graph:
    """A single undirected graph.

    Parameters
    ----------
    graph_id : int
        Identifier, unique within a database.
    node_count : int
        Number of nodes; node ids are 0..node_count-1.
    edges : iterable of (u, v, weight) triples
        Integral node ids with u < v, each pair at most once, weight
        finite and > 0; the first bad edge in input order raises.  Stored
        as one ``EDGE_DTYPE`` array sorted by (u, v), iterating as (u, v,
        w) records: the only adjacency a graph keeps.
    node_labels : ndarray or None
        Integer label per node.
    node_attributes : ndarray or None
        (node_count, d_attr) finite float array of raw attributes.
    features : ndarray or None
        (node_count, d_in) finite float array of derived model inputs.
    """

    graph_id: int
    node_count: int
    edges: np.ndarray
    node_labels: np.ndarray | None = None
    node_attributes: np.ndarray | None = None
    features: np.ndarray | None = None

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("graph must have at least one node")
        edges = self.edges
        if isinstance(edges, np.ndarray) and edges.dtype == EDGE_DTYPE:
            rows = e = edges
        else:
            # fromiter truncates a fractional id and fails on NaN, +-inf or
            # past int64: read up to the first such row, which raises below.
            rows = list(edges)
            e = np.fromiter(takewhile(lambda r: not _id_fault(r), rows),
                            EDGE_DTYPE)
        u, v, w, n = e["u"], e["v"], e["w"], self.node_count
        first, dup = first_copies(u, v)
        hit = _first_bad([
            (u == v, "self loop on node {0}"),
            ((u < 0) | (u >= n) | (v < 0) | (v >= n),
             "edge ({0}, {1}) outside node range"),
            (u > v, "edge ({0}, {1}) not stored with u < v"),
            (dup, "duplicate edge ({0}, {1})"),
            (~((0 < w) & (w < np.inf)),
             "edge ({0}, {1}) has weight {2}, not finite and > 0")])
        if hit:
            raise ValueError(hit[1].format(*e[hit[0]].tolist()))
        if e.size < len(rows):  # named as given
            u, v = rows[e.size][:2]
            raise ValueError(f"edge ({u}, {v}) {_id_fault(rows[e.size])}")
        object.__setattr__(self, "edges", e[first])
        for name in ("node_labels", "node_attributes", "features"):
            arr = getattr(self, name)
            if arr is not None and arr.shape[0] != self.node_count:
                raise ValueError(f"{name} has {arr.shape[0]} rows for "
                                 f"{self.node_count} nodes")
            if name != "node_labels" and arr is not None:
                ok = np.isfinite(arr.reshape(len(arr), -1)).all(axis=1)
                if not ok.all():
                    raise ValueError(f"graph {self.graph_id}: {name} row "
                                     f"{ok.argmin()} is not finite")

    @cached_property
    def degrees(self) -> np.ndarray:
        """Unweighted node degrees (incident edge counts)."""
        return (np.bincount(self.edges["u"], minlength=self.node_count)
                + np.bincount(self.edges["v"], minlength=self.node_count))

    @property
    def d_in(self) -> int | None:
        return None if self.features is None else self.features.shape[1]


@dataclass(frozen=True, eq=False)
class GraphDatabase:
    """An ordered collection of graphs with shared annotations.

    ``class_labels`` are raw per-graph classification labels (used to pick
    the inlier class for one-class splits).  ``anomaly_flags`` are boolean
    ground-truth markers reserved for evaluation; a training split must
    not flag a graph, which ``glad train`` checks where it reads one.
    """

    graphs: tuple
    class_labels: np.ndarray | None = None
    anomaly_flags: np.ndarray | None = None

    def __post_init__(self):
        for name in ("class_labels", "anomaly_flags"):
            arr = getattr(self, name)
            if arr is not None and len(arr) != len(self.graphs):
                raise ValueError(f"{name} length {len(arr)} != "
                                 f"{len(self.graphs)} graphs")
        # Training embeds each graph id once, so ids must name one graph.
        if len({g.graph_id for g in self.graphs}) != len(self.graphs):
            raise ValueError("graph ids must be unique")

    def __len__(self) -> int:
        return len(self.graphs)

    @property
    def d_in(self) -> int | None:
        return self.graphs[0].d_in if self.graphs else None

    @property
    def graph_ids(self) -> list:
        return [g.graph_id for g in self.graphs]


def _prechecked(fields: dict) -> Graph:
    # Skips Graph's edge checks: the TU loader checks its edges as
    # arrays, and derive_features keeps an already checked graph's edges.
    g = object.__new__(Graph)
    g.__dict__.update(fields)
    return g


def _normalized_edges(u, v, w, starts) -> list:
    """Per graph, its slice of one edge array sorted by pair, from edges
    between node positions in graph-major order (graph k starts at
    ``starts[k]``).  A repeated pair keeps its first weight in file order."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = first_copies(lo, hi)[0]
    lo, hi = lo[order], hi[order]
    b = np.searchsorted(lo, starts)
    base = np.repeat(starts, np.diff(b, append=lo.size))
    edges = _edge_array(lo - base, hi - base, w[order])
    return np.split(edges, b[1:])


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
    line of a text table, reading only as far as the caller iterates;
    with ``header`` the first such line is yielded unparsed.  A
    ``ValueError`` or ``OverflowError`` (an integer past int64) from
    ``parse`` becomes a FormatError ``"<path>:<line>: bad <what>: <reason>"``,
    and so does text the file's encoding cannot decode (:func:`decoded`).
    """
    with decoded(path), open(path) as f:
        for ln, raw in enumerate(f, start=1):
            s = raw.strip()
            if not s:
                continue
            if not header:
                try:
                    s = parse(s)
                except (ValueError, OverflowError) as exc:
                    raise FormatError(f"{path}:{ln}: bad {what}: {exc}") from None
            header = False
            yield ln, s


def first_row(path):
    """``(line_number, stripped text)`` of a table's first non-blank line."""
    with decoded(path), open(path) as f:
        return next(((ln, s.strip()) for ln, s in enumerate(f, 1)
                     if s.strip()), (1, ""))


@contextmanager
def decoded(path):
    """Turn a byte sequence that reading ``path`` as text cannot decode
    into a FormatError naming the file."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not {exc.encoding} text "
                          f"({exc.reason})") from None


def read_table(path, what: str, tokenize, *dtypes, header: bool = False):
    """A comma-separated table as a 1-D structured array, one record per
    non-blank line after a ``header`` line: parsed whole by ``np.loadtxt``
    with the first of ``dtypes`` it accepts (their fields fix the
    columns), else line by line with ``tokenize``, which returns a record
    of the last dtype and raises for a malformed line.  Numpy refuses
    some lines the format allows (``1_0``, mixed edge widths, lines of
    spaces) and all of a file it cannot decode, which the line reader
    reports.  Rules on values are for :func:`check_rows`."""
    skip = first_row(path)[0] if header else 0
    for dtype in dtypes:
        try:
            with warnings.catch_warnings():
                # numpy warns on an empty file, and numpy 1.x on "1.0" as an int
                warnings.simplefilter("error")
                return np.loadtxt(path, dtype, delimiter=",", comments=None,
                                  skiprows=skip, ndmin=1)
        except (ValueError, Warning):
            pass
    rows = [row for _, row in table_rows(path, what, tokenize, header)]
    return np.array(rows[header:], dtypes[-1])


def check_rows(path, what: str, checks, header: bool = False) -> None:
    """Raise ``"<path>:<line>: bad <what>: <message>"`` for the first bad
    row of a :func:`read_table` table, reading the file only up to it.
    ``checks`` are ``(bad, message)`` pairs in the order the rules apply:
    a mask of bad rows and a function of the row index and line text."""
    hit = _first_bad(checks)
    if hit:
        ln, s = next(islice(table_rows(path, what, str, header),
                            hit[0] + header, None))
        raise FormatError(f"{path}:{ln}: bad {what}: {hit[1](hit[0], s)}")


def _edge(s: str) -> tuple:
    parts = s.split(",")
    if len(parts) not in (2, 3):
        raise ValueError(f"expected 'i, j[, w]', got {s!r}")
    return (np.int64(parts[0]), np.int64(parts[1]),
            float(parts[2]) if len(parts) == 3 else 1.0)


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
        edges, bad weights or attributes, empty graphs or row-count
        mismatches; messages carry line numbers.
    """
    directory = Path(directory)
    if name is None:
        name = dataset_name(directory)
    a_path = directory / f"{name}_A.txt"
    ind_path = directory / f"{name}_graph_indicator.txt"
    for p in (a_path, ind_path):
        if not p.is_file():
            raise LoadError(f"missing mandatory file {p}")

    def read(suffix, what, rule=None, rows_for=None, one_column=True):
        # One integer per line, or rows of floats as wide as the first;
        # ``rows_for`` is (row count, noun) for a file of an optional kind.
        path = directory / f"{name}_{suffix}.txt"
        if not path.is_file():
            return None
        dtype, tokenize = [("x", np.int64)], np.int64
        if not one_column:
            width = first_row(path)[1].count(",") + 1
            dtype = [("x", np.float64, (width,))]

            def tokenize(s):
                row = [float(p) for p in s.split(",")]
                if len(row) != width:
                    raise ValueError(f"ragged: {len(row)} values, not {width}")
                return (row,)
        rows = read_table(path, what, tokenize, dtype)["x"]
        if rule is not None:
            check_rows(path, what, [rule(rows)])
        if rows_for and len(rows) != rows_for[0]:
            raise FormatError(f"{path}: {len(rows)} rows for {rows_for[0]} "
                              f"{rows_for[1]}")
        return rows

    ind = read("graph_indicator", "graph id",
               lambda t: (t < 1, lambda r, s: f"{t[r]} < 1"))
    if not ind.size:
        raise FormatError(f"{ind_path}: no nodes")
    # An id past the node count means an empty graph: no array is sized by it.
    ids, counts = np.unique(ind, return_counts=True)
    gap = np.flatnonzero(ids != np.arange(1, ids.size + 1))
    if gap.size:
        raise FormatError(f"{ind_path}: graph {gap[0] + 1} has no nodes")
    n_total, n_graphs = ind.size, ids.size

    # Graph-major node positions; the stable sort keeps file order.
    order = np.argsort(ind, kind="stable")
    pos = np.empty(n_total, dtype=np.int64)
    pos[order] = np.arange(n_total)
    starts = np.cumsum(counts) - counts

    fields = [("i", np.int64), ("j", np.int64), ("w", np.float64)]
    tab = read_table(a_path, "edge", _edge, fields[:2], fields)
    i, j = tab["i"] - 1, tab["j"] - 1
    w = tab["w"] if "w" in tab.dtype.names else np.ones(len(tab))
    check_rows(a_path, "edge", [
        ((i < 0) | (i >= n_total) | (j < 0) | (j >= n_total),
         lambda r, s: f"node id out of range in {s!r}"),
        (i == j, lambda r, s: f"self loop on node {i[r] + 1}"),
        (ind.take(i, mode="clip") != ind.take(j, mode="clip"),
         lambda r, s: f"edge joins graphs {ind[i[r]]} and {ind[j[r]]}"),
        (~((0 < w) & (w < np.inf)), lambda r, s: (
            f"weight {s.split(',')[2].strip()} is not finite and > 0")),
    ])
    edges = _normalized_edges(pos[i], pos[j], w, starts)

    node_labels = read("node_labels", "node label", None, (n_total, "nodes"))
    node_attrs = read("node_attributes", "attribute row", lambda t: (
        ~np.isfinite(t).all(axis=1), lambda r, s: f"non-finite value in {s!r}"),
        (n_total, "nodes"), one_column=False)
    class_labels = read("graph_labels", "graph label", None, (n_graphs, "graphs"))
    flags = read("anomaly_flags", "anomaly flag", lambda t: (
        ~np.isin(t, (0, 1)), lambda r, s: f"must be 0 or 1, got {t[r]}"),
        (n_graphs, "graphs"))

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
    sizes = [g.node_count for g in db.graphs]
    edges = np.concatenate([np.empty(0, EDGE_DTYPE)]
                           + [g.edges for g in db.graphs])
    base = np.repeat(np.cumsum([1] + sizes)[:-1],
                     [len(g.edges) for g in db.graphs])
    i, j = edges["u"] + base, edges["v"] + base
    # Each edge in both directions, as consecutive lines.
    cols = [np.stack([i, j], 1).ravel().tolist(),
            np.stack([j, i], 1).ravel().tolist()]
    if np.any(edges["w"] != 1.0):
        cols.append(np.repeat(edges["w"], 2).tolist())  # Python floats: repr
    labels = [g.node_labels for g in db.graphs if g.node_labels is not None]
    attrs = [g.node_attributes for g in db.graphs
             if g.node_attributes is not None]

    def dump(suffix: str, lines) -> None:
        path = directory / f"{name}_{suffix}.txt"
        path.write_text("\n".join(lines) + "\n")

    dump("A", map(("{}, {}, {!r}" if len(cols) == 3 else "{}, {}").format,
                  *cols))
    dump("graph_indicator", map(str, np.repeat(np.arange(1, len(sizes) + 1),
                                               sizes).tolist()))
    if labels:
        dump("node_labels", map(str, np.concatenate(labels)
                                .astype(np.int64).tolist()))
    if attrs:
        dump("node_attributes", (", ".join(map(repr, row)) for a in attrs
                                 for row in a.astype(float).tolist()))
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
    if not db.graphs:
        return db
    if kind == "attributes":
        if any(g.node_attributes is None for g in db.graphs):
            raise ValueError("attributes kind requires node attributes")
        feats = [g.node_attributes.astype(float) for g in db.graphs]
    else:
        if kind == "one_hot_label":
            if any(g.node_labels is None for g in db.graphs):
                raise ValueError("one_hot_label requires node labels on every graph")
            labels = np.concatenate([g.node_labels for g in db.graphs])
            # With an index output np.unique does not import numpy.ma (~13 ms).
            alphabet = np.asarray(np.unique(labels, return_inverse=True)[0]
                                  if label_alphabet is None else label_alphabet)
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
    return replace(db, graphs=tuple(
        _prechecked(vars(g) | {"features": f}) for g, f in zip(db.graphs, feats)))


def featurize(dbs, kind: str | None = None,
              degree_cap: int = DEFAULT_DEGREE_CAP, alphabet=None) -> list:
    """``dbs`` through :func:`derive_features` alike: as ``kind``, else as the
    first of labels, attributes and degrees every graph carries; labels go
    one-hot over ``alphabet``, else over the sorted labels of all ``dbs``."""
    graphs = [g for db in dbs for g in db.graphs]
    labelled = all(g.node_labels is not None for g in graphs)
    kind = kind or ("one_hot_label" if labelled else "attributes"
                    if all(g.node_attributes is not None for g in graphs)
                    else "one_hot_degree")
    # Without labels on every graph derive_features names what is missing.
    if kind == "one_hot_label" and labelled and graphs and alphabet is None:
        labels = np.concatenate([g.node_labels for g in graphs])
        alphabet = np.unique(labels, return_inverse=True)[0]
    return [derive_features(db, kind, degree_cap, alphabet) for db in dbs]


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
                             class_labels=labels[train_idx])
    test_db = GraphDatabase(graphs=take(test_idx),
                            class_labels=labels[test_idx], anomaly_flags=flags)
    return train_db, test_db


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------

def _grow_homophily_ba(n_nodes: int, ba_m: int, homophily: float,
                       n_labels: int, rng):
    labels = rng.integers(0, n_labels, size=n_nodes)
    lab, degrees, targets = labels.tolist(), [0] * n_nodes, []
    for s in range(ba_m, n_nodes):
        chosen = []
        for _ in range(ba_m):
            same = rng.random() < homophily
            pool = [t for t in range(s)
                    if (lab[t] == lab[s]) == same and t not in chosen]
            if not pool:
                pool = [t for t in range(s) if t not in chosen]
            # The draws rng.choice(pool, p=w / total) makes, minus its
            # checks, in floats as numpy does them: integer degrees sum
            # exactly in any order, and the cumulative sum is sequential.
            total = sum(degrees[t] for t in pool)
            if total == 0:
                t = pool[rng.integers(0, len(pool))]
            else:
                c = list(accumulate(degrees[t] / total for t in pool))
                t = pool[bisect_right([x / c[-1] for x in c], rng.random())]
            chosen.append(t)
        targets += chosen
        for t in chosen:
            degrees[t] += 1
        degrees[s] += ba_m
    # Every target is an earlier node, so each edge is (target, s), u < v.
    return labels, _edge_array(targets,
                               np.repeat(np.arange(ba_m, n_nodes), ba_m))


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
    if n_graphs < 1:
        raise ValueError("need at least one graph")
    rng = np.random.default_rng(seed)
    graphs = []
    for k in range(n_graphs):
        labels, edges = _grow_homophily_ba(nodes_per_graph, ba_m,
                                           homophily, n_labels, rng)
        graphs.append(Graph(graph_id=id_offset + k,
                            node_count=nodes_per_graph,
                            edges=edges,
                            node_labels=labels))
    return GraphDatabase(graphs=tuple(graphs))

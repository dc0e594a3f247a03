"""End-to-end orchestration: build or load a dataset, train a candidate
pool over a grid, run label-free selection, and evaluate against ground
truth when available.

Seeding: a single master seed is expanded into per-stage streams with
``SeedSequence((master_seed, stage))`` so stages stay independent and
every artifact is reproducible byte for byte.
"""

from __future__ import annotations

import configparser
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import data as gdata
from . import selection as gsel
from . import trainer as gtrain
from .errors import FormatError, GladError
from .metrics import roc_auc

STAGE_TRAIN_GRAPHS = 0
STAGE_TEST_INLIERS = 1
STAGE_TEST_ANOMALIES = 2
STAGE_SPLIT = 3
STAGE_TRAINING = 4


def stage_seed(master_seed: int, stage: int) -> int:
    """Derive a stage seed from the master seed."""
    return int(np.random.SeedSequence((master_seed, stage)).generate_state(1)[0])


@dataclass(frozen=True)
class BenchmarkParams:
    """Synthetic benchmark shape: clean training graphs plus a test set
    mixing inlier-like and structurally different graphs."""

    n_train: int = 100
    n_test: int = 100
    anomaly_rate: float = 0.05
    nodes: int = 50
    ba_m: int = 2
    labels: int = 5
    homophily_in: float = 0.7
    homophily_out: float = 0.3

    def __post_init__(self):
        gtrain.check_int64(self)
        if not 0 < self.anomaly_rate < 1:
            raise ValueError(f"anomaly_rate {self.anomaly_rate} outside (0, 1)")
        if min(self.n_train, self.n_test) < 1:
            raise ValueError(f"need n_train, n_test >= 1, got n_train "
                             f"{self.n_train}, n_test {self.n_test}")
        if self.n_anomalies >= self.n_test:
            raise ValueError("anomaly_rate leaves no inliers in the test set")
        if not 1 <= self.ba_m < self.nodes or self.labels < 1:
            raise ValueError(f"need nodes > ba_m >= 1 and labels >= 1, got "
                             f"nodes {self.nodes}, ba_m {self.ba_m}, "
                             f"labels {self.labels}")
        for name in ("homophily_in", "homophily_out"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} {getattr(self, name)} outside [0, 1]")

    @property
    def n_anomalies(self) -> int:
        """Anomalous test graphs: the rate's share of n_test, at least one."""
        return max(1, int(round(self.anomaly_rate * self.n_test)))


@dataclass(eq=False)
class EvalReport:
    """Evaluation summary of one pipeline run."""

    method_auc: dict
    model_auc: np.ndarray | None
    pool_mean_auc: float | None
    pool_best_auc: float | None
    n_models: int
    n_dropped: int
    notices: list = field(default_factory=list)


def generate_benchmark(params: BenchmarkParams, master_seed: int):
    """Build the synthetic benchmark: training inliers at the inlier
    homophily, a test set contaminated with graphs grown at the anomaly
    homophily, features one-hot over the shared label alphabet.

    Returns ``(train_db, test_db)``.
    """
    p = params
    n_anom = p.n_anomalies
    n_test_in = p.n_test - n_anom

    train = gdata.generate_mixhop(
        p.n_train, p.nodes, p.ba_m, p.homophily_in, p.labels,
        stage_seed(master_seed, STAGE_TRAIN_GRAPHS), id_offset=0)
    test_in = gdata.generate_mixhop(
        n_test_in, p.nodes, p.ba_m, p.homophily_in, p.labels,
        stage_seed(master_seed, STAGE_TEST_INLIERS), id_offset=p.n_train)
    test_out = gdata.generate_mixhop(
        n_anom, p.nodes, p.ba_m, p.homophily_out, p.labels,
        stage_seed(master_seed, STAGE_TEST_ANOMALIES),
        id_offset=p.n_train + n_test_in)

    rng = np.random.default_rng(stage_seed(master_seed, STAGE_SPLIT))
    graphs = list(test_in.graphs) + list(test_out.graphs)
    flags = np.array([False] * n_test_in + [True] * n_anom)
    order = rng.permutation(len(graphs))
    graphs = [graphs[i] for i in order]
    flags = flags[order]

    alphabet = list(range(p.labels))
    train_db = gdata.derive_features(train, "one_hot_label",
                                     label_alphabet=alphabet)
    test_db = gdata.derive_features(
        gdata.GraphDatabase(graphs=tuple(graphs), anomaly_flags=flags),
        "one_hot_label", label_alphabet=alphabet)
    return train_db, test_db


# ---------------------------------------------------------------------------
# Grid and pipeline files: one INI dialect
# ---------------------------------------------------------------------------

def _read_ini(path, what: str, keys: dict) -> dict:
    """``path`` as ``{section: {key: raw}}``: ``=`` only, ``#`` comments,
    case-sensitive keys, a literal ``%``, no ``[DEFAULT]``.  A read, decode
    or syntax error, or a section or key not in ``keys``, is a FormatError."""
    cp = configparser.ConfigParser(
        delimiters="=", comment_prefixes="#", inline_comment_prefixes="#",
        default_section="", interpolation=None)  # no [DEFAULT] section
    cp.optionxform = str
    try:
        with gdata.decoded(path):
            if not cp.read(str(path)):
                raise FormatError(f"cannot read {what} file {path}")
    except configparser.Error as exc:  # names the file and the line
        raise FormatError(" ".join(str(exc).split())) from None
    for s in cp.sections():
        if s not in keys:
            raise FormatError(f"{path}: unknown section [{s}]")
        if bad := [key for key in cp[s] if key not in keys[s]]:
            raise FormatError(f"{path}: [{s}] {bad[0]}: unknown {what} key")
    return {s: dict(cp[s]) for s in cp.sections()}


def parse_grid_file(path) -> dict:
    """Parse an INI grid file into a grid specification.

    Sections ``[mean]``, ``[mmd]`` and ``[common]`` hold ``key = v1, v2,
    ...`` lines, each typed by the ModelConfig field its key sets.
    A grid that does not expand into valid configs, or into more than
    ``MAX_CONFIGS``, raises FormatError.
    """
    spec = _read_ini(path, "grid", dict.fromkeys(
        ("mean", "mmd", "common"), gtrain.CONFIG_TYPES.keys() - {"pooling"}))
    for section, items in spec.items():
        for key, raw in items.items():
            where = f"{path}: [{section}] {key}"
            try:
                values = [gtrain.CONFIG_TYPES[key](v)
                          for v in raw.split(",") if v.strip()]
            except ValueError:
                raise FormatError(f"{where}: bad value {raw!r}") from None
            if not values:
                raise FormatError(f"{where}: no values")
            items[key] = values
    if not {"mean", "mmd"} & set(spec):
        raise FormatError(f"{path}: grid file defines no model family")
    # Expanding for one training graph runs every config check: the
    # training-set size only clamps the landmark count.
    try:
        gtrain.expand_grid(spec, n_train=1)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    return spec


# ---------------------------------------------------------------------------
# Pipeline configuration
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PipelineConfig:
    out_dir: Path
    master_seed: int = 0
    workers: int = 1
    methods: tuple = gsel.METHODS
    source: str = "generate"
    bench: BenchmarkParams = field(default_factory=BenchmarkParams)
    tu_directory: Path | None = None
    feature_kind: str | None = None
    degree_cap: int = gdata.DEFAULT_DEGREE_CAP
    inlier_class: int = 0
    train_fraction: float = 0.7
    anomaly_rate: float = 0.05
    grid_spec: dict = field(default_factory=lambda: gtrain.DEFAULT_GRID)


def parse_pipeline_config(path) -> PipelineConfig:
    """Read a pipeline configuration file (the :func:`_read_ini` dialect).

    A malformed file or value raises FormatError naming the file and the
    key.  Integers (counts, seeds, class ids) must be non-negative and
    below 2**63; ``workers`` and ``degree_cap`` must be at least 1.  A
    ``[grid] file`` is parsed here (:func:`parse_grid_file`); without one
    the default grid is used.
    """
    sources = {"generate": tuple(f.name for f in fields(BenchmarkParams)),
               "tu": ("directory", "feature_kind", "degree_cap",
                      "inlier_class", "train_fraction", "anomaly_rate")}
    ini = _read_ini(path, "pipeline config", {
        "run": ("out_dir", "master_seed", "workers"),
        "selection": ("methods",), "grid": ("file",),
        "data": ("source", *sources["generate"], *sources["tu"])})
    run, d = ini.get("run", {}), ini.get("data", {})
    if not run.get("out_dir"):
        raise FormatError(f"{path}: [run] section with out_dir is required")
    source = d.get("source", "generate")
    if source not in sources:
        raise FormatError(f"{path}: unknown data source {source!r}")
    if other := [k for k in d if k not in ("source", *sources[source])]:
        raise FormatError(f"{path}: [data] {other[0]}: not a {source} key")

    def value(section, key, low=0, of=PipelineConfig):
        """``[section] key`` cast to the type of ``of``'s default for it."""
        default = getattr(of, key)
        if (raw := ini.get(section, {}).get(key)) is None:
            return default
        try:
            v = type(default)(raw)
        except ValueError:
            v = None
        if v is None or (type(v) is int and not low <= v < 2**63):
            raise FormatError(f"{path}: bad value for [{section}] {key}: "
                              f"{raw!r}")
        return v

    kwargs = dict(out_dir=Path(run["out_dir"]), source=source,
                  master_seed=value("run", "master_seed"),
                  workers=value("run", "workers", low=1))
    if (names := ini.get("selection", {}).get("methods")) is not None:
        methods = tuple(m.strip() for m in names.split(",") if m.strip())
        if not methods:
            raise FormatError(f"{path}: [selection] methods: no values")
        bad = [m for m in methods if m not in gsel.METHODS]
        if bad:
            raise FormatError(f"{path}: unknown selection method {bad[0]!r}")
        kwargs["methods"] = methods
    if "file" in ini.get("grid", {}):
        kwargs["grid_spec"] = parse_grid_file(ini["grid"]["file"])

    if source == "generate":
        shape = {f.name: value("data", f.name, of=BenchmarkParams)
                 for f in fields(BenchmarkParams)}
        try:
            kwargs["bench"] = BenchmarkParams(**shape)
        except ValueError as exc:
            raise FormatError(f"{path}: [data] {exc}") from None
    else:
        if not d.get("directory"):
            raise FormatError(f"{path}: tu source needs data.directory")
        kind = d.get("feature_kind")
        if kind is not None and kind not in gdata.FEATURE_KINDS:
            raise FormatError(f"{path}: bad value for [data] feature_kind: "
                              f"{kind!r}, expected one of {gdata.FEATURE_KINDS}")
        kwargs.update(tu_directory=Path(d["directory"]), feature_kind=kind,
                      degree_cap=value("data", "degree_cap", low=1),
                      inlier_class=value("data", "inlier_class"),
                      train_fraction=value("data", "train_fraction"),
                      anomaly_rate=value("data", "anomaly_rate"))
    return PipelineConfig(**kwargs)


def pick_feature_kind(*dbs: gdata.GraphDatabase) -> str:
    """Labels, else attributes, else degrees: the first all ``dbs`` carry."""
    graphs = [g for db in dbs for g in db.graphs]
    if all(g.node_labels is not None for g in graphs):
        return "one_hot_label"
    if all(g.node_attributes is not None for g in graphs):
        return "attributes"
    return "one_hot_degree"


def build_dataset(cfg: PipelineConfig):
    """Materialize (train_db, test_db) from the configured source."""
    if cfg.source == "generate":
        return generate_benchmark(cfg.bench, cfg.master_seed)
    db = gdata.load_tu_dataset(cfg.tu_directory)
    kind = cfg.feature_kind or pick_feature_kind(db)
    try:
        db = gdata.derive_features(db, kind, degree_cap=cfg.degree_cap)
    except ValueError as exc:  # a kind the data lacks
        raise FormatError(f"{cfg.tu_directory}: {exc}") from None
    return gdata.make_split(db, cfg.inlier_class, cfg.anomaly_rate,
                            cfg.train_fraction,
                            stage_seed(cfg.master_seed, STAGE_SPLIT))


# ---------------------------------------------------------------------------
# Full run
# ---------------------------------------------------------------------------

def evaluate_pool(pool: gtrain.CandidatePool, selections: dict,
                  flags: np.ndarray | None, n_dropped: int,
                  notices=()) -> EvalReport:
    """Score every selection outcome and the pool itself against flags."""
    notices = list(notices)
    if flags is None:
        notices.append("no anomaly flags: evaluation skipped")
        return EvalReport(method_auc={}, model_auc=None, pool_mean_auc=None,
                          pool_best_auc=None, n_models=len(pool.model_ids),
                          n_dropped=n_dropped, notices=notices)
    model_auc = np.array([roc_auc(row, flags) for row in pool.scores])
    method_auc = {m: roc_auc(r.final_scores, flags)
                  for m, r in selections.items()}
    return EvalReport(method_auc=method_auc, model_auc=model_auc,
                      pool_mean_auc=float(model_auc.mean()),
                      pool_best_auc=float(model_auc.max()),
                      n_models=len(pool.model_ids), n_dropped=n_dropped,
                      notices=notices)


def write_report(report: EvalReport, pool: gtrain.CandidatePool,
                 selections: dict, path, elapsed: float | None = None) -> None:
    lines = [f"models_kept = {report.n_models}",
             f"models_dropped = {report.n_dropped}",
             f"test_graphs = {len(pool.graph_ids)}"]
    if elapsed is not None:
        lines.append(f"elapsed_seconds = {elapsed:.1f}")
    if report.pool_mean_auc is not None:
        lines.append(f"pool_mean_auc = {report.pool_mean_auc:.9g}")
        lines.append(f"pool_best_auc = {report.pool_best_auc:.9g}")
    for method in sorted(report.method_auc):
        sel = selections[method]
        who = sel.selected_model or "ensemble"
        lines.append(f"auc[{method}] = {report.method_auc[method]:.9g} "
                     f"({who})")
    for note in report.notices:
        lines.append(f"notice: {note}")
    Path(path).write_text("\n".join(lines) + "\n")


def run_pipeline(cfg: PipelineConfig):
    """Run dataset -> pool -> selection -> evaluation, writing every
    artifact under ``cfg.out_dir``.

    Returns ``(report, pool, selections)``.
    """
    t0 = time.monotonic()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train_db, test_db = build_dataset(cfg)
    configs = gtrain.expand_grid(cfg.grid_spec, len(train_db))
    pool = gtrain.run_grid(train_db, test_db, configs, workers=cfg.workers,
                           base_seed=stage_seed(cfg.master_seed,
                                                STAGE_TRAINING))
    gtrain.save_pool(pool, out)

    selections = {}
    notices = [f"dropped {mid}: {diag}" for mid, diag in pool.dropped]
    for method in cfg.methods:
        try:
            result = gsel.select(pool, method)
        except GladError as exc:
            notices.append(f"selection {method} skipped: {exc}")
            continue
        selections[method] = result
        if result.residual > gsel.HITS_TOL:
            notices.append(f"selection {method} did not converge "
                           f"(residual {result.residual:.3e})")
        tag = method.replace("-", "_")
        gsel.write_selection(result, out / f"selected_{tag}.csv",
                             out / f"selection_meta_{tag}.txt")

    report = evaluate_pool(pool, selections, test_db.anomaly_flags,
                           n_dropped=len(pool.dropped), notices=notices)
    write_report(report, pool, selections, out / "report.txt",
                 elapsed=time.monotonic() - t0)
    return report, pool, selections

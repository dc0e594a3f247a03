"""Command line entry points.

Subcommands: ``generate`` (synthetic benchmark data), ``train`` (grid ->
candidate pool), ``select`` (label-free model selection over a pool),
``evaluate`` (ROC-AUC of a score file against flags), and ``pipeline``
(everything end to end from a config file).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import data as gdata
from . import pipeline as gpipe
from . import selection as gsel
from . import trainer as gtrain
from .errors import FormatError, GladError
from .metrics import roc_auc


def _cmd_generate(args) -> int:
    try:
        params = gpipe.BenchmarkParams(**{
            f.name: getattr(args, f.name)
            for f in dataclasses.fields(gpipe.BenchmarkParams)})
    except ValueError as exc:
        raise FormatError(f"bad generate option: {exc}") from None
    train_db, test_db = gpipe.generate_benchmark(params, args.seed)
    out = Path(args.out)
    gdata.write_tu_dataset(train_db, out / "train", "synthetic")
    gdata.write_tu_dataset(test_db, out / "test", "synthetic")
    print(f"wrote {len(train_db)} training and {len(test_db)} test graphs "
          f"under {out}")
    return 0


def _load_split_dir(data_dir: Path):
    """``data_dir``'s ``train/`` (flagging no graph) and ``test/`` datasets,
    with the feature kind both carry (labels over one alphabet)."""
    train = gdata.load_tu_dataset(data_dir / "train")
    if train.anomaly_flags is not None:
        name = gdata.dataset_name(data_dir / "train")
        gdata.check_rows(
            data_dir / "train" / f"{name}_anomaly_flags.txt", "anomaly flag",
            [(train.anomaly_flags, lambda r, s: "1 in a training split")])
    test = gdata.load_tu_dataset(data_dir / "test")
    kind = gpipe.pick_feature_kind(train, test)
    alphabet = None
    if kind == "one_hot_label":
        alphabet = gdata.node_label_alphabet(train, test)
    train = gdata.derive_features(train, kind, label_alphabet=alphabet)
    test = gdata.derive_features(test, kind, label_alphabet=alphabet)
    if train.d_in != test.d_in:
        raise FormatError(f"{data_dir}: {kind} features are {train.d_in} "
                          f"wide in train/ but {test.d_in} in test/")
    return train, test


def _cmd_train(args) -> int:
    grid = gpipe.parse_grid_file(args.grid)
    train_db, test_db = _load_split_dir(Path(args.data))
    configs = gtrain.expand_grid(grid, len(train_db))
    pool = gtrain.run_grid(train_db, test_db, configs, workers=args.workers,
                           base_seed=args.seed)
    gtrain.save_pool(pool, args.out)
    for mid, diag in pool.dropped:
        print(f"dropped {mid}: {diag}", file=sys.stderr)
    print(f"trained {len(pool.model_ids)} of {len(configs)} candidates; "
          f"pool written to {args.out}")
    return 0


def _cmd_select(args) -> int:
    pool = gtrain.load_pool(args.pool)
    result = gsel.select(pool, args.method)
    out = Path(args.out)
    gsel.write_selection(result, out)
    who = result.selected_model or "ensemble"
    print(f"{args.method}: {who} -> {out}")
    return 0


def _read_column(path, name: str, dtype, bad, message: str) -> dict:
    """``graph_id,<name>`` rows as a dict; ``bad(values)`` masks the rows
    whose value breaks the rule ``message`` states."""
    ln, head = gdata.first_row(path)
    if head != f"graph_id,{name}":
        raise FormatError(f"{path}:{ln}: expected header 'graph_id,{name}'")

    def tokenize(s):
        parts = s.split(",")
        if len(parts) != 2:
            raise ValueError("expected two columns")
        return parts[0], dtype(parts[1])

    t = gdata.read_table(path, f"{name} row", tokenize,
                         [("id", object), ("v", dtype)], header=True)
    ids, v = np.char.strip(t["id"].astype(str)), t["v"]
    if not ids.size:
        raise FormatError(f"{path}: no data rows")
    gdata.check_rows(path, f"{name} row", [
        (bad(v), lambda r, s: message.format(v[r])),
        (ids == "", lambda r, s: "blank graph id"),
        (gdata.first_copies(ids)[1],
         lambda r, s: f"duplicate graph id {ids[r]}")], header=True)
    return dict(zip(ids.tolist(), v.tolist()))


def _cmd_evaluate(args) -> int:
    scores = _read_column(args.scores, "score", float,
                          lambda v: ~np.isfinite(v), "non-finite value {}")
    flags = _read_column(args.flags, "flag", np.int64,
                         lambda v: (v < 0) | (v > 1), "must be 0 or 1, got {}")
    if set(scores) != set(flags):
        gid = sorted(set(scores) ^ set(flags))[0]
        raise FormatError(f"{args.scores} and {args.flags} cover different "
                          f"graph ids: {gid} is only in "
                          f"{args.scores if gid in scores else args.flags}")
    auc = roc_auc(list(scores.values()), [flags[g] for g in scores])
    text = (f"graphs = {len(scores)}\nflagged = {sum(flags.values())}\n"
            f"roc_auc = {auc:.9g}\n")
    Path(args.out).write_text(text)
    print(text, end="")
    return 0


def _cmd_pipeline(args) -> int:
    cfg = gpipe.parse_pipeline_config(args.config)
    gpipe.run_pipeline(cfg)
    print((Path(cfg.out_dir) / "report.txt").read_text(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glad",
        description="Graph-level anomaly detection: one-class GNN pools "
                    "with label-free model selection.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic benchmark dataset")
    g.add_argument("--out", required=True, help="output directory")
    for f in dataclasses.fields(gpipe.BenchmarkParams):
        g.add_argument("--" + f.name.replace("_", "-"),
                       type=type(f.default), default=f.default)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=_cmd_generate)

    t = sub.add_parser("train", help="train a candidate pool over a grid")
    t.add_argument("--data", required=True,
                   help="directory with train/ and test/ datasets")
    t.add_argument("--grid", required=True, help="grid file")
    t.add_argument("--out", required=True, help="pool output directory")
    t.add_argument("--workers", type=int, default=1)
    t.add_argument("--seed", type=int, default=0)
    t.set_defaults(func=_cmd_train)

    s = sub.add_parser("select", help="pick or ensemble models from a pool")
    s.add_argument("--pool", required=True, help="pool directory")
    s.add_argument("--method", required=True, choices=gsel.METHODS)
    s.add_argument("--out", required=True, help="output csv path")
    s.set_defaults(func=_cmd_select)

    e = sub.add_parser("evaluate", help="ROC-AUC of scores against flags")
    e.add_argument("--scores", required=True, help="graph_id,score csv")
    e.add_argument("--flags", required=True, help="graph_id,flag csv")
    e.add_argument("--out", required=True, help="output text file")
    e.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("pipeline", help="run the full pipeline from a config")
    p.add_argument("--config", required=True, help="INI config file")
    p.set_defaults(func=_cmd_pipeline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise FormatError(f"--seed must be non-negative, got {args.seed}")
        if getattr(args, "workers", 1) < 1:
            raise FormatError(f"--workers must be >= 1, got {args.workers}")
        return args.func(args)
    except (GladError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

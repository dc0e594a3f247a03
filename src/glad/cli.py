"""Command line entry points.

Subcommands: ``generate`` (synthetic benchmark data), ``train`` (grid ->
candidate pool), ``select`` (label-free model selection over a pool),
``evaluate`` (ROC-AUC of a score file against flags), and ``pipeline``
(everything end to end from a config file).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
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
    train = gdata.load_tu_dataset(data_dir / "train")
    test = gdata.load_tu_dataset(data_dir / "test")
    kind = gpipe.pick_feature_kind(train)
    alphabet = None
    if kind == "one_hot_label":
        alphabet = gdata.node_label_alphabet(train, test)
    train = gdata.derive_features(train, kind, label_alphabet=alphabet)
    test = gdata.derive_features(test, kind, label_alphabet=alphabet)
    return train, test


def _cmd_train(args) -> int:
    train_db, test_db = _load_split_dir(Path(args.data))
    grid = gpipe.parse_grid_file(args.grid)
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
    gsel.write_selection(result, out, out.parent / "selection_meta.txt")
    who = result.selected_model or "ensemble"
    print(f"{args.method}: {who} -> {out}")
    return 0


def _read_csv_column(path, value_name: str, cast):
    def parse(s):
        parts = s.split(",")
        if len(parts) != 2:
            raise ValueError("expected two columns")
        return parts[0].strip(), cast(parts[1].strip())

    rows = gdata.table_rows(path, f"{value_name} row", parse, header=True)
    ln, head = next(rows, (1, ""))
    if head != f"graph_id,{value_name}":
        raise FormatError(f"{path}:{ln}: expected header 'graph_id,{value_name}'")
    out = {}
    for ln, (gid, value) in rows:
        if gid in out:
            raise FormatError(f"{path}:{ln}: duplicate graph id {gid}")
        out[gid] = value
    if not out:
        raise FormatError(f"{path}: no data rows")
    return out


def _finite_score(s: str) -> float:
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"non-finite value {s}")
    return v


def _cmd_evaluate(args) -> int:
    scores = _read_csv_column(args.scores, "score", _finite_score)
    flags = _read_csv_column(args.flags, "flag", gdata.parse_flag)
    if set(scores) != set(flags):
        gid = sorted(set(scores) ^ set(flags))[0]
        raise FormatError(f"{args.scores} and {args.flags} cover different "
                          f"graph ids: {gid} is only in "
                          f"{args.scores if gid in scores else args.flags}")
    gids = list(scores)
    auc = roc_auc(np.array([scores[g] for g in gids]),
                  np.array([flags[g] for g in gids]))
    n_flagged = sum(flags[g] for g in gids)
    text = (f"graphs = {len(gids)}\nflagged = {n_flagged}\n"
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

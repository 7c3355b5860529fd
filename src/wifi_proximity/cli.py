"""Command-line pipeline: generate, clean, pair, featurize, train, evaluate, report.

Stages communicate through files in one working directory and run in the
order listed. Every output embeds the config hash, so a report can
refuse to aggregate results produced under different configurations.
From ``pair`` on, stages read arrays: ``pair`` writes the candidates that
``pairing.pair_windows`` returns as candidates.npz, which ``featurize``
reads, and ``featurize`` writes features.npz, which ``train``,
``evaluate`` and ``report`` read. candidates.csv and features.csv are
readable copies of the same rows that no stage reads.

Exit codes: 0 ok, 2 usage error, 3 data error, 4 config error.
"""
from __future__ import annotations

import argparse
import sys
# unused here, but perfbench/tracing.py patches this name in every module
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from pathlib import Path

import numpy as np

from . import fileio, synthgen
from .config import ConfigError, PipelineConfig, load_config
from .evaluation import auc_roc, prf_at_threshold, stratified_report
from .features import (
    FEATURE_NAMES,
    FeatureTable,
    apply_imputation,
    extract_feature_matrix,
    fit_imputation,
)
from .fileio import (
    SCHEMA_BLUETOOTH,
    SCHEMA_CANDIDATES,
    SCHEMA_CLEANING,
    SCHEMA_EVAL,
    SCHEMA_FEATURES,
    SCHEMA_HOMES,
    SCHEMA_REPORT,
    SCHEMA_WIFI,
    DataError,
)
from .ingest import (
    WifiScans,
    build_home_router_map,
    filter_ambiguous_macs,
    parse_bluetooth_log,
    parse_wifi_log,
)
from .models import (
    FEATURESETS,
    KIND_SHORT,
    fit_model,
    fit_threshold,
    grid_search_cv,
    load_model,
    predict,
    save_model,
    select_columns,
)
from .pairing import CandidateTable, pair_windows, split_indices
from .records import MalformedRecordError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONFIG = 4

CANDIDATE_COLUMNS = ["user_a", "user_b", "ts_a", "ts_b", "ts", "label", "bt_rssi"]
FEATURE_KEY_COLUMNS = ["user_a", "user_b", "ts_a", "ts_b", "ts", "label"]


def _paths(args) -> dict[str, Path]:
    d = Path(args.dir)
    return {
        "dir": d,
        "wifi": d / "wifi.jsonl",
        "bluetooth": d / "bluetooth.jsonl",
        "truth": d / "ground_truth.jsonl",
        "cleaned": d / "cleaned.jsonl",
        "scans": d / "scans.npz",
        "cleaning_report": d / "cleaning_report.json",
        "homes": d / "home_routers.json",
        "candidates": d / "candidates.npz",
        "candidates_csv": d / "candidates.csv",
        "features": d / "features.npz",
        "features_csv": d / "features.csv",
        "report": d / "report.json",
    }


def _model_path(d: Path, cfg: PipelineConfig) -> Path:
    return d / f"model_{cfg.featureset.lower()}_{KIND_SHORT[cfg.model_kind]}.json"


def _eval_path(d: Path, cfg: PipelineConfig) -> Path:
    return d / f"eval_{cfg.featureset.lower()}_{KIND_SHORT[cfg.model_kind]}.json"


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def stage_generate(cfg: PipelineConfig, args) -> int:
    paths = _paths(args)
    paths["dir"].mkdir(parents=True, exist_ok=True)
    h = cfg.data_hash()
    synthgen.generate(
        cfg.world, paths["wifi"], paths["bluetooth"], paths["truth"], config_hash=h
    )
    print(
        f"generate: wrote {paths['wifi'].name}, {paths['bluetooth'].name}, "
        f"{paths['truth'].name} in {paths['dir']} (config {h})"
    )
    if args.stats:
        stats = synthgen.calibrate_stats(paths["wifi"], paths["truth"])
        for key in sorted(stats):
            print(f"  {key} = {stats[key]}")
    return EXIT_OK


def stage_clean(cfg: PipelineConfig, args) -> int:
    paths = _paths(args)
    h = cfg.data_hash()
    fileio.read_jsonl_header(paths["wifi"], SCHEMA_WIFI)
    parsed = _parse_log(parse_wifi_log, paths["wifi"], cfg.strict_parse)
    scans, report = filter_ambiguous_macs(parsed.records, cfg.ambiguous_ssid_threshold)
    # everything is computed before the first write, so a data error
    # leaves no artifact of this run
    table = scans.by_bssid()
    homes = build_home_router_map(scans, cfg.home_bin_minutes, cfg.tz_offset_s)
    homes_doc = {
        "bin_minutes": cfg.home_bin_minutes,
        "homes": [
            {"user": user, "month": month, "bssid": bssid}
            for (user, month), bssid in sorted(homes.items())
        ],
    }
    n = fileio.write_jsonl(paths["cleaned"], SCHEMA_WIFI, h, scans.lines())
    table.save(paths["scans"], h)
    fileio.write_json(
        paths["cleaning_report"],
        SCHEMA_CLEANING,
        h,
        {**report.as_dict(), "skipped_lines": parsed.skipped, "records": n},
    )
    fileio.write_json(paths["homes"], SCHEMA_HOMES, h, homes_doc)
    print(
        f"clean: {n} records kept, {report.removed_observations} observations "
        f"from {report.ambiguous_macs} ambiguous MACs removed, "
        f"{parsed.skipped} malformed lines skipped, {len(homes)} home routers"
    )
    return EXIT_OK


def stage_pair(cfg: PipelineConfig, args) -> int:
    paths = _paths(args)
    h = cfg.data_hash()
    table = WifiScans.load(paths["scans"], h)
    fileio.read_jsonl_header(paths["bluetooth"], SCHEMA_BLUETOOTH)
    bt = _parse_log(parse_bluetooth_log, paths["bluetooth"], cfg.strict_parse)
    windows, cands = pair_windows(table, bt.records, cfg.delta_t_s)
    found = ~np.isnan(cands.bt_rssi)
    bt_rssi = np.full(len(found), "", dtype=object)
    bt_rssi[found] = cands.bt_rssi[found].astype(np.int64).astype(str)
    cands.save(paths["candidates"], h, len(table.ts))
    n = fileio.write_csv(
        paths["candidates_csv"], SCHEMA_CANDIDATES, h, CANDIDATE_COLUMNS,
        fileio.column_blocks(_key_columns(table, cands) + [bt_rssi]))
    n_pos = int(cands.label.sum())
    share = n_pos / n if n else 0.0
    print(
        f"pair: {n} candidates from {len(windows)} active hour windows, "
        f"{n_pos} positive ({share:.1%})"
    )
    return EXIT_OK


def _parse_log(parse, path, strict: bool):
    """Run parse over the JSONL log at path; a strict-mode error names the file."""
    try:
        return parse(fileio.iter_jsonl(path), strict=strict)
    except MalformedRecordError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _key_columns(table: WifiScans, cands: CandidateTable) -> list:
    """The user_a, user_b, ts_a, ts_b, ts and label columns of the CSV copies."""
    users = np.array(table.users, dtype=object)
    return [users[table.user[cands.row_a]], users[table.user[cands.row_b]],
            table.ts[cands.row_a], table.ts[cands.row_b], cands.ts, cands.label]


def stage_featurize(cfg: PipelineConfig, args) -> int:
    paths = _paths(args)
    h = cfg.data_hash()
    table = WifiScans.load(paths["scans"], h)
    cands = CandidateTable.load(paths["candidates"], h, len(table.ts))
    homes_doc = fileio.read_json(paths["homes"], SCHEMA_HOMES, h)
    home_map = {
        (entry["user"], entry["month"]): entry["bssid"]
        for entry in homes_doc["homes"]
    }
    X = extract_feature_matrix(
        table,
        cands.row_a,
        cands.row_b,
        cands.ts,
        home_map,
        campus_ssid=cfg.campus_ssid,
        tz_offset_s=cfg.tz_offset_s,
        alpha=cfg.alpha,
        popularity_window_s=cfg.delta_t_s,
    )

    FeatureTable(X, cands.label, cands.ts, cands.bt_rssi).save(paths["features"], h)
    # a NaN feature, a missing correlation, is written as an empty cell
    n = fileio.write_csv(
        paths["features_csv"], SCHEMA_FEATURES, h, FEATURE_KEY_COLUMNS + FEATURE_NAMES,
        fileio.column_blocks(_key_columns(table, cands) + list(X.T)))
    print(f"featurize: {n} rows, {len(FEATURE_NAMES)} features each")
    return EXIT_OK


def _nonempty_features(path, h: str) -> FeatureTable:
    """features.npz, which must hold at least one row to split."""
    feats = FeatureTable.load(path, h)
    if len(feats.label) == 0:
        raise DataError(f"{path}: has no rows")
    return feats


def _split_for(cfg: PipelineConfig, n: int):
    train_count = int(round(cfg.train_size * n))
    train_count = max(1, min(n - 1, train_count))
    return split_indices(n, train_count, cfg.seed)


def stage_train(cfg: PipelineConfig, args) -> int:
    paths = _paths(args)
    h = cfg.data_hash()
    feats = _nonempty_features(paths["features"], h)
    X, y = feats.X, feats.label
    train_idx, test_idx = _split_for(cfg, len(y))

    imputation = fit_imputation(X[train_idx])
    X_imp = apply_imputation(X, imputation)
    names = FEATURESETS[cfg.featureset]
    X_sel = select_columns(X_imp, names)

    params = None
    grid_results = None
    if cfg.grid:
        params, grid_results = grid_search_cv(
            cfg.model_kind,
            X_sel[train_idx],
            y[train_idx],
            seed=cfg.seed,
        )

    model = fit_model(
        cfg.model_kind,
        X_sel[train_idx],
        y[train_idx],
        params,
        seed=cfg.seed,
        feature_names=names,
        featureset_name=cfg.featureset,
        imputation=imputation,
    )
    extra = {
        "split": {
            "seed": cfg.seed,
            "train_size": cfg.train_size,
            "train_count": int(len(train_idx)),
            "n": int(len(y)),
        }
    }
    if grid_results is not None:
        extra["grid"] = grid_results
    out = _model_path(paths["dir"], cfg)
    save_model(model, out, h, extra=extra)
    chosen = params or model.hyperparameters
    print(
        f"train: {cfg.featureset} {cfg.model_kind} on {len(train_idx)} rows, "
        f"params {chosen} -> {out.name}"
    )
    return EXIT_OK


def stage_evaluate(cfg: PipelineConfig, args) -> int:
    paths = _paths(args)
    h = cfg.data_hash()
    model_file = _model_path(paths["dir"], cfg)
    model, doc = load_model(model_file, h)
    feats = _nonempty_features(paths["features"], h)
    X, y = feats.X, feats.label

    split = doc.get("split")
    if not split or split.get("n") != len(y):
        raise DataError(
            f"{model_file}: split metadata missing or for a different dataset"
        )
    train_idx, test_idx = split_indices(len(y), split["train_count"], split["seed"])
    if len(test_idx) < 3:
        raise DataError(f"{paths['features']}: {len(test_idx)} test rows, too few "
                        "for the three union-size terciles")

    X_imp = apply_imputation(X, model.imputation)
    # rows first, then columns: a column selection comes out column-major,
    # so a tree reads each column's rows from contiguous memory
    scores_train = predict(model, select_columns(X_imp[train_idx], model.feature_names))
    scores_test = predict(model, select_columns(X_imp[test_idx], model.feature_names))
    classifier = fit_threshold(scores_train, y[train_idx], feature_name="model_score")

    train_prf = prf_at_threshold(scores_train, y[train_idx], classifier)

    col = FEATURE_NAMES.index
    report = stratified_report(
        scores_test,
        y[test_idx],
        classifier=classifier,
        union_sizes=X[test_idx, col("union")],
        at_campus=X[test_idx, col("at_campus")],
        hours=X[test_idx, col("hour_of_week")],
        ts=feats.ts[test_idx],
        tz_offset_s=cfg.tz_offset_s,
        bt_rssi=feats.bt_rssi[test_idx],
    )
    payload = {
        "featureset": model.featureset_name,
        "kind": model.kind,
        "hyperparameters": dict(model.hyperparameters),
        "split": split,
        "train": {
            "n": int(len(train_idx)),
            "auc": auc_roc(scores_train, y[train_idx]),
            "threshold": classifier.threshold,
            **train_prf.as_dict(),
        },
        "test": report.as_dict(),
    }
    out = _eval_path(paths["dir"], cfg)
    fileio.write_json(out, SCHEMA_EVAL, h, payload)
    print(
        f"evaluate: {model.featureset_name} {model.kind} "
        f"test auc {report.auc:.4f} f1 {report.f1:.4f} -> {out.name}"
    )
    return EXIT_OK


def stage_report(cfg: PipelineConfig, args) -> int:
    paths = _paths(args)
    h = cfg.data_hash()
    feats = _nonempty_features(paths["features"], h)
    X, y = feats.X, feats.label
    train_idx, test_idx = _split_for(cfg, len(y))

    imputation = fit_imputation(X[train_idx])
    X_imp = apply_imputation(X, imputation)

    single = {}
    for j, name in enumerate(FEATURE_NAMES):
        clf = fit_threshold(X_imp[train_idx, j], y[train_idx], feature_name=name)
        train_auc = auc_roc(X_imp[train_idx, j], y[train_idx])
        test_auc = auc_roc(X_imp[test_idx, j], y[test_idx])
        if clf.direction == "less-is-positive":
            train_auc, test_auc = 1.0 - train_auc, 1.0 - test_auc
        test_prf = prf_at_threshold(X_imp[test_idx, j], y[test_idx], clf)
        single[name] = {
            "direction": clf.direction,
            "threshold": clf.threshold,
            "train_auc": train_auc,
            "test_auc": test_auc,
            "train_f1": clf.train_f1,
            "test_f1": test_prf.f1,
        }

    eval_paths = sorted(paths["dir"].glob("eval_*.json"))
    if args.evals:
        eval_paths = [Path(p) for p in args.evals]
    featuresets = {}
    for path in eval_paths:
        doc = fileio.read_json(path, SCHEMA_EVAL)
        if doc.get("config_hash") != h:
            raise DataError(
                f"{path}: config hash {doc.get('config_hash')} does not match "
                f"features file {h}; refusing to mix runs"
            )
        key = f"{doc['featureset']}:{doc['kind']}"
        featuresets[key] = {
            "featureset": doc["featureset"],
            "kind": doc["kind"],
            "train_auc": doc["train"]["auc"],
            "train_f1": doc["train"]["f1"],
            "test_auc": doc["test"]["auc"],
            "test_f1": doc["test"]["f1"],
            "n_train": doc["train"]["n"],
            "n_test": doc["test"]["n"],
        }

    payload = {
        "n": int(len(y)),
        "n_train": int(len(train_idx)),
        "n_test": int(len(test_idx)),
        "positive_fraction": float(np.mean(y)),
        "single_features": single,
        "featuresets": featuresets,
    }
    fileio.write_json(paths["report"], SCHEMA_REPORT, h, payload)
    print(
        f"report: {len(single)} single-feature baselines, "
        f"{len(featuresets)} model evals -> {paths['report'].name}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dir", default="run", help="working directory (default: run)")
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--seed", type=int, help="pipeline seed")
    common.add_argument("--delta-t", type=int, dest="delta_t", help="pairing window, seconds")
    common.add_argument("--featureset", help="feature subset name, e.g. FULL or NEARME")
    common.add_argument("--model", choices=list(KIND_SHORT.values()), help="model kind")
    common.add_argument("--train-size", type=float, dest="train_size",
                        help="train fraction in (0, 1)")
    common.add_argument("--strict-parse", action="store_const", const=True,
                        dest="strict_parse", help="abort on malformed input lines")
    common.add_argument("--grid", action="store_const", const=True,
                        help="grid-search hyperparameters during train")
    common.add_argument("--jobs", type=int,
                        help="ignored (stages run on one thread); kept until the "
                             "benchmark harness stops passing it")

    parser = argparse.ArgumentParser(
        prog="wifi-proximity",
        description="Infer close-proximity interactions from WiFi scan overlap.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    gen = sub.add_parser("generate", parents=[common],
                         help="simulate a synthetic town and emit raw logs")
    gen.add_argument("--stats", action="store_true",
                     help="print calibration statistics after generating")
    sub.add_parser("clean", parents=[common],
                   help="validate scans, drop ambiguous MACs, detect home routers")
    sub.add_parser("pair", parents=[common],
                   help="build labeled candidate pairs per active hour window")
    sub.add_parser("featurize", parents=[common],
                   help="compute the 16 pairwise features per candidate")
    sub.add_parser("train", parents=[common],
                   help="fit a model on the train split of the feature matrix")
    sub.add_parser("evaluate", parents=[common],
                   help="score the test split and write an evaluation report")
    rep = sub.add_parser("report", parents=[common],
                         help="aggregate single-feature baselines and model evals")
    rep.add_argument("--evals", nargs="*",
                     help="explicit eval JSON paths (default: dir/eval_*.json)")
    return parser


STAGES = {
    "generate": stage_generate,
    "clean": stage_clean,
    "pair": stage_pair,
    "featurize": stage_featurize,
    "train": stage_train,
    "evaluate": stage_evaluate,
    "report": stage_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    overrides = {
        "seed": args.seed,
        "delta_t_s": args.delta_t,
        "featureset": args.featureset.upper() if args.featureset else None,
        "model": args.model,
        "train_size": args.train_size,
        "strict_parse": args.strict_parse,
        "grid": args.grid,
    }
    try:
        cfg = load_config(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return STAGES[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, FileNotFoundError, ValueError) as exc:
        # MalformedRecordError and PopularityIndexError are ValueErrors
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

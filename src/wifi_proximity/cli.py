"""Command-line pipeline: generate, clean, pair, featurize, train, evaluate, report.

Stages communicate through files in one working directory and run in the
order listed. ``STAGES`` is the manifest of each stage's function and the
files it writes, and ``output_paths`` names those files in a directory.
``main`` runs a stage inside one ``fileio.committed()`` block, so its
outputs land together when it succeeds, and a stage that fails leaves the
previous set as it was. Every output embeds the config hash, so a report can
refuse to aggregate results produced under different configurations.
From ``pair`` on, stages read arrays: ``pair`` writes the candidates that
``pairing.pair_windows`` returns as candidates.npz, which ``featurize``
reads, and ``featurize`` writes features.npz, which ``train``,
``evaluate`` and ``report`` read. candidates.csv and features.csv are
readable copies of the same rows that no stage reads. Those three load
and split features.npz in one step, ``_split_features``, with the split
the config gives, and check that each side they use holds both classes,
naming the file and the train count when one does not. They build each
side's model input with ``features.model_matrix``, one column-major
gather of its rows.

Exit codes: 0 ok, 2 usage error, 3 data error, 4 config error.
"""
from __future__ import annotations

import argparse
import sys
# unused here, but perfbench/tracing.py patches this name in every module
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import fileio, synthgen
from .config import ConfigError, PipelineConfig, load_config
from .evaluation import auc_roc, prf_at_threshold, stratified_report
from .features import (
    FEATURE_NAMES,
    FeatureTable,
    extract_feature_matrix,
    fit_imputation,
    model_matrix,
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
    GRID_FOLDS,
    KIND_SHORT,
    fit_model,
    fit_threshold,
    grid_search_cv,
    load_model,
    predict,
    save_model,
)
from .pairing import CandidateTable, pair_windows, split_indices
from .records import MalformedRecordError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONFIG = 4

CANDIDATE_COLUMNS = ["user_a", "user_b", "ts_a", "ts_b", "ts", "label", "bt_rssi"]
FEATURE_KEY_COLUMNS = ["user_a", "user_b", "ts_a", "ts_b", "ts", "label"]


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def stage_generate(cfg: PipelineConfig, args, paths) -> int:
    paths["wifi"].parent.mkdir(parents=True, exist_ok=True)
    h = cfg.data_hash()
    scans, truth = synthgen.generate(
        cfg.world, paths["wifi"], paths["bluetooth"], paths["truth"], config_hash=h
    )
    print(
        f"generate: wrote {paths['wifi'].name}, {paths['bluetooth'].name}, "
        f"{paths['truth'].name} in {paths['wifi'].parent} (config {h})"
    )
    if args.stats:
        stats = synthgen.calibrate_stats(cfg.world, scans, truth)
        for key in sorted(stats):
            print(f"  {key} = {stats[key]}")
    return EXIT_OK


def stage_clean(cfg: PipelineConfig, args, paths) -> int:
    h = cfg.data_hash()
    parsed = _parse_log(parse_wifi_log, paths["wifi"], SCHEMA_WIFI, cfg.strict_parse)
    scans, report = filter_ambiguous_macs(parsed.records, cfg.ambiguous_ssid_threshold)
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
        {**asdict(report), "skipped_lines": parsed.skipped, "records": n},
    )
    fileio.write_json(paths["homes"], SCHEMA_HOMES, h, homes_doc)
    print(
        f"clean: {n} records kept, {report.removed_observations} observations "
        f"from {report.ambiguous_macs} ambiguous MACs removed, "
        f"{parsed.skipped} malformed lines skipped, {len(homes)} home routers"
    )
    return EXIT_OK


def stage_pair(cfg: PipelineConfig, args, paths) -> int:
    h = cfg.data_hash()
    table = WifiScans.load(paths["scans"], h)
    bt = _parse_log(parse_bluetooth_log, paths["bluetooth"], SCHEMA_BLUETOOTH, cfg.strict_parse)
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


def _parse_log(parse, path, schema: str, strict: bool):
    """Check the header of the JSONL log at path against schema, then run
    parse over its lines; a strict-mode error names the file."""
    fileio.read_jsonl_header(path, schema)
    try:
        return parse(fileio.iter_jsonl(path), strict=strict)
    except MalformedRecordError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _key_columns(table: WifiScans, cands: CandidateTable) -> list:
    """The user_a, user_b, ts_a, ts_b, ts and label columns of the CSV copies."""
    users = np.array(table.users, dtype=object)
    return [users[table.user[cands.row_a]], users[table.user[cands.row_b]],
            table.ts[cands.row_a], table.ts[cands.row_b], cands.ts, cands.label]


def stage_featurize(cfg: PipelineConfig, args, paths) -> int:
    h = cfg.data_hash()
    table = WifiScans.load(paths["scans"], h)
    cands = CandidateTable.load(paths["candidates"], h, len(table.ts))
    home_map = _home_map(paths["homes"], h)
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


def _home_map(path, h: str) -> dict[tuple[str, str], str]:
    """home_routers.json's bssid for each (user, month). DataError names
    the file unless its homes are a list of objects whose user, month and
    bssid are strings."""
    homes = fileio.read_json(path, SCHEMA_HOMES, h).get("homes")
    if not isinstance(homes, list) or not all(
            isinstance(entry, dict) and all(isinstance(entry.get(key), str)
                                            for key in ("user", "month", "bssid"))
            for entry in homes):
        raise DataError(f"{path}: homes is not a list of objects with string "
                        "user, month and bssid")
    return {(entry["user"], entry["month"]): entry["bssid"] for entry in homes}


def _split_for(cfg: PipelineConfig, n: int):
    train_count = int(round(cfg.train_size * n))
    train_count = max(1, min(n - 1, train_count))
    return split_indices(n, train_count, cfg.seed)


def _split_features(cfg: PipelineConfig, path, sides, need: int = 1):
    """features.npz split by cfg: (table, train rows, test rows, split), where
    split is the object that train records in its model file and evaluate
    requires there.

    DataError names the file if it has no rows, or if a side named in
    sides ("train", "test") holds fewer than need rows of either class.
    """
    feats = FeatureTable.load(path, cfg.data_hash())
    if len(feats.label) == 0:
        raise DataError(f"{path}: has no rows")
    train_idx, test_idx = _split_for(cfg, len(feats.label))
    for side in sides:
        rows = train_idx if side == "train" else test_idx
        n_pos = int(np.count_nonzero(feats.label[rows]))
        if min(n_pos, len(rows) - n_pos) < need:
            what = ("without both classes" if need == 1 else
                    f"with fewer than {need} rows of a class, one per grid search fold")
            raise DataError(f"{path}: split train_count {len(train_idx)} leaves {side} "
                            f"rows {what}")
    split = {"seed": cfg.seed, "train_size": cfg.train_size,
             "train_count": len(train_idx), "n": len(feats.label)}
    return feats, train_idx, test_idx, split


def stage_train(cfg: PipelineConfig, args, paths) -> int:
    """Fit the config's model on its train side, and record the split."""
    h = cfg.data_hash()
    feats, train_idx, _, split = _split_features(cfg, paths["features"], ["train"],
                                                 GRID_FOLDS if cfg.grid else 1)
    y = feats.label[train_idx]

    imputation = fit_imputation(feats.X, train_idx)
    names = FEATURESETS[cfg.featureset]
    X = model_matrix(feats.X, train_idx, names, imputation)
    # the fit needs only the training rows' model matrix
    del feats

    params = None
    grid_results = None
    if cfg.grid:
        params, grid_results = grid_search_cv(cfg.model_kind, X, y, seed=cfg.seed)

    model = fit_model(
        cfg.model_kind,
        X,
        y,
        params,
        seed=cfg.seed,
        feature_names=names,
        featureset=cfg.featureset,
        imputation=imputation,
    )
    extra = {"split": split}
    if grid_results is not None:
        extra["grid"] = grid_results
    save_model(model, paths["model"], h, extra=extra)
    chosen = params or model.hyperparameters
    print(
        f"train: {cfg.featureset} {cfg.model_kind} on {len(train_idx)} rows, "
        f"params {chosen} -> {paths['model'].name}"
    )
    return EXIT_OK


def stage_evaluate(cfg: PipelineConfig, args, paths) -> int:
    """Score the config's split with a model of its kind, featureset and split."""
    h = cfg.data_hash()
    model_file = paths["model"]
    model, doc = load_model(model_file, h)
    if (model.featureset, model.kind, list(model.feature_names)) != (
            cfg.featureset, cfg.model_kind, FEATURESETS[cfg.featureset]):
        raise DataError(f"{model_file}: a {model.featureset} {model.kind} model on "
                        f"{len(model.feature_names)} features, not the config's "
                        f"{cfg.featureset} {cfg.model_kind}")
    feats, train_idx, test_idx, split = _split_features(cfg, paths["features"],
                                                        ["train", "test"])
    if doc.get("split") != split:
        raise DataError(f"{model_file}: split {doc.get('split')!r} is not the config's "
                        f"split {split!r}")
    if len(test_idx) < 3:
        raise DataError(f"{paths['features']}: {len(test_idx)} test rows, too few "
                        "for the three union-size terciles")
    y_train, y_test = feats.label[train_idx], feats.label[test_idx]

    X, names = feats.X, model.feature_names
    scores_train = predict(model, model_matrix(X, train_idx, names, model.imputation))
    X_test = model_matrix(X, test_idx, names, model.imputation)
    # of the other features, the strata read only these columns of the test rows
    col = FEATURE_NAMES.index
    union_sizes, at_campus, hours = (X[test_idx, col(name)]
                                     for name in ("union", "at_campus", "hour_of_week"))
    ts, bt_rssi = feats.ts[test_idx], feats.bt_rssi[test_idx]
    # scoring the test rows needs none of the loaded table
    del feats, X
    scores_test = predict(model, X_test)

    classifier = fit_threshold(scores_train, y_train, feature_name="model_score")
    train_prf = prf_at_threshold(scores_train, y_train, classifier)
    report = stratified_report(
        scores_test,
        y_test,
        classifier=classifier,
        union_sizes=union_sizes,
        at_campus=at_campus,
        hours=hours,
        ts=ts,
        tz_offset_s=cfg.tz_offset_s,
        bt_rssi=bt_rssi,
    )
    payload = {
        "featureset": model.featureset,
        "kind": model.kind,
        "hyperparameters": dict(model.hyperparameters),
        "split": split,
        "train": {
            "n": int(len(train_idx)),
            "auc": classifier.train_auc,
            "threshold": classifier.threshold,
            **asdict(train_prf),
        },
        "test": asdict(report),
    }
    fileio.write_json(paths["eval"], SCHEMA_EVAL, h, payload)
    print(
        f"evaluate: {model.featureset} {model.kind} "
        f"test auc {report.auc:.4f} f1 {report.f1:.4f} -> {paths['eval'].name}"
    )
    return EXIT_OK


def stage_report(cfg: PipelineConfig, args, paths) -> int:
    """Single-feature baselines on the config's split, and one row per model eval."""
    h = cfg.data_hash()
    feats, train_idx, test_idx, _ = _split_features(cfg, paths["features"], ["train", "test"])
    y = feats.label
    y_train, y_test = y[train_idx], y[test_idx]

    imputation = fit_imputation(feats.X, train_idx)
    X_train, X_test = (model_matrix(feats.X, rows, FEATURE_NAMES, imputation)
                       for rows in (train_idx, test_idx))
    del feats

    single = {}
    for name, train_col, test_col in zip(FEATURE_NAMES, X_train.T, X_test.T):
        clf = fit_threshold(train_col, y_train, feature_name=name)
        train_auc, test_auc = clf.train_auc, auc_roc(test_col, y_test)
        if clf.direction == "less-is-positive":
            train_auc, test_auc = 1.0 - train_auc, 1.0 - test_auc
        test_prf = prf_at_threshold(test_col, y_test, clf)
        single[name] = {
            "direction": clf.direction,
            "threshold": clf.threshold,
            "train_auc": train_auc,
            "test_auc": test_auc,
            "train_f1": clf.train_f1,
            "test_f1": test_prf.f1,
        }

    pattern = output_paths(args.dir)["eval"]
    eval_paths = sorted(pattern.parent.glob(pattern.name))
    if args.evals:
        eval_paths = [Path(p) for p in args.evals]
    featuresets, filed = {}, {}
    for path in eval_paths:
        doc = fileio.read_json(path, SCHEMA_EVAL)
        if doc.get("config_hash") != h:
            raise DataError(
                f"{path}: config hash {doc.get('config_hash')} does not match "
                f"features file {h}; refusing to mix runs"
            )
        train, test = doc.get("train"), doc.get("test")
        if not (isinstance(doc.get("featureset"), str) and isinstance(doc.get("kind"), str)
                and all(isinstance(side, dict) and type(side.get("n")) is int
                        and all(type(side.get(key)) in (int, float) for key in ("auc", "f1"))
                        for side in (train, test))):
            raise DataError(f"{path}: malformed eval file: it needs string featureset "
                            "and kind, and train and test objects with numeric auc "
                            "and f1 and an integer n")
        key = f"{doc['featureset']}:{doc['kind']}"
        if key in filed:
            raise DataError(f"{path}: a {doc['featureset']} {doc['kind']} eval, as is "
                            f"{filed[key]}; refusing to report one model twice")
        filed[key] = path
        featuresets[key] = {
            "featureset": doc["featureset"],
            "kind": doc["kind"],
            "train_auc": train["auc"],
            "train_f1": train["f1"],
            "test_auc": test["auc"],
            "test_f1": test["f1"],
            "n_train": train["n"],
            "n_test": test["n"],
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
                     help="explicit eval JSON paths (default: dir/eval_*_*.json)")
    return parser


# The stage manifest: each stage's function and the files it writes, by
# key. The model and eval names are templates over the featureset and the
# model kind's short name.
STAGES = {
    "generate": (stage_generate, {"wifi": "wifi.jsonl", "bluetooth": "bluetooth.jsonl",
                                  "truth": "ground_truth.jsonl"}),
    "clean": (stage_clean, {"cleaned": "cleaned.jsonl", "scans": "scans.npz",
                            "cleaning_report": "cleaning_report.json",
                            "homes": "home_routers.json"}),
    "pair": (stage_pair, {"candidates": "candidates.npz", "candidates_csv": "candidates.csv"}),
    "featurize": (stage_featurize, {"features": "features.npz", "features_csv": "features.csv"}),
    "train": (stage_train, {"model": "model_{featureset}_{kind}.json"}),
    "evaluate": (stage_evaluate, {"eval": "eval_{featureset}_{kind}.json"}),
    "report": (stage_report, {"report": "report.json"}),
}


def output_paths(d, featureset: str = "*", kind: str = "*") -> dict[str, Path]:
    """The path in directory d of every file in STAGES, by its key.

    The model and eval names take featureset, lower-cased, and kind, a
    model kind or its short name. Left at '*', they are glob patterns.
    """
    fill = {"featureset": featureset.lower(), "kind": KIND_SHORT.get(kind, kind)}
    return {key: Path(d) / name.format(**fill)
            for _, writes in STAGES.values() for key, name in writes.items()}


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

    stage = STAGES[args.command][0]
    try:
        with fileio.committed():
            return stage(cfg, args, output_paths(args.dir, cfg.featureset, cfg.model_kind))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError, ValueError) as exc:
        # MalformedRecordError and PopularityIndexError are ValueErrors; an
        # OSError, such as a directory where a file should be, names its path
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

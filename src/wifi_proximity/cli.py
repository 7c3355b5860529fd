"""Command-line pipeline: generate, clean, pair, featurize, train, evaluate, report.

Stages communicate through files in one working directory and run in the
order listed. Every output embeds the config hash, so a report can
refuse to aggregate results produced under different configurations.

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
    ScanTable,
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
    build_home_router_map,
    filter_ambiguous_macs,
    parse_bluetooth_log,
    parse_wifi_log,
)
from .models import (
    FEATURESETS,
    fit_model,
    fit_threshold,
    grid_search_cv,
    load_model,
    predict,
    save_model,
    select_columns,
)
from .pairing import WINDOW_S, build_hour_windows, generate_candidates, split_indices

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
        "cleaning_report": d / "cleaning_report.json",
        "homes": d / "home_routers.json",
        "candidates": d / "candidates.csv",
        "features": d / "features.csv",
        "report": d / "report.json",
    }


_KIND_SHORT = {"gradient-boosted": "gbt", "random-forest": "rf"}


def _model_path(d: Path, cfg: PipelineConfig) -> Path:
    return d / f"model_{cfg.featureset.lower()}_{_KIND_SHORT[cfg.model_kind]}.json"


def _eval_path(d: Path, cfg: PipelineConfig) -> Path:
    return d / f"eval_{cfg.featureset.lower()}_{_KIND_SHORT[cfg.model_kind]}.json"


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
    parsed = parse_wifi_log(fileio.iter_jsonl(paths["wifi"]), strict=cfg.strict_parse)
    records, report = filter_ambiguous_macs(
        parsed.records, cfg.ambiguous_ssid_threshold
    )

    def rows():
        for rec in records:
            yield {
                "user": rec.user,
                "ts": rec.ts,
                "aps": [
                    {"bssid": ap.bssid, "ssid": ap.ssid, "rssi": ap.rssi}
                    for ap in rec.aps
                ],
            }

    n = fileio.write_jsonl(paths["cleaned"], SCHEMA_WIFI, h, rows())
    fileio.write_json(
        paths["cleaning_report"],
        SCHEMA_CLEANING,
        h,
        {**report.as_dict(), "skipped_lines": parsed.skipped, "records": n},
    )

    homes = build_home_router_map(records, cfg.home_bin_minutes, cfg.tz_offset_s)
    fileio.write_json(
        paths["homes"],
        SCHEMA_HOMES,
        h,
        {
            "bin_minutes": cfg.home_bin_minutes,
            "homes": [
                {"user": user, "month": month, "bssid": bssid}
                for (user, month), bssid in sorted(homes.items())
            ],
        },
    )
    print(
        f"clean: {n} records kept, {report.removed_observations} observations "
        f"from {report.ambiguous_macs} ambiguous MACs removed, "
        f"{parsed.skipped} malformed lines skipped, {len(homes)} home routers"
    )
    return EXIT_OK


def stage_pair(cfg: PipelineConfig, args) -> int:
    paths = _paths(args)
    h = cfg.data_hash()
    fileio.read_jsonl_header(paths["cleaned"], SCHEMA_WIFI)
    fileio.read_jsonl_header(paths["bluetooth"], SCHEMA_BLUETOOTH)
    # clean wrote this file: a malformed line means it is corrupt
    wifi = parse_wifi_log(fileio.iter_jsonl(paths["cleaned"]), strict=True)
    bt = parse_bluetooth_log(
        fileio.iter_jsonl(paths["bluetooth"]), strict=cfg.strict_parse
    )

    windows = build_hour_windows(bt.records)
    scans_by_hour: dict[int, list] = {}
    for rec in wifi.records:
        hour = (rec.ts // WINDOW_S) * WINDOW_S
        scans_by_hour.setdefault(hour, []).append(rec)
    sightings = sorted(bt.records, key=lambda s: s.ts)
    sight_ts = np.array([s.ts for s in sightings], dtype=np.int64)

    candidates = []
    for window in windows:
        scans = [
            rec
            for rec in scans_by_hour.get(window.start_ts, [])
            if rec.user in window.active_users
        ]
        if not scans:
            continue
        lo = int(np.searchsorted(sight_ts, window.start_ts - cfg.delta_t_s))
        hi = int(np.searchsorted(sight_ts, window.start_ts + WINDOW_S + cfg.delta_t_s))
        # hour-ordered windows of sorted candidates: the list stays sorted
        candidates.extend(generate_candidates(scans, sightings[lo:hi], cfg.delta_t_s))

    rows = (
        [c.user_a, c.user_b, c.scan_a.ts, c.scan_b.ts, c.ts, c.label, c.bt_rssi]
        for c in candidates
    )
    n = fileio.write_csv(paths["candidates"], SCHEMA_CANDIDATES, h, CANDIDATE_COLUMNS, rows)
    n_pos = sum(c.label for c in candidates)
    share = n_pos / n if n else 0.0
    print(
        f"pair: {n} candidates from {len(windows)} active hour windows, "
        f"{n_pos} positive ({share:.1%})"
    )
    return EXIT_OK


def _read_candidates(path, expect_hash=None):
    meta, columns, rows = fileio.read_csv(path, SCHEMA_CANDIDATES, expect_hash)
    if columns != CANDIDATE_COLUMNS:
        raise DataError(f"{path}: unexpected columns {columns}")
    return meta, rows


def stage_featurize(cfg: PipelineConfig, args) -> int:
    paths = _paths(args)
    h = cfg.data_hash()
    fileio.read_jsonl_header(paths["cleaned"], SCHEMA_WIFI)
    wifi = parse_wifi_log(fileio.iter_jsonl(paths["cleaned"]), strict=True)
    table = ScanTable.from_records(wifi.records)
    del wifi  # the candidates reuse its memory
    _, cand_rows = _read_candidates(paths["candidates"])
    homes_doc = fileio.read_json(paths["homes"], SCHEMA_HOMES)
    home_map = {
        (entry["user"], entry["month"]): entry["bssid"]
        for entry in homes_doc["homes"]
    }

    users_a, users_b, ts_a, ts_b, pair_ts = [], [], [], [], []
    for user_a, user_b, t_a, t_b, ts, _label, _bt_rssi in cand_rows:
        users_a.append(user_a)
        users_b.append(user_b)
        ts_a.append(int(t_a))
        ts_b.append(int(t_b))
        pair_ts.append(int(ts))
    try:
        scan_a = table.rows_of(users_a, ts_a)
        scan_b = table.rows_of(users_b, ts_b)
        pair_ts = np.array(pair_ts, dtype=np.int64)
    except OverflowError as exc:
        raise DataError(f"{paths['candidates']}: timestamp out of range") from exc
    missing = np.flatnonzero((scan_a < 0) | (scan_b < 0))
    if len(missing):
        i = missing[0]
        raise DataError(
            f"candidate references missing scan {(users_a[i], ts_a[i])} / "
            f"{(users_b[i], ts_b[i])}; "
            "was the candidates file built from this cleaned input?"
        )
    X = extract_feature_matrix(
        table,
        scan_a,
        scan_b,
        pair_ts,
        home_map,
        campus_ssid=cfg.campus_ssid,
        tz_offset_s=cfg.tz_offset_s,
        alpha=cfg.alpha,
        popularity_window_s=cfg.delta_t_s,
    )

    def rows():
        # a NaN feature, a missing correlation, is written as an empty cell
        for (user_a, user_b, ts_a, ts_b, ts, label, _), feats in zip(cand_rows, X):
            yield [user_a, user_b, int(ts_a), int(ts_b), int(ts), int(label),
                   *feats.tolist()]

    columns = FEATURE_KEY_COLUMNS + FEATURE_NAMES
    n = fileio.write_csv(paths["features"], SCHEMA_FEATURES, h, columns, rows())
    print(f"featurize: {n} rows, {len(FEATURE_NAMES)} features each")
    return EXIT_OK


def _load_features(path, expect_hash=None):
    """Parse features.csv into keys, label vector, and float matrix."""
    meta, columns, rows = fileio.read_csv(path, SCHEMA_FEATURES, expect_hash)
    expected = FEATURE_KEY_COLUMNS + FEATURE_NAMES
    if columns != expected:
        raise DataError(f"{path}: unexpected columns {columns}")
    keys = []
    y = np.empty(len(rows), dtype=np.int64)
    X = np.empty((len(rows), len(FEATURE_NAMES)))
    for i, row in enumerate(rows):
        rows[i] = None  # the keys reuse the memory of converted rows
        keys.append((row[0], row[1], int(row[2]), int(row[3]), int(row[4])))
        y[i] = int(row[5])
        X[i] = [float(cell) if cell != "" else np.nan for cell in row[6:]]
    return meta, keys, y, X


def _split_for(cfg: PipelineConfig, n: int):
    train_count = int(round(cfg.train_size * n))
    train_count = max(1, min(n - 1, train_count))
    return split_indices(n, train_count, cfg.seed)


def stage_train(cfg: PipelineConfig, args) -> int:
    paths = _paths(args)
    h = cfg.data_hash()
    meta, keys, y, X = _load_features(paths["features"], h)
    _, cand_rows = _read_candidates(paths["candidates"], h)
    if len(cand_rows) != len(y):
        raise DataError("features and candidates row counts differ")
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
    meta, keys, y, X = _load_features(paths["features"], h)
    _, cand_rows = _read_candidates(paths["candidates"], h)
    if len(cand_rows) != len(y):
        raise DataError("features and candidates row counts differ")

    split = doc.get("split")
    if not split or split.get("n") != len(y):
        raise DataError(
            f"{model_file}: split metadata missing or for a different dataset"
        )
    train_idx, test_idx = split_indices(len(y), split["train_count"], split["seed"])

    X_imp = apply_imputation(X, model.imputation)
    X_sel = select_columns(X_imp, model.feature_names)

    scores_train = predict(model, X_sel[train_idx])
    scores_test = predict(model, X_sel[test_idx])
    classifier = fit_threshold(scores_train, y[train_idx], feature_name="model_score")

    train_prf = prf_at_threshold(scores_train, y[train_idx], classifier)
    bt_rssi = np.full(len(y), np.nan)
    for i, row in enumerate(cand_rows):
        if row[6] != "":
            bt_rssi[i] = float(row[6])

    col = FEATURE_NAMES.index
    report = stratified_report(
        scores_test,
        y[test_idx],
        classifier=classifier,
        union_sizes=X[test_idx, col("union")],
        at_campus=X[test_idx, col("at_campus")],
        hours=X[test_idx, col("hour_of_week")],
        ts=np.array([keys[i][4] for i in test_idx], dtype=np.int64),
        tz_offset_s=cfg.tz_offset_s,
        bt_rssi=bt_rssi[test_idx],
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
    _, keys, y, X = _load_features(paths["features"], h)
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
    common.add_argument("--model", choices=["gbt", "rf"], help="model kind")
    common.add_argument("--train-size", type=float, dest="train_size",
                        help="train fraction in (0, 1)")
    common.add_argument("--strict-parse", action="store_const", const=True,
                        dest="strict_parse", help="abort on malformed input lines")
    common.add_argument("--grid", action="store_const", const=True,
                        help="grid-search hyperparameters during train")
    common.add_argument("--jobs", type=int,
                        help="worker threads: accepted, but no stage uses "
                             "them (run_experiment.py --curve does)")

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
        "jobs": args.jobs,
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

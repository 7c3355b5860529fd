#!/usr/bin/env python3
"""Print the result tables of an existing run directory.

Reads report.json and every eval_*.json produced by the pipeline and
prints single-feature baselines, model comparisons, feature importance,
and the miss rate by Bluetooth signal strength. Nothing is recomputed;
this is a viewer for artifacts on disk. It reads every file before it
prints, and exits 3 with one line naming the file when report.json, an
eval file or the model file of an eval's featureset and kind cannot be
read or lacks a field it shows. An eval file whose model file is absent
is shown without its feature importance, and one whose model has no
split with a note that says so.

    python3 scripts/summarize_run.py --dir run
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wifi_proximity import fileio
from wifi_proximity.cli import output_paths
from wifi_proximity.models import feature_importance, load_model


def report_lines(report: dict) -> list[str]:
    lines = [f"{report['n']} candidates ({report['positive_fraction']:.1%} "
             f"positive), {report['n_train']} train / {report['n_test']} test",
             "", "single-feature thresholds (test split)"]
    rows = sorted(report["single_features"].items(),
                  key=lambda kv: kv[1]["test_auc"], reverse=True)
    lines += [f"{name:>16}  auc {row['test_auc']:.3f}  f1 {row['test_f1']:.3f}  "
              f"{row['direction']}" for name, row in rows]
    lines += ["", "model evaluations (test split)"]
    for key in sorted(report["featuresets"]):
        row = report["featuresets"][key]
        lines.append(f"{row['featureset']:>12} {row['kind']:>16}  "
                     f"auc {row['test_auc']:.3f}  f1 {row['test_f1']:.3f}")
    return lines


def eval_lines(doc: dict, model) -> list[str]:
    lines, title = [], f"{doc['featureset']} {doc['kind']}"
    if model is not None:
        try:
            imp = feature_importance(model)
        except ValueError:  # every tree is one leaf
            lines += ["", f"{title}: no splits, so no feature importance"]
        else:
            top = sorted(imp.items(), key=lambda kv: kv[1], reverse=True)[:6]
            lines += ["", f"{title}: top feature importance"]
            lines += [f"{name:>16}  {weight:.3f}" for name, weight in top]
    bins = doc["test"].get("miss_rate_by_bt_rssi") or []
    if bins:
        lines += ["", f"{title}: miss rate by bluetooth rssi"]
        for b in bins:
            bar = "#" * int(round(40 * b["miss_rate"]))
            lines.append(f"[{b['lo']:4.0f}, {b['hi']:4.0f})  n={b['n']:<7d} "
                         f"{b['miss_rate']:6.1%}  {bar}")
    return lines


def shown(path: Path, render, *docs) -> list[str]:
    """render(*docs), or a DataError naming path when its document lacks a
    field that render shows or holds one of the wrong type."""
    try:
        return render(*docs)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise fileio.DataError(f"{path}: malformed document: {exc!r}") from exc


def summary(d: Path) -> list[str]:
    """The lines to print, from report.json and each eval file with the
    model file of its featureset and kind."""
    paths = output_paths(d)
    lines = shown(paths["report"], report_lines,
                  fileio.read_json(paths["report"], fileio.SCHEMA_REPORT))
    for eval_path in sorted(d.glob(paths["eval"].name)):
        doc = fileio.read_json(eval_path, fileio.SCHEMA_EVAL)
        model_path = shown(eval_path, lambda: output_paths(d, doc["featureset"],
                                                           doc["kind"])["model"])
        model = load_model(model_path)[0] if model_path.exists() else None
        lines += shown(eval_path, eval_lines, doc, model)
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--dir", default="run", help="run directory to summarize")
    args = p.parse_args(argv)
    try:
        lines = summary(Path(args.dir))
    except (fileio.DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

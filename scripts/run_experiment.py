#!/usr/bin/env python3
"""Run the full proximity-inference experiment and print the result tables.

Drives the pipeline stages end to end in one working directory:
synthetic logs, cleaning, candidate pairing, features, one model per
requested featureset, and the aggregate report. Optionally adds the
training-size saturation curve.

Typical use:

    python3 scripts/run_experiment.py --dir run
    python3 scripts/run_experiment.py --dir run --config scripts/example.conf \
        --featuresets FULL,SIMPLE,NEARME --curve
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wifi_proximity import fileio
from wifi_proximity.cli import main as run_stage
from wifi_proximity.evaluation import learning_curve
from wifi_proximity.features import FeatureTable
from wifi_proximity.models import FEATURESETS, KIND_SHORT
from wifi_proximity.pairing import split_indices


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--dir", default="run", help="working directory")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed (default: leave as-is)")
    p.add_argument("--model", choices=list(KIND_SHORT.values()), default="gbt")
    p.add_argument("--train-size", type=float, dest="train_size", default=None,
                   help="train fraction in (0, 1) (default: the config's)")
    p.add_argument("--featuresets", default="FULL,SIMPLE,NEARME",
                   help="comma-separated featureset names")
    p.add_argument("--grid", action="store_true",
                   help="grid-search hyperparameters during training")
    p.add_argument("--curve", action="store_true",
                   help="also compute the training-size saturation curve")
    p.add_argument("--reuse-logs", action="store_true",
                   help="skip generation; expects raw logs in --dir")
    return p


def parse_args(argv=None):
    return build_parser().parse_args(argv)


def stage(name, base, extra=()):
    code = run_stage([name] + base + list(extra))
    if code != 0:
        sys.exit(code)


def print_single_features(report):
    rows = sorted(report["single_features"].items(),
                  key=lambda kv: kv[1]["test_auc"], reverse=True)
    print("\nsingle-feature thresholds (test split)")
    print(f"{'feature':>16}  {'auc':>6}  {'f1':>6}  direction")
    for name, row in rows:
        print(f"{name:>16}  {row['test_auc']:6.3f}  {row['test_f1']:6.3f}  "
              f"{row['direction']}")


def print_featuresets(report):
    print("\nmodel evaluations (test split)")
    print(f"{'featureset':>12}  {'model':>16}  {'auc':>6}  {'f1':>6}")
    for key in sorted(report["featuresets"]):
        row = report["featuresets"][key]
        print(f"{row['featureset']:>12}  {row['kind']:>16}  "
              f"{row['test_auc']:6.3f}  {row['test_f1']:6.3f}")


def run_curve(args, d, split):
    """Learning curve on the train/test split the models were fitted on."""
    feats = FeatureTable.load(d / "features.npz")
    X, y = feats.X, feats.label
    train_idx, test_idx = split_indices(len(y), split["train_count"], split["seed"])
    sizes = tuple(s for s in (100, 1000, 10000) if s <= len(train_idx))
    curve = learning_curve(X[train_idx], y[train_idx],
                           X[test_idx], y[test_idx],
                           sizes=sizes, kinds=(args.model,),
                           repetitions=20, seed=split["seed"])
    out = d / "learning_curve.json"
    serializable = {
        kind: {str(size): stats for size, stats in per_size.items()}
        for kind, per_size in curve.items()
    }
    out.write_text(json.dumps(serializable, indent=2) + "\n", encoding="utf-8")
    print(f"\ntraining-size curve ({args.model}, 20 repetitions) -> {out.name}")
    print(f"{'size':>8}  {'median auc':>10}  {'q25':>6}  {'q75':>6}")
    for size in sizes:
        row = curve[args.model][size]
        print(f"{size:>8}  {row['median']:10.4f}  {row['q25']:6.4f}  "
              f"{row['q75']:6.4f}")


def main(argv=None) -> int:
    args = parse_args(argv)
    for fs in args.featuresets.split(","):
        if fs.strip().upper() not in FEATURESETS:
            print(f"unknown featureset {fs!r}; known: "
                  f"{', '.join(sorted(FEATURESETS))}", file=sys.stderr)
            return 2

    d = Path(args.dir)
    base = ["--dir", str(d), "--model", args.model]
    if args.seed is not None:
        base += ["--seed", str(args.seed)]
    if args.config:
        base += ["--config", args.config]
    if args.train_size is not None:
        base += ["--train-size", str(args.train_size)]

    t0 = time.monotonic()
    if not args.reuse_logs:
        stage("generate", base, ["--stats"])
    stage("clean", base)
    stage("pair", base)
    stage("featurize", base)
    names = [fs.strip().upper() for fs in args.featuresets.split(",")]
    for fs in names:
        extra = ["--featureset", fs]
        if args.grid:
            extra.append("--grid")
        stage("train", base, extra)
        stage("evaluate", base, extra)
    # name this run's evals so leftovers from other runs cannot mix in
    evals = [str(d / f"eval_{fs.lower()}_{args.model}.json") for fs in names]
    stage("report", base, ["--evals"] + evals)

    report = fileio.read_json(d / "report.json", fileio.SCHEMA_REPORT)
    print(f"\n{report['n']} candidates "
          f"({report['positive_fraction']:.1%} positive), "
          f"{report['n_train']} train / {report['n_test']} test")
    print_single_features(report)
    print_featuresets(report)
    if args.curve:
        split = fileio.read_json(Path(evals[0]), fileio.SCHEMA_EVAL)["split"]
        run_curve(args, d, split)
    print(f"\ntotal {time.monotonic() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

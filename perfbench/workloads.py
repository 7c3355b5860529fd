"""The benchmark's worlds, workloads, timed sections and output checks.

Every workload runs on the *town*: the `WorldConfig` defaults (200 users,
500 routers, 2000 m square) for one day instead of seven, so that the
density of people and routers is the default world's. The workload seed
is passed to the pipeline as `--seed`; the pipeline sees only the logs
generated from it.

- prep: clean, pair, featurize and report, with `--jobs 1`. These prep
  layers do nearly all the work and the trees do none, so it exercises
  ingest, pairing, features and fileio and bypasses trees.
- quickstart: clean through report with gbt and rf on FULL, `--jobs 2`.
  The user's path through every stage, and every thread path: the pair
  pool, the GBT node executor (nodes of 20,000 rows or more: the 1-day
  town trains on about 24,000 rows) and the RF per-tree pool.
- curve: `evaluation.learning_curve` for gbt and rf at 100, 1,000 and
  10,000 rows on features built in setup. Trees and models do nearly all
  the work, at small n (per-node overhead) and large n (sorting and
  scanning); the prep layers are bypassed. It is run by hand, for its
  per-layer figures, and is not in BENCHMARK.json: over seeds 1-10 its
  scaled time per pass spread by 0.19 of the median, because the speed
  probe (speed.py) overstates how much a busy host slows its numpy-bound
  fits.

Both ensembles use ENSEMBLE_TREES trees instead of the library's 100, so
that a run of any workload takes well under a minute on two cores.
"""
from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import speed
from wifi_proximity import cli, evaluation, fileio, models
from wifi_proximity.ingest import parse_bluetooth_log
from wifi_proximity.pairing import build_hour_windows, split_indices

# world.* keys of the pipeline config file; the seed comes from --seed
WORLDS = {
    "town": {"world.days": "1"},
    # the test suite's tiny_world fixture (its seed is 7)
    "tiny": {"world.n_users": "24", "world.n_routers": "80", "world.days": "2",
             "world.n_buildings": "2", "world.n_venues": "2",
             "world.area_m": "1200.0"},
}

ENSEMBLE_TREES = 10
CURVE_KINDS = ("gbt", "rf")
CURVE_SIZES = (100, 1000, 10000)
CURVE_REPETITIONS = 1

# artifact -> the operation that writes it
PRODUCERS = {
    "wifi.jsonl": "generate",
    "bluetooth.jsonl": "generate",
    "ground_truth.jsonl": "generate",
    "cleaned.jsonl": "clean",
    "cleaning_report.json": "clean",
    "home_routers.json": "clean",
    "candidates.csv": "pair",
    "features.csv": "featurize",
    "model_full_gbt.json": "train gbt",
    "eval_full_gbt.json": "evaluate gbt",
    "model_full_rf.json": "train rf",
    "eval_full_rf.json": "evaluate rf",
    "report.json": "report",
}


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    stages: tuple  # CLI stage argv of the timed section
    setup_stages: tuple  # CLI stages run in setup, after generate
    setups: int  # setups per run; setup_s is their median


PREP = ("clean", "pair", "featurize")
WORKLOADS = {
    "prep": Workload("prep", 1, (*PREP, "report"), (), 3),
    "quickstart": Workload(
        "quickstart", 2,
        (*PREP, "train --model gbt", "evaluate --model gbt",
         "train --model rf", "evaluate --model rf", "report"),
        (), 3),
    # its setup takes as long as a prep pass, so it is made once
    "curve": Workload("curve", 1, (), (*PREP, "report"), 1),
}


def op_name(stage: str) -> str:
    """'train --model gbt' -> 'train gbt'."""
    return stage.replace("--model ", "")


def write_config(work: Path, world: str) -> Path:
    path = work / "world.conf"
    path.write_text("".join(f"{k} = {v}\n" for k, v in WORLDS[world].items()),
                    encoding="utf-8")
    return path


def run_stage(stage: str, d: Path, conf: Path, seed: int, jobs: int) -> int:
    """One CLI stage, in process; returns its exit code."""
    argv = stage.split() + ["--dir", str(d), "--config", str(conf),
                            "--seed", str(seed), "--jobs", str(jobs)]
    return cli.main(argv)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def artifact_hashes(d: Path) -> dict:
    return {p.name: sha256(p) for p in sorted(d.iterdir()) if p.name in PRODUCERS}


def clear_outputs(d: Path) -> None:
    """Remove everything a timed section writes, keeping the raw logs."""
    for p in d.iterdir():
        if PRODUCERS.get(p.name, "generate") != "generate":
            p.unlink()


# ---------------------------------------------------------------------------
# Timed sections (run in their own process)
# ---------------------------------------------------------------------------

def use_small_ensembles() -> None:
    """Make the CLI's default gbt and rf ensembles ENSEMBLE_TREES trees."""
    models.DEFAULT_GBT_PARAMS["n_trees"] = ENSEMBLE_TREES
    models.DEFAULT_RF_PARAMS["n_trees"] = ENSEMBLE_TREES


def cli_pass(wl: Workload, d: Path, conf: Path, seed: int, probe) -> dict:
    """Run the workload's stages once; each stage call is one operation.

    Each stage is scaled by the probe's slowdown during that stage.
    """
    ops, tally = [], speed.Tally()
    for stage in wl.stages:
        with probe.interval() as iv:
            try:
                code = run_stage(stage, d, conf, seed, wl.jobs)
                ops.append([op_name(stage), code == 0, f"exit {code}"])
            except Exception as exc:  # an operation that raises fails; go on
                ops.append([op_name(stage), False, f"{type(exc).__name__}: {exc}"])
        tally.add(iv)
    return {"ops": ops, **tally.figures()}


def curve_data(d: Path):
    data = np.load(d / "curve.npz")
    return data["X_pool"], data["y_pool"], data["X_test"], data["y_test"]


def curve_pass(data, seed: int) -> dict:
    """One learning curve; each fit is one operation."""
    X_pool, y_pool, X_test, y_test = data
    sizes = tuple(s for s in CURVE_SIZES if s <= len(y_pool))
    fits = [f"fit {kind} {size} {rep}" for kind in CURVE_KINDS for size in sizes
            for rep in range(CURVE_REPETITIONS)]
    try:
        curve = evaluation.learning_curve(
            X_pool, y_pool, X_test, y_test, sizes=sizes, kinds=CURVE_KINDS,
            params_by_kind={k: {"n_trees": ENSEMBLE_TREES} for k in CURVE_KINDS},
            repetitions=CURVE_REPETITIONS, seed=seed, jobs=1)
    except Exception as exc:  # a failed curve fails every fit in it
        return {"ops": [[f, False, f"{type(exc).__name__}: {exc}"] for f in fits]}
    largest = max(sizes)
    return {"ops": [[f, True, ""] for f in fits],
            "rows": sum(sizes) * len(CURVE_KINDS) * CURVE_REPETITIONS,
            "aucs": {kind: curve[kind][largest]["median"] for kind in CURVE_KINDS}}


# ---------------------------------------------------------------------------
# Setup (in the orchestrating process)
# ---------------------------------------------------------------------------

def load_curve_matrix(d: Path, seed: int) -> None:
    """Split features.csv as the pipeline does and save the curve's arrays."""
    _, _, rows = fileio.read_csv(d / "features.csv", fileio.SCHEMA_FEATURES)
    y = np.array([int(r[5]) for r in rows], dtype=float)
    X = np.array([[float(c) if c != "" else np.nan for c in r[6:]] for r in rows])
    n = len(y)
    train_idx, test_idx = split_indices(n, max(1, min(n - 1, round(0.5 * n))), seed)
    np.savez(d / "curve.npz", X_pool=X[train_idx], y_pool=y[train_idx],
             X_test=X[test_idx], y_test=y[test_idx])


# ---------------------------------------------------------------------------
# Output checks and workload descriptors
# ---------------------------------------------------------------------------

def config_hash_of(path: Path) -> str | None:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
    if path.suffix == ".csv":
        meta = dict(kv.split("=", 1) for kv in first[2:].split() if "=" in kv)
        return meta.get("config_hash")
    if path.suffix == ".jsonl":
        return json.loads(first).get("config_hash")
    return json.loads(path.read_text(encoding="utf-8")).get("config_hash")


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return fh.read().count(b"\n")


def check_outputs(wl: Workload, d: Path) -> list:
    """(operation, message) for every failed check on the run's artifacts."""
    failures = []
    present = [p for p in sorted(d.iterdir()) if p.name in PRODUCERS]
    produced = {op_name(s) for s in (*wl.stages, *wl.setup_stages)} | {"generate"}
    for name, op in PRODUCERS.items():
        if op in produced and not (d / name).exists():
            failures.append((op, f"{name} missing"))
    hashes = {p.name: config_hash_of(p) for p in present}
    if len(set(hashes.values())) > 1:
        for name, h in hashes.items():
            if h != hashes.get("wifi.jsonl"):
                failures.append((PRODUCERS[name], f"{name} config hash {h}"))
    if (d / "candidates.csv").exists() and (d / "features.csv").exists():
        n_cand = count_lines(d / "candidates.csv")
        n_feat = count_lines(d / "features.csv")
        if n_cand != n_feat:
            failures.append(("featurize", f"{n_feat} feature rows, {n_cand} candidates"))
    return failures


def report_aucs(d: Path) -> dict:
    """Test AUCs from report.json and the eval files, by check name."""
    report = fileio.read_json(d / "report.json", fileio.SCHEMA_REPORT)
    single = report["single_features"]
    out = {"auc.jaccard": single["jaccard"]["test_auc"],
           "auc.single_mean": statistics.fmean(v["test_auc"] for v in single.values())}
    for kind in ("gbt", "rf"):
        path = d / f"eval_full_{kind}.json"
        if path.exists():
            out[f"auc.{kind}_full"] = fileio.read_json(path, fileio.SCHEMA_EVAL)["test"]["auc"]
    return out


def descriptors(d: Path) -> dict:
    """Input properties of one workload and seed, computed from its artifacts."""
    text = (d / "cleaned.jsonl").read_text(encoding="utf-8")
    scans = text.count("\n") - 1
    _, _, cand = fileio.read_csv(d / "candidates.csv", fileio.SCHEMA_CANDIDATES)
    _, cols, feats = fileio.read_csv(d / "features.csv", fileio.SCHEMA_FEATURES)
    overlap, spearman, pearson = (cols.index(c) for c in ("overlap", "spearman", "pearson"))
    bt = parse_bluetooth_log(fileio.iter_jsonl(d / "bluetooth.jsonl"))
    n = max(len(feats), 1)
    return {
        "scans": scans,
        "candidates": len(cand),
        "positive_share": round(sum(int(r[5]) for r in cand) / max(len(cand), 1), 6),
        "active_hour_windows": len(build_hour_windows(bt.records)),
        "mean_aps_per_scan": round(text.count('"bssid"') / max(scans, 1), 6),
        "mean_common_aps": round(sum(float(r[overlap]) for r in feats) / n, 6),
        "missing_correlation_share": round(
            sum(1 for r in feats if r[spearman] == "" or r[pearson] == "") / n, 6),
    }

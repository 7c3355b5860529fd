#!/usr/bin/env python3
"""Benchmark of the wifi-proximity pipeline, timed from outside `src/`.

    python3 perfbench/run.py --workload prep --seed 1 --seconds 10 --trace 0

Workloads are `prep`, `quickstart` and `curve` (see workloads.py); `all`
runs the three in turn. BENCHMARK.json checks prep and quickstart only.
A run sets up the workload's inputs from `--seed`, starts a fresh process
for the timed section, checks the outputs and prints one JSON object as
its last line: `correct`, `attempted`, `failed` and `metrics`, each metric
with its unit. With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` they are the per-layer ones, from a traced pass of the
section that follows an untraced one (their wall-time ratio is
`trace.overhead`).

An operation is one stage call (or one fit, in `curve`); it fails when it
exits non-zero, raises or fails an output check. Checks: candidates and
features have equal row counts, all artifacts carry one config hash, the
test AUCs match `reference.json` within the bound `BENCHMARK.json` gives
them, and the sha256 of every artifact, the AUCs and the workload
descriptors are equal across the passes of one run and across runs of one
seed (kept under `_records/`).

The timed section repeats until `--seconds` have passed; metrics are
medians over its passes. Every time is scaled to a reference machine
speed by the probe in speed.py, stage by stage (pass by pass in curve),
because the speed of a shared host's cores drifts by more than the
bounds. Each setup is scaled the same way; a workload makes `setups` of
them per run and setup_s is their median.

Time and peak RSS are reported per input record, since the town's size
varies with the seed (42,772 to 65,762 candidates over seeds 1-10): the
records are the scans plus the candidates of the run in prep and
quickstart, and the training rows fitted in one curve pass in curve. Over
seeds, time grows with scans plus candidates and peak RSS in proportion to
them; the scaled seconds and megabytes are printed beside the result.

Gain claims must also hold on the held-out seed HELD_OUT_SEED, which is
not used while tuning a change.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from tracing import STAGES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

HELD_OUT_SEED = 1009

# One BLAS/OpenMP thread per process: unpinned, OpenBLAS spreads the
# `t_node @ t_node` purity check of large nodes over spinning threads,
# which doubles cpu_s without changing wall_s.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# name -> (unit, better)
END_TO_END = {
    "wall_us_per_record": ("us", "lower"),
    "cpu_us_per_record": ("us", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_kib_per_record": ("KiB", "lower"),
    "auc.jaccard": ("ratio", "higher"),
    "auc.model": ("ratio", "higher"),
}
PER_LAYER = {
    **{f"cli.{s}_s": ("s", "lower") for s in STAGES},
    **{f"cli.{s}.unattributed_s": ("s", "lower") for s in STAGES},
    "synthgen.generate_s": ("s", "lower"),
    "synthgen.scans": ("count", "higher"),
    "synthgen.sightings": ("count", "higher"),
    "ingest.parse_wifi_s": ("s", "lower"),
    "ingest.parse_bt_s": ("s", "lower"),
    "ingest.filter_s": ("s", "lower"),
    "ingest.homes_s": ("s", "lower"),
    "ingest.records_per_scan": ("ratio", "lower"),
    "fileio.read_s": ("s", "lower"),
    "fileio.write_s": ("s", "lower"),
    "fileio.bytes_read": ("bytes", "lower"),
    "fileio.bytes_written": ("bytes", "lower"),
    "fileio.features_reads": ("count", "lower"),
    "pairing.windows_s": ("s", "lower"),
    "pairing.candidates_s": ("s", "lower"),
    "pairing.windows": ("count", "higher"),
    "pairing.candidates": ("count", "higher"),
    "pairing.pool_threads": ("count", "lower"),
    "features.extract_s": ("s", "lower"),
    "features.intersect_s": ("s", "lower"),
    "features.correlations_s": ("s", "lower"),
    "features.distances_s": ("s", "lower"),
    "features.top_ap_s": ("s", "lower"),
    "features.popularity_s": ("s", "lower"),
    "features.context_s": ("s", "lower"),
    "features.popularity_index_s": ("s", "lower"),
    "features.popularity_queries": ("count", "lower"),
    "features.popularity_hit_rate": ("ratio", "higher"),
    "trees.grow_s": ("s", "lower"),
    "trees.grow_calls": ("count", "lower"),
    "trees.nodes": ("count", "lower"),
    "trees.grow_cells": ("count", "lower"),
    "trees.predict_s": ("s", "lower"),
    "trees.predict_rows": ("count", "lower"),
    "trees.pool_threads": ("count", "lower"),
    "models.fit_s": ("s", "lower"),
    "models.fits": ("count", "lower"),
    "models.predict_s": ("s", "lower"),
    "models.threshold_s": ("s", "lower"),
    "evaluation.auc_s": ("s", "lower"),
    "evaluation.auc_calls": ("count", "lower"),
    "evaluation.strata_s": ("s", "lower"),
    "evaluation.learning_curve_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("prep", "quickstart", "curve", "all"),
                   help="all runs the three in turn, one result line each")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=6.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--world", choices=("town", "tiny"), default="town",
                   help="tiny is the test suite's world, for the self-test")
    # internal: run only the timed section, in a process of its own
    p.add_argument("--section", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--dir", help=argparse.SUPPRESS)
    p.add_argument("--out", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def usage_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Timed section (child process)
# ---------------------------------------------------------------------------

def section(args) -> int:
    import workloads as W
    from tracing import Tracer, layer_metrics

    wl = W.WORKLOADS[args.workload]
    d = Path(args.dir)
    conf = d.parent / "world.conf"
    W.use_small_ensembles()
    data = W.curve_data(d) if wl.name == "curve" else None
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    passes = []
    start = time.perf_counter()
    with speed.SpeedProbe() as probe:
        while True:
            if data is None:
                W.clear_outputs(d)
                result = W.cli_pass(wl, d, conf, args.seed, probe)
            else:
                with probe.interval() as iv:
                    result = W.curve_pass(data, args.seed)
                tally = speed.Tally()
                tally.add(iv)
                result.update(tally.figures())
            if data is None and tracer is None:
                result["sha256"] = W.artifact_hashes(d)
            passes.append(result)
            elapsed = time.perf_counter() - start
            if tracer is not None or elapsed >= args.seconds:
                break

    out = {"passes": passes, "peak_rss_mb": usage_rss_mb()}
    if tracer is not None:
        tracer.uninstall()
        cleaning = json.loads((d / "cleaning_report.json").read_text())
        out["layers"] = layer_metrics(tracer, cleaning["records"])
    Path(args.out).write_text(json.dumps(out), encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# Orchestration (setup, checks, result)
# ---------------------------------------------------------------------------

class SetupError(Exception):
    pass


def environment(jobs: int) -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    nproc = len(os.sched_getaffinity(0))
    return {**PINNED_ENV, "nproc": nproc, "jobs": jobs, "threads": jobs,
            "threads_within_nproc": jobs <= nproc,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit}


def setup(args, wl, work: Path, conf: Path, tracer) -> tuple:
    """Generate the world, and for curve its features and matrix.

    The setup is made `wl.setups` times in the same directory; setup_s is
    the median, scaled by the probe. Only the first is traced. Returns the
    run directory, setup_s, the generate slowdown of the traced setup and
    the stage calls made.
    """
    import workloads as W

    d = work / "run"
    scaled, slowdowns, calls = [], [], 0
    with speed.SpeedProbe() as probe:
        for i in range(wl.setups):
            with probe.interval() as iv:
                if tracer is not None and i == 0:
                    tracer.install()
                try:
                    code = W.run_stage("generate", d, conf, args.seed, wl.jobs)
                finally:
                    if tracer is not None:
                        tracer.uninstall()
                if code != 0:
                    raise SetupError(f"generate exited {code}")
                for stage in wl.setup_stages:
                    code = W.run_stage(stage, d, conf, args.seed, wl.jobs)
                    if code != 0:
                        raise SetupError(f"{stage} exited {code}")
                if wl.setup_stages:
                    W.load_curve_matrix(d, args.seed)
            calls += 1 + len(wl.setup_stages)
            scaled.append(iv.wall / iv.slowdown)
            slowdowns.append(iv.slowdown)
    print("setup " + " ".join(f"{x:.3f}" for x in scaled) + " s scaled, slowdown " +
          " ".join(f"{x:.3f}" for x in slowdowns))
    return d, statistics.median(scaled), slowdowns[0], calls


def run_section(args, work: Path, d: Path, traced: int, deadline: float) -> dict:
    out = work / f"section{traced}.json"
    log = work / f"section{traced}.log"
    # beside a traced pass, one untraced pass gives trace.overhead
    seconds = 0 if args.trace else args.seconds
    cmd = [sys.executable, str(HERE / "run.py"), "--section",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(traced),
           "--world", args.world, "--dir", str(d), "--out", str(out)]
    timeout = max(30.0, deadline - time.monotonic())
    with open(log, "w", encoding="utf-8") as fh:
        try:
            proc = subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            raise SetupError(f"timed section ran past {timeout:.0f} s")
    if proc.returncode != 0 or not out.exists():
        tail = log.read_text(encoding="utf-8").splitlines()[-20:]
        raise SetupError("timed section failed:\n" + "\n".join(tail))
    return json.loads(out.read_text(encoding="utf-8"))


def load_reference(world: str, workload: str) -> dict:
    path = HERE / "reference.json"
    if world != "town" or not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8")).get(workload, {})


def auc_bound() -> float:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return min(m["bound"] for m in spec["end_to_end"] if m["name"].startswith("auc."))


def compare_record(path: Path, record: dict) -> list:
    """Differences from an earlier run of the same seed; saves the first."""
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)
        return []
    old = json.loads(path.read_text(encoding="utf-8"))
    diffs = []
    for section_name in record:
        for key, value in record[section_name].items():
            if old.get(section_name, {}).get(key) != value:
                diffs.append((section_name, key))
    return diffs


def orchestrate(args) -> int:
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, work)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def section_failures(sections, producers) -> tuple:
    """Operations, failures and failed (pass, operation) keys of the sections."""
    attempted, failures, failed = 0, [], set()
    first_sha = sections[0]["passes"][0].get("sha256", {})
    for ci, sec in enumerate(sections):
        for pi, result in enumerate(sec["passes"]):
            attempted += len(result["ops"])
            for op, ok, msg in result["ops"]:
                if not ok:
                    failures.append((op, msg))
                    failed.add((ci, pi, op))
            for name, digest in result.get("sha256", {}).items():
                if first_sha.get(name) != digest:
                    failures.append((producers[name], f"{name} differs between passes"))
                    failed.add((ci, pi, producers[name]))
    return attempted, failures, failed


def output_checks(args, wl, d: Path, sections) -> tuple:
    """Checks on the run's artifacts; returns (failures, aucs, descriptors)."""
    import workloads as W

    checks = W.check_outputs(wl, d)
    aucs, desc = {}, {}
    try:
        aucs = W.report_aucs(d)
        desc = W.descriptors(d)
    except (OSError, ValueError, KeyError, W.fileio.DataError) as exc:
        checks.append(("report", f"cannot read the outputs: {exc}"))
    if wl.name == "curve":
        aucs = {k: v for k, v in aucs.items() if k == "auc.jaccard"}
        for kind, value in sections[0]["passes"][0].get("aucs", {}).items():
            aucs[f"auc.curve_{kind}"] = value
        if any(r.get("aucs") != sections[0]["passes"][0].get("aucs")
               for sec in sections for r in sec["passes"]):
            checks.append(("fit", "curve AUCs differ between passes"))
        _, y_pool, _, y_test = W.curve_data(d)
        desc.update(pool_rows=len(y_pool), test_rows=len(y_test))

    largest = max(W.CURVE_SIZES)
    auc_ops = {"auc.jaccard": "report", "auc.single_mean": "report",
               "auc.gbt_full": "evaluate gbt", "auc.rf_full": "evaluate rf",
               "auc.curve_gbt": f"fit gbt {largest} 0",
               "auc.curve_rf": f"fit rf {largest} 0"}
    reference = load_reference(args.world, wl.name)
    bound = auc_bound()
    for name, value in aucs.items():
        ref = reference.get("seeds", {}).get(str(args.seed), {}).get(
            name, reference.get("median", {}).get(name))
        if ref is not None and abs(value - ref) > bound * ref:
            checks.append((auc_ops[name], f"{name} {value:.4f}, reference {ref:.4f}"))

    record = {"sha256": {name: W.sha256(d / name) for name in W.PRODUCERS
                         if (d / name).exists()},
              "auc": aucs, "descriptors": desc}
    record_path = HERE / "_records" / f"{args.world}-{wl.name}-{args.seed}.json"
    for kind, key in compare_record(record_path, record):
        op = W.PRODUCERS[key] if kind == "sha256" else auc_ops.get(key, "report")
        checks.append((op, f"{kind} {key} differs from an earlier run of seed {args.seed}"))
    return checks, aucs, desc


def measure(args, work: Path) -> int:
    import workloads as W
    from tracing import Tracer

    deadline = time.monotonic() + 170.0
    wl = W.WORKLOADS[args.workload]
    print("env " + json.dumps(environment(wl.jobs), sort_keys=True))
    conf = W.write_config(work, args.world)
    setup_tracer = Tracer() if args.trace else None
    d, setup_s, setup_slowdown, setup_ops = setup(args, wl, work, conf, setup_tracer)

    sections = [run_section(args, work, d, t, deadline)
                for t in ((0, 1) if args.trace else (0,))]
    attempted, failures, failed = section_failures(sections, W.PRODUCERS)
    attempted += setup_ops
    checks, aucs, desc = output_checks(args, wl, d, sections)
    for op, _ in checks:
        failed.add(("checks", op))
    failures += checks
    print("descriptors " + json.dumps(desc, sort_keys=True))
    print("aucs " + json.dumps(aucs, sort_keys=True))
    for op, msg in failures:
        print(f"FAILED {op}: {msg}")

    untraced = sections[0]["passes"]
    if args.trace:
        traced = sections[1]["passes"][0]
        # self times at the reference speed, by the traced pass's slowdown
        metrics = {name: value / traced["slowdown"] if name.endswith("_s") else value
                   for name, value in sections[1]["layers"].items()}
        metrics["synthgen.generate_s"] = (
            setup_tracer.self_s["synthgen.generate"] / setup_slowdown)
        wifi = (d / "wifi.jsonl").read_text(encoding="utf-8")
        metrics["synthgen.scans"] = wifi.count("\n") - 1
        bt = (d / "bluetooth.jsonl").read_text(encoding="utf-8")
        metrics["synthgen.sightings"] = bt.count('"rssi"')
        metrics["trace.overhead"] = (
            traced["wall_scaled"] / untraced[0]["wall_scaled"] - 1.0)
        table = PER_LAYER
    else:
        model_aucs = {"prep": ["auc.single_mean"],
                      "quickstart": ["auc.gbt_full", "auc.rf_full"],
                      "curve": ["auc.curve_gbt", "auc.curve_rf"]}[wl.name]
        records = max(1, untraced[0].get("rows") or
                      desc.get("scans", 0) + desc.get("candidates", 0))
        wall_s = statistics.median(p["wall_scaled"] for p in untraced)
        metrics = {
            "wall_us_per_record": wall_s / records * 1e6,
            "cpu_us_per_record": statistics.median(
                p["cpu_scaled"] for p in untraced) / records * 1e6,
            "setup_s": setup_s,
            "peak_rss_kib_per_record": sections[0]["peak_rss_mb"] * 1024 / records,
            # a missing AUC has already failed its operation
            "auc.jaccard": aucs.get("auc.jaccard", 0.0),
            "auc.model": statistics.fmean(aucs.get(k, 0.0) for k in model_aucs),
        }
        table = END_TO_END
        print(f"records {records}, scaled wall {wall_s:.3f} s, peak rss "
              f"{sections[0]['peak_rss_mb']:.1f} MB")
        print(f"passes {len(untraced)}: wall " +
              " ".join(f"{p['wall']:.3f}" for p in untraced) + " s measured, " +
              " ".join(f"{p['wall_scaled']:.3f}" for p in untraced) + " s scaled")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failed), attempted),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _) in table.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wifi_proximity" / "cli.py").is_file():
        print("perfbench: the pipeline source src/wifi_proximity is missing; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)  # before numpy loads, here and in children
    sys.path.insert(0, str(SRC))
    if args.section:
        return section(args)
    names = ("prep", "quickstart", "curve") if args.workload == "all" else (args.workload,)
    return max(orchestrate(argparse.Namespace(**{**vars(args), "workload": name}))
               for name in names)


if __name__ == "__main__":
    sys.exit(main())

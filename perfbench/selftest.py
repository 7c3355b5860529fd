#!/usr/bin/env python3
"""Self-test of the benchmark harness on the test suite's tiny world.

    python3 perfbench/selftest.py

Runs every workload's shape on `WorldConfig(seed=7, n_users=24,
n_routers=80, days=2, n_buildings=2, n_venues=2, area_m=1200.0)`, untraced
and traced, and checks that:

- the result line has exactly `correct`, `attempted`, `failed` and
  `metrics`, with no failed operation;
- every metric BENCHMARK.json names is emitted with its unit, and its
  direction there matches the harness's own table;
- the traced runs show the bypasses the workloads are chosen for;
- without the pipeline source the harness exits non-zero and prints no
  result.

Exits 0 when every check holds.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the harness's metric tables)

TINY_SEED = 7


def harness(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


def check_result(workload: str, trace: int, spec: dict, errors: list) -> dict:
    proc = harness("--workload", workload, "--seed", str(TINY_SEED),
                   "--seconds", "1", "--trace", str(trace), "--world", "tiny")
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        errors.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return {}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: correct={result.get('correct')} "
                      f"failed={result.get('failed')}\n{proc.stdout[-1500:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted {result.get('attempted')}")
    kind, table = ("per_layer", run.PER_LAYER) if trace else ("end_to_end", run.END_TO_END)
    named = {m["name"]: m for m in spec[kind]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(named):
        errors.append(f"{where}: metrics {sorted(set(metrics) ^ set(named))} "
                      "emitted or named, not both")
    for name, entry in named.items():
        unit, better = table.get(name, (None, None))
        if entry["unit"] != unit or entry["better"] != better:
            errors.append(f"{where}: {name} is {entry['unit']}/{entry['better']} in "
                          f"BENCHMARK.json, {unit}/{better} in the harness")
        got = metrics.get(name, {})
        value = got.get("value")
        if got.get("unit") != entry["unit"]:
            errors.append(f"{where}: {name} emitted with unit {got.get('unit')}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} value {value!r}")
    return {name: m.get("value") for name, m in metrics.items()}


def check_bypasses(layers: dict, errors: list) -> None:
    expect = [
        ("prep", "trees.grow_calls", 0),
        ("prep", "ingest.records_per_scan", 3.0),
        ("curve", "ingest.parse_wifi_s", 0.0),
        ("curve", "ingest.parse_bt_s", 0.0),
        ("curve", "ingest.filter_s", 0.0),
        ("curve", "ingest.homes_s", 0.0),
        ("quickstart", "pairing.pool_threads", 2),
        ("quickstart", "trees.pool_threads", 2),
    ]
    for workload, name, value in expect:
        got = layers.get(workload, {}).get(name)
        if got != value:
            errors.append(f"{workload} traced: {name} is {got}, expected {value}")


def check_without_source(errors: list) -> None:
    bare = HERE / "_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = harness("--workload", "prep", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"without src/: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors: list[str] = []
    named = [w["name"] for w in spec["workloads"]]
    if named != ["prep", "quickstart"]:
        errors.append(f"BENCHMARK.json workloads {named}")
    layers = {}
    for workload in ("prep", "quickstart", "curve"):
        check_result(workload, 0, spec, errors)
        layers[workload] = check_result(workload, 1, spec, errors)
    check_bypasses(layers, errors)
    check_without_source(errors)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest: " + ("ok" if not errors else f"{len(errors)} failures"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

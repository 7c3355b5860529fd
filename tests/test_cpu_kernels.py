"""A run writes the same bytes whichever compute kernels its libraries pick
for the CPU.

numpy's wheels ship an OpenBLAS built with DYNAMIC_ARCH, which picks its
kernels, and with them the order in which a dot product adds, for the CPU
it finds at load time. ``OPENBLAS_CORETYPE`` makes one process take the
kernels of another CPU, so one machine can check what others would write.
numpy itself dispatches its loops to the widest SIMD level the CPU has;
``NPY_DISABLE_CPU_FEATURES`` takes them back to numpy's baseline.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wifi_proximity

from conftest import world_conf

# (name, environment) of each run; "native" takes what the libraries pick
KERNELS = (
    ("native", {}),
    ("OpenBLAS Haswell", {"OPENBLAS_CORETYPE": "Haswell"}),
    ("OpenBLAS Prescott", {"OPENBLAS_CORETYPE": "Prescott"}),
)

# every stage from generate to report, in one process, on the config file
# and directory given as arguments
RUN = """
import sys
from wifi_proximity.cli import main
conf, d = sys.argv[1:]
for argv in (["generate"], ["clean"], ["pair"], ["featurize"],
             ["train", "--model", "gbt"], ["evaluate", "--model", "gbt"],
             ["train", "--model", "rf"], ["evaluate", "--model", "rf"], ["report"]):
    assert main(argv + ["--config", conf, "--dir", d]) == 0, argv
"""


def dynamic_openblas() -> bool:
    """Whether numpy's BLAS is an OpenBLAS that picks its kernels at run time."""
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def run_stages(tmp_path, world, runs):
    """[(name, {file name: bytes})] of every stage run on world once per
    (name, environment) of runs, each in its own process."""
    conf = tmp_path / "world.conf"
    conf.write_text(world_conf(world))
    names = {name for _, env in runs for name in env}
    base = {k: v for k, v in os.environ.items() if k not in names}
    package_root = str(Path(wifi_proximity.__file__).resolve().parents[1])
    base["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [p for p in [base.get("PYTHONPATH")] if p])
    files = []
    for i, (name, env) in enumerate(runs):
        d = tmp_path / f"run{i}"
        proc = subprocess.run([sys.executable, "-c", RUN, str(conf), str(d)],
                              env={**base, **env}, capture_output=True, text=True,
                              timeout=600)
        assert proc.returncode == 0, (name, proc.stderr)
        files.append((name, {p.name: p.read_bytes() for p in d.iterdir()}))
    return files


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                    or not dynamic_openblas(),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels of a DYNAMIC_ARCH "
                           "OpenBLAS, and numpy's BLAS is not one on this machine")
def test_every_artifact_is_the_same_under_each_kernel(tmp_path, tiny_world):
    (_, native), *others = run_stages(tmp_path, tiny_world, KERNELS)
    assert len(native) == 16, sorted(native)
    for kernel, files in others:
        assert sorted(files) == sorted(native), kernel
        differ = [name for name in sorted(native) if files[name] != native[name]]
        assert differ == [], f"{kernel} writes other bytes than native to {differ}"


# the files a GBT model feeds: GBT's logistic calls np.exp, whose SIMD
# loops round differently at each level, so these may differ between them
GBT_FED = ("eval_full_gbt.json", "model_full_gbt.json", "report.json")


def simd_features() -> list[str]:
    """The CPU features above numpy's baseline that its dispatched loops
    can take on this machine; none where it has no SIMD level above it."""
    introspect = pytest.importorskip("numpy.lib.introspect", reason="numpy < 2.0")
    levels = {level for loops in introspect.opt_func_info().values()
              for loop in loops.values() for level in loop["available"].split()}
    return sorted(level for level in levels if not level.startswith("baseline"))


def test_every_file_no_gbt_model_feeds_is_the_same_at_each_simd_level(tmp_path, tiny_world):
    disabled = " ".join(simd_features())
    runs = (("native", {}), ("baseline SIMD", {"NPY_DISABLE_CPU_FEATURES": disabled}))
    (_, native), (_, baseline) = run_stages(tmp_path, tiny_world, runs)
    assert len(native) == 16 and sorted(baseline) == sorted(native), sorted(baseline)
    differ = [name for name in sorted(native)
              if name not in GBT_FED and baseline[name] != native[name]]
    assert differ == [], f"without {disabled} numpy writes other bytes to {differ}"

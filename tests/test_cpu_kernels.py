"""A run writes the same bytes whichever compute kernels its libraries pick
for the CPU.

numpy's wheels ship an OpenBLAS built with DYNAMIC_ARCH, which picks its
kernels, and with them the order in which a dot product adds, for the CPU
it finds at load time. ``OPENBLAS_CORETYPE`` makes one process take the
kernels of another CPU, so one machine can check what others would write.
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


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                    or not dynamic_openblas(),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels of a DYNAMIC_ARCH "
                           "OpenBLAS, and numpy's BLAS is not one on this machine")
def test_every_artifact_is_the_same_under_each_kernel(tmp_path, tiny_world):
    conf = tmp_path / "world.conf"
    conf.write_text(world_conf(tiny_world))
    names = {name for _, env in KERNELS for name in env}
    base = {k: v for k, v in os.environ.items() if k not in names}
    package_root = str(Path(wifi_proximity.__file__).resolve().parents[1])
    base["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [p for p in [base.get("PYTHONPATH")] if p])
    runs = []
    for i, (kernel, env) in enumerate(KERNELS):
        d = tmp_path / f"run{i}"
        proc = subprocess.run([sys.executable, "-c", RUN, str(conf), str(d)],
                              env={**base, **env}, capture_output=True, text=True,
                              timeout=600)
        assert proc.returncode == 0, (kernel, proc.stderr)
        runs.append((kernel, {p.name: p.read_bytes() for p in d.iterdir()}))

    (_, native), others = runs[0], runs[1:]
    assert len(native) == 16, sorted(native)
    for kernel, files in others:
        assert sorted(files) == sorted(native), kernel
        differ = [name for name in sorted(native) if files[name] != native[name]]
        assert differ == [], f"{kernel} writes other bytes than native to {differ}"

"""Machine-speed probe: scales measured seconds to one reference speed.

On a shared host a vCPU's speed can change by a factor of 1.7 within
seconds, and each vCPU changes on its own. On a 2-vCPU VM one prep pass of
the 1-day town took between 13.4 and 22.2 s within three minutes, with
identical inputs. Medians over runs do not remove a shift that lasts
minutes, so the benchmark measures the speed along with the work.

While timed code runs, SIGALRM fires every PERIOD_S and runs a fixed
pure-Python loop in the main thread: READS reads at random places of a
WALK_MB array. The loop's thread CPU time is one sample. CPU time is used,
not wall time, so waiting for the GIL or for a core does not count; only
how fast the core executes does. Each sample stands for PERIOD_S of wall
time, in which the core did the work of PERIOD_S * REFERENCE_S / sample
seconds at the reference speed. So an interval's slowdown is the harmonic
mean of its samples divided by REFERENCE_S, and seconds divided by the
slowdown are seconds at the reference speed.

Of the loops tried (integer arithmetic, object allocation, touching fresh
pages, random reads), random reads tracked the pipeline's stages best. In
seven identical prep passes over three minutes on the same VM, measured
wall time ran from 18.5 to 23.7 s (coefficient of variation 7.4 %) and
scaled time from 15.8 to 17.0 s (2.2 %).

The loop runs only the interpreter and none of the pipeline's code, so a
change to the pipeline does not move it. The samples add about 2 % to the
timed code's time and WALK_MB to its peak RSS, on every commit alike.
"""
from __future__ import annotations

import random
import resource
import signal
import statistics
import time
from array import array

PERIOD_S = 0.025
READS = 2_000
WALK_MB = 16
# one loop's CPU time at the reference speed
REFERENCE_S = 0.0005


def _loop_seconds(walk: array, places: list) -> float:
    t0 = time.thread_time()
    x = 0.0
    for j in places:
        x += walk[j]
    return time.thread_time() - t0


def cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


class Interval:
    """Wall and CPU seconds of a block, and the probe's slowdown during it."""

    def __init__(self, probe: "SpeedProbe"):
        self.probe = probe
        self.wall = self.cpu = 0.0
        self.slowdown = 1.0

    def __enter__(self):
        self.first = len(self.probe.samples)
        self.c0, self.t0 = cpu_seconds(), time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.t0
        self.cpu = cpu_seconds() - self.c0
        samples = self.probe.samples[self.first:] or [self.probe.sample()]
        self.slowdown = statistics.harmonic_mean(samples) / REFERENCE_S
        return False


class Tally:
    """Sums of intervals, raw and scaled to the reference speed."""

    def __init__(self):
        self.wall = self.cpu = self.wall_scaled = self.cpu_scaled = 0.0

    def add(self, iv: Interval) -> None:
        self.wall += iv.wall
        self.cpu += iv.cpu
        self.wall_scaled += iv.wall / iv.slowdown
        self.cpu_scaled += iv.cpu / iv.slowdown

    def figures(self) -> dict:
        return {"wall": self.wall, "cpu": self.cpu, "wall_scaled": self.wall_scaled,
                "cpu_scaled": self.cpu_scaled,
                "slowdown": self.wall / self.wall_scaled if self.wall_scaled else 1.0}


class SpeedProbe:
    """Samples the loop every PERIOD_S while entered; main thread only."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None
        self._walk = array("d", [0.0]) * (WALK_MB << 17)
        rng = random.Random(0)
        self._places = [rng.randrange(len(self._walk)) for _ in range(READS)]

    def sample(self) -> float:
        return _loop_seconds(self._walk, self._places)

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(self.sample())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def interval(self) -> Interval:
        return Interval(self)

"""Machine-speed references for the end-to-end metrics.

On a 2-vCPU Linux VM (Intel Xeon) whose cores are shared with other
guests, CPU speed changes by up to a factor of two within tens of
seconds.  A fixed pure-Python kernel, timed before an op at most every
50 ms, measures that speed.  Every op time is scaled by
``REF_NOMINAL_S / (kernel time)``, so the reported times are the times
on a machine where the kernel takes ``REF_NOMINAL_S``.  Measured over 90 s, raw op times swung by 2x while the
scaled ones stayed within +-5%.  The raw figures are printed alongside.

The kernel uses no lcfn code, so a change to lcfn cannot move it.

An op that starts a process (a CLI launch, the fresh-interpreter import
of a set-up) follows the machine's speed at start-up and module loading,
which the in-process kernel tracks poorly.  On the same VM, over 80
launches of one CLI command, launch time correlated 0.45-0.56 with the
kernel and 0.75-0.88 with a reference launch that imports a few stdlib
modules.  :class:`LaunchRef` times such a launch before and after each op
and scales the op by their mean: that cut the launches' coefficient of
variation from 0.16 to 0.10, while scaling by the kernel had raised it
from 0.12 to 0.20 in a trace of 100 launches.
"""
from __future__ import annotations

import statistics
import subprocess
import sys
import time
from collections import deque

_clock = time.perf_counter

#: Kernel time the reported figures are scaled to.
REF_NOMINAL_S = 0.002
#: Least time between two kernel samples.
SAMPLE_EVERY_S = 0.05
#: What a reference launch runs: interpreter start-up plus stdlib imports.
LAUNCH_CODE = "import json, fractions, decimal, argparse, email.parser, xml.dom.minidom"
#: Reference-launch time the launch-scaled figures are scaled to.
LAUNCH_NOMINAL_S = 0.1


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x, self.y = x, y


def kernel() -> float:
    """Allocation, attribute access, float arithmetic and string work, the
    mix lcfn's pure-Python code does; about 2 ms."""
    acc = 0.0
    keep = []
    for i in range(3000):
        p = _Point(i * 0.5, i * 1.5)
        keep.append((p, str(i)))
        acc += p.x * p.y - p.x
    return acc


class SpeedRef:
    def __init__(self):
        self.recent: deque = deque(maxlen=3)
        self.samples: list = []
        self._last = float("-inf")

    def sample(self) -> None:
        """Fastest of three kernel runs: an interruption or a cold cache
        only ever slows one down."""
        times = []
        for _ in range(3):
            t0 = _clock()
            kernel()
            times.append(_clock() - t0)
        dt = min(times)
        self.recent.append(dt)
        self.samples.append(dt)
        self._last = _clock()

    def scale(self) -> float:
        """Factor turning a raw time into a reference-speed time, from the
        median of the latest samples; samples first if one is due."""
        if _clock() - self._last >= SAMPLE_EVERY_S:
            self.sample()
        return REF_NOMINAL_S / statistics.median(self.recent)


class LaunchRef:
    """Times one reference interpreter launch per :meth:`sample`."""

    def __init__(self, env: dict, cwd: str):
        self.argv = [sys.executable, "-c", LAUNCH_CODE]
        self.env, self.cwd = env, cwd
        self.samples: list = []

    def sample(self) -> float:
        t0 = _clock()
        subprocess.run(self.argv, env=self.env, cwd=self.cwd, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        dt = _clock() - t0
        self.samples.append(dt)
        return dt

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor for an op timed between two samples."""
        return LAUNCH_NOMINAL_S / ((before + after) / 2)

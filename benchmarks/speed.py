"""How fast the CPU an op runs on is, while the op runs.

On a shared virtual machine a vCPU runs at its full speed only part of the
time: for stretches of several seconds, load elsewhere on the host slows
it by up to 1.5x, and the two vCPUs slow independently of each other.  An
op's wall time then says as much about the host as about the program.

The benchmark pins each CLI process to one CPU (an op that asks for
threads gets all of them), pins itself to the same CPU, and every
PERIOD_S while the process runs times three small fixed numpy kernels
there: a ufunc on a 64 KiB array, the same on a 1 MiB one, and a small
matrix product.  Together they take about a millisecond at full speed, so
the probe costs the op 2 to 3% of its CPU.  These three slow down with the
host's load about as much as the CLI's ops do; a pure-Python loop and a
memory-bound sum were tried too and slowed about half as much in log
terms, so they under-corrected.

A sample's speed is the mean, over the kernels, of REFERENCE_S over the
time sampled.  An op's speed is the mean over its samples, and its time
at reference speed is its wall time multiplied by its speed.  The
reference is fixed, not the fastest sample of the run, because a run can
spend all its time in a slow phase.  On other hardware every normalised
time is scaled by about the same factor, so parent and change stay
comparable when measured on one machine.
"""

from __future__ import annotations

import os
import time

import numpy as np

#: seconds between two samples while an op runs
PERIOD_S = 0.1
#: each kernel is timed this many times per sample and the fastest counts,
#: so a sample that the op's process preempts does not read slow
REPEATS = 2
KERNELS = ("ufunc_64k", "ufunc_1m", "matmul")
#: the kernels' fastest times on the machine the benchmark was tuned on, a
#: shared 2-vCPU Intel Xeon (Sapphire Rapids) KVM guest with numpy 2.4;
#: its median sample there reads a speed between 0.55 and 0.8
REFERENCE_S = np.array([1.0e-4, 7.5e-4, 5.0e-5])


class Probe:
    def __init__(self):
        self._small = np.linspace(0.0, 1.0, 1 << 13)  # 64 KiB
        self._large = np.linspace(0.0, 1.0, 1 << 17)  # 1 MiB
        self._mat = np.ones((48, 48))

    def _kernels(self):
        out = []
        t = time.perf_counter()
        for _ in range(2):
            np.sin(self._small)
        out.append(time.perf_counter() - t)
        t = time.perf_counter()
        np.sin(self._large)
        out.append(time.perf_counter() - t)
        t = time.perf_counter()
        for _ in range(10):
            self._mat @ self._mat
        out.append(time.perf_counter() - t)
        return out

    def sample(self, cpus):
        """Kernel times on each CPU in `cpus`, one row per CPU.  Leaves this
        process pinned to `cpus`."""
        rows = []
        for cpu in sorted(cpus):
            if len(cpus) > 1:
                os.sched_setaffinity(0, {cpu})
            times = np.array(self._kernels())
            for _ in range(REPEATS - 1):
                times = np.minimum(times, self._kernels())
            rows.append(times.tolist())
        if len(cpus) > 1:
            os.sched_setaffinity(0, cpus)
        return rows

    def quietest(self, cpus):
        """The CPU in `cpus` that runs the kernels fastest right now, and its
        sample row."""
        rows = self.sample(cpus)
        best = max(range(len(rows)), key=lambda i: speed(rows[i:i + 1]))
        return sorted(cpus)[best], rows[best]


def speed(rows):
    """Mean speed, as a share of the reference speed, over sample rows."""
    return float(np.mean(REFERENCE_S / np.array(rows)))

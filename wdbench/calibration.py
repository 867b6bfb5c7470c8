"""Host-speed reference for the timing metrics.

The benchmark runs on shared virtual machines whose speed drifts: the same
requests ran up to 1.8x slower for periods of ten minutes and more, with the
process on CPU the whole time.  No run length averages that away.  So every
run also times a fixed reference kernel, interleaved with the requests, and
scales each timing to the speed the kernel had on the reference host:

    reported = measured * REFERENCE_KERNEL_S / kernel time measured nearby

The kernel is the benchmark's own code and calls nothing in ``weakdetect``,
so a change to the program moves the reported figures in full; only a change
of the host's speed is divided out.  It mixes the three kinds of work the
workloads do: interpreter-bound parsing and JSON, small dense linear algebra
with random draws, and FFTs of the pointer grid sizes.
"""

from __future__ import annotations

import argparse
import bisect
import json
import statistics
import time

import numpy as np

# Median kernel time on the reference host (2-vCPU Xeon virtual machine,
# Python 3.11, numpy 2.4, OpenBLAS 0.3.31, one BLAS thread), measured
# between requests as in a run.
REFERENCE_KERNEL_S = 2.5e-3

SAMPLE_EVERY_S = 0.1  # a sample is taken before the first request after this
KERNELS_PER_SAMPLE = 3
WINDOW_S = 0.25  # a request is scaled by the samples within this of its span

_RNG = np.random.default_rng(20180824)
_SMALL = [(lambda g: g @ g.conj().T)(_RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4)))
          for _ in range(4)]
_WAVE = _RNG.standard_normal(16384) + 1j * _RNG.standard_normal(16384)
_DOC = {"matrix": [[[float(v.real), float(v.imag)] for v in row] for row in _SMALL[0]]}


def kernel() -> complex:
    """One fixed unit of mixed work, about 2.5 ms on the reference host."""
    parser = argparse.ArgumentParser(prog="reference")
    commands = parser.add_subparsers(dest="command")
    for name in ("a", "b", "c", "d", "e", "f"):
        command = commands.add_parser(name)
        command.add_argument("--input")
        command.add_argument("--seed", type=int, default=0)
    parser.parse_args(["c", "--input", "state.json", "--seed", "3"])
    for _ in range(4):
        json.loads(json.dumps(_DOC))
    acc = 0j
    rng = np.random.default_rng(7)
    for m in _SMALL:
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        acc += np.abs(np.linalg.eigvalsh((g + g.conj().T) / 2)).sum()
        k = np.kron(m, m)
        acc += np.trace(k @ k) + np.linalg.det(m)
    acc += np.fft.ifft(np.fft.fft(_WAVE))[0]
    return acc


class Speedometer:
    """Kernel samples taken through a run, and the speed they imply."""

    def __init__(self):
        self.times: list[float] = []  # perf_counter seconds, one per sample
        self.kernel_s: list[float] = []  # median kernel time of each sample
        self._last = -float("inf")

    def sample(self, now: float, force: bool = False) -> None:
        """Time the kernel if SAMPLE_EVERY_S has passed since the last sample."""
        if not force and now - self._last < SAMPLE_EVERY_S:
            return
        clock = time.perf_counter
        runs = []
        for _ in range(KERNELS_PER_SAMPLE):
            t0 = clock()
            kernel()
            runs.append(clock() - t0)
        self._last = clock()
        self.times.append(now)
        self.kernel_s.append(statistics.median(runs))

    def slowdown(self, start: float, end: float) -> float:
        """Host slowdown against the reference host over the perf_counter
        interval [start, end]: the median kernel time of the samples within
        WINDOW_S of it (the nearest two if there are none) over
        REFERENCE_KERNEL_S.  The window is short because the host's speed
        also changes from second to second."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:
            lo, hi = max(0, lo - 1), min(len(self.times), lo + 1)
        return statistics.median(self.kernel_s[lo:hi]) / REFERENCE_KERNEL_S

    def overall(self) -> float:
        return statistics.median(self.kernel_s) / REFERENCE_KERNEL_S

"""Host speed, read from a fixed reference kernel around and during each
report.

The benchmark host is a shared VM: for seconds at a time the same report
can run up to twice as slowly as at other times, in CPU time as much as
in wall time.  Runs land in slow and fast stretches alike, so medians over
a run cannot remove it.  The reference kernel below is numpy and Python
only, no gradiform code: small-array numpy calls in a Python loop, the
instruction mix of gradiform's hot paths.  Its time slows with the host
in step with the reports around it, so a report's time scaled by the
mean of ``REFERENCE_S / kernel time`` over the readings taken before,
during and after it reads in seconds at one fixed host speed: the speed
at which the kernel takes ``REFERENCE_S``.  A change to gradiform leaves
the kernel untouched, so it shows in full in the scaled time.

The host also takes the VM's CPUs away now and then (steal time, about a
tenth of the time here): a report's wall time then grows while its CPU
time does not.  ``steal_s`` and ``unstolen`` take that out of a wall time.
The kernel is timed in thread CPU time, so steal does not reach it.
"""
from __future__ import annotations

import gc
import os
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# the kernel's time at the reference host speed; about its time on an
# uncontended 2.1 GHz Xeon core (see README.md, "Host speed")
REFERENCE_S = 1.0e-3
KERNEL_STEPS = 300
KERNEL_REPEATS = 3
# 1 to 2% of a report's time goes to the readings taken during it
SAMPLE_PERIOD_S = 0.1

_A = np.eye(3) * 0.5 + 0.1


def _kernel():
    x = np.arange(3.0)
    s = 0.0
    for i in range(KERNEL_STEPS):
        y = _A @ x + 0.001 * i
        s += float(y.sum())
        x = np.sin(y)
    return s


def kernel_s(repeats=KERNEL_REPEATS):
    """Median time of the reference kernel over ``repeats`` runs, with
    the garbage collector held off so that the program's heap does not
    charge its collections to the kernel.  Timed in this thread's CPU
    time, so neither steal nor other threads reach it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            t0 = time.thread_time()
            _kernel()
            times.append(time.thread_time() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def steal_s():
    """Seconds the host has taken from this VM's CPUs: the steal column
    of /proc/stat, summed over CPUs; 0 where it is not available."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def unstolen(wall, cpu, steal):
    """``wall`` less the steal the process can have suffered: no more than
    ``steal`` (read over the same interval) and no more than the time it
    was off the CPU (``wall - cpu``), which for this single-threaded,
    CPU-bound program is steal and little else."""
    return wall - min(steal, max(0.0, wall - cpu))


class HostSpeed:
    """Kernel readings around and during timed work.

    A reading is taken before the first block and after each block.
    While a block runs, a SIGALRM handler reads the kernel once every
    SAMPLE_PERIOD_S; Python runs the handler between bytecodes of the
    main thread, and ``spent`` and ``spent_cpu`` keep the wall and CPU
    time the readings took, so the caller can take them out of the
    block's times."""

    def __init__(self):
        kernel_s()  # warm-up
        self.last = kernel_s()
        self.speeds = []
        self.spent = self.spent_cpu = 0.0

    def _sample(self, signum, frame):
        t0, c0 = time.perf_counter(), time.process_time()
        k = kernel_s(1)
        self.spent += time.perf_counter() - t0
        self.spent_cpu += time.process_time() - c0
        self.speeds.append(REFERENCE_S / k)

    @contextmanager
    def sampling(self):
        self.speeds = [REFERENCE_S / self.last]
        self.spent = self.spent_cpu = 0.0
        old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def factor(self):
        """Reads the kernel after the last block; returns the factor that
        takes the block's time to the reference host speed: the mean of
        ``REFERENCE_S / kernel time`` over the readings before, during
        and after the block."""
        self.last = kernel_s()
        self.speeds.append(REFERENCE_S / self.last)
        return statistics.fmean(self.speeds)

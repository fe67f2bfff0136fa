"""Machine-speed reference for scaling wall times.

The hosts this benchmark runs on are shared, and their speed for the same
interpreter-bound work changes by up to about 2x within seconds.  Raw wall
times of identical work therefore spread far beyond any useful regression
bound.  A fixed reference kernel, made of the same kind of work as tfim
(dict and tuple handling, numpy updates of a small spin array), is timed
``KERNEL_SAMPLES`` times before and after every measurement and, through
``KernelTimer``, every ``SAMPLE_EVERY_S`` wall seconds during it.  Each wall
time, less the kernel runs inside it, is scaled by ``REFERENCE_S`` over the
mean of those kernel times without the slowest eighth (``trimmed_mean``):
the result is the time the measurement would have taken on a machine where
the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# The kernel's time on this benchmark's reference host at its faster speed
# (x86_64 at 2.0 GHz nominal, Python 3.11, numpy 2.4).
REFERENCE_S = 0.025
KERNEL_SAMPLES = 2      # kernel runs between two measurements
SAMPLE_EVERY_S = 0.4    # wall seconds between kernel runs during one


def reference_kernel() -> float:
    """Wall seconds of one fixed unit of tfim-like work: a third dict and
    tuple handling, two thirds Metropolis-style updates of a 13 x 120 spin
    array.  That mix tracked the speed of all four workloads best among the
    candidates tried on the shared two-core hosts."""
    start = perf_counter()
    table = {}
    for i in range(30000):
        key = (i % 101, i % 7)
        table[key] = table.get(key, 0) + 1
    rng = np.random.Generator(np.random.Philox(key=np.uint64(2014)))
    spins = np.ones((13, 120), dtype=np.int8)
    for _ in range(380):
        field = np.roll(spins, 1, axis=1) + np.roll(spins, -1, axis=1)
        flip = rng.random(size=spins.shape) < np.exp(-np.clip(0.3 * spins * field, 0, 700))
        spins[flip] *= -1
    return perf_counter() - start


def kernel_times() -> list:
    """``KERNEL_SAMPLES`` consecutive reference kernel times."""
    return [reference_kernel() for _ in range(KERNEL_SAMPLES)]


class KernelTimer:
    """While entered, runs the reference kernel every ``SAMPLE_EVERY_S`` wall
    seconds from a SIGALRM handler, so that a measurement of several seconds
    is matched against the host's speed over its whole length, not only at
    its ends.  ``times`` are the kernel times and ``spent`` the wall time the
    handler took, to be taken out of the measurement.  An inactive timer does
    nothing (traced iterations, whose spans must not contain kernel runs)."""

    def __init__(self, active: bool = True):
        self.active = active
        self.times = []
        self.spent = 0.0
        self._previous = None
        self._running = False

    def _run(self, signum, frame) -> None:
        if self._running:   # a tick during a stalled kernel run is dropped
            return
        self._running = True
        start = perf_counter()
        self.times.append(reference_kernel())
        self.spent += perf_counter() - start
        self._running = False

    def __enter__(self) -> "KernelTimer":
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._run)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)


def trimmed_mean(values: list) -> float:
    """Mean of ``values`` without the largest eighth of them, and at least
    without the largest one (there are always ``2 * KERNEL_SAMPLES`` or
    more).  The host switches between a fast and a slow state every few
    seconds, and the plain mean of the kernel times follows the share of
    each state during a measurement best: over twenty
    ``critical-point`` iterations the scaled times spread 5% with it, 8% with
    the interquartile mean and 12% with the median.  Dropping the largest
    values keeps a momentary stall, which makes one kernel run take 2-4x its
    usual time, from rescaling a whole measurement."""
    ordered = sorted(values)
    drop = max(1, len(ordered) // 8)
    return statistics.fmean(ordered[:len(ordered) - drop])


def scaled(wall_s: float, kernels: list) -> float:
    """Wall time in reference seconds, from the kernel times around and
    during it."""
    return wall_s * REFERENCE_S / trimmed_mean(kernels)

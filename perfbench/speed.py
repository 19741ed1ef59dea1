"""The benchmark's clock and its machine-speed probe.

Times are process CPU seconds.  BLAS is pinned to one thread and the program
starts none, so CPU time is the program's busy time, and unlike wall time it
leaves out what the hypervisor of a shared virtual machine gives to other
guests.

CPU time alone is not steady on such a machine: the same ``forward`` call
took 0.35 s in one run and 0.54 s in another a minute later, because the
speed of the virtual CPU itself moves.  So every measured call is paired with
``SpeedProbe``, a fixed piece of numpy/scipy work timed right before and
right after it, and a measurement is reported as

    cpu_seconds * REFERENCE_PROBE_S / mean(probe before, probe after)

that is, in seconds at the speed at which the probe takes
``REFERENCE_PROBE_S``.  In a trial with an earlier probe of sparse products
alone, over eight runs of twelve ``forward`` calls each, the run-to-run
spread (interquartile range over median) was 0.23 for raw CPU time and 0.04
for the probe-scaled time.  The probe is the same for every
commit, so the scaling cancels when two commits are compared.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp

clock = time.process_time

# about the probe's median CPU time on the 2-vCPU machine the benchmark was built on
REFERENCE_PROBE_S = 0.035


class SpeedProbe:
    """Fixed mixed work, in about equal parts: sparse products, dense
    matrix products, and many small calls where the interpreter dominates."""

    def __init__(self):
        rng = np.random.Generator(np.random.PCG64(0))
        self.s = sp.random(20000, 20000, density=0.0005, random_state=rng, format="csr")
        self.y = rng.standard_normal((20000, 16))
        self.h = rng.standard_normal((16, 16)) / 4.0
        self.x = rng.standard_normal((4000, 64))
        self.w = rng.standard_normal((64, 64)) / 8.0
        self.small = rng.standard_normal(16)
        self.times = []

    def __call__(self) -> float:
        t0 = clock()
        z = self.y
        for _ in range(3):
            z = np.maximum(self.s @ (z @ self.h) * 0.01, 0.0)
        x = self.x
        for _ in range(8):
            x = np.tanh(x @ self.w)
        v = self.small
        for _ in range(5000):
            v = np.tanh(v + 0.1)
        dt = clock() - t0
        self.times.append(dt)
        return dt


def scaled(seconds: float, before: float, after: float) -> float:
    """CPU seconds at reference speed, from the probes on either side."""
    return seconds * REFERENCE_PROBE_S / (0.5 * (before + after))


def paired(probe: SpeedProbe, reps: int, fn, *args):
    """Call ``fn`` ``reps`` times, probing between calls.

    Returns the last result, the raw CPU seconds of each call and the median
    of their probe-scaled times.
    """
    probes = [probe()]
    raw = []
    out = None
    for _ in range(reps):
        t0 = clock()
        out = fn(*args)
        raw.append(clock() - t0)
        probes.append(probe())
    scaled_times = [scaled(t, a, b) for t, a, b in zip(raw, probes, probes[1:])]
    return out, raw, float(statistics.median(scaled_times))

"""A fixed reference kernel that gauges how fast the machine runs right now.

On a shared virtual machine the same code runs up to 1.7x slower for tens
of seconds at a time; a pure-Python loop and a qcw job slow down together,
and the guest sees no steal time.  The runner times this kernel in the gap
after each job, in the same interpreter, for a share of the time the job
took (at least once), and scales a job's wall time by ``NOMINAL_S / (the
kernel's median time in the gaps before and after it)``: the time the job
would take at the speed at which the kernel takes ``NOMINAL_S``.  Sampling
in proportion to job time keeps a long job's scale from resting on one or
two kernel calls.  The kernel uses no qcw code, so a change to the program
does not move it.  It mixes the three kinds of work qcw spends its time in:
interpreted Python, element-wise int64 numpy arithmetic, and float64 matrix
products (BLAS).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# about the kernel's median time, with one BLAS thread, on a 2-vCPU x86-64
# virtual machine with Python 3.11 and numpy 2 on OpenBLAS; only the scale of
# the scaled times depends on it
NOMINAL_S = 0.02
# kernel time in the gap after a job, as a share of the job's wall time
GAUGE_SHARE = 0.05


def kernel() -> int:
    s = 0
    for i in range(80_000):
        s += i * i % 7
    a = np.arange(20_000, dtype=np.int64)
    for _ in range(40):
        a = (a * 3 + s) % 1009
    m = (np.arange(150 * 400, dtype=np.float64).reshape(150, 400) + a[:400]) % 5
    for _ in range(2):
        m = (m[:, :150] @ m) % 5
    return int(m[0, 0]) + s


def reference_seconds() -> float:
    """Wall time of one kernel call."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def gauge(seconds: float) -> list[float]:
    """Kernel times: calls until ``seconds`` have gone by, at least one."""
    end = time.perf_counter() + seconds
    samples = [reference_seconds()]
    while time.perf_counter() < end:
        samples.append(reference_seconds())
    return samples


def factor(samples: list[float]) -> float:
    """The scale that turns wall times measured alongside ``samples`` into
    times at the nominal speed."""
    return NOMINAL_S / statistics.median(samples)


def job_factors(gaps: list[list[float]]) -> list[float]:
    """The scale of job i, from the kernel times of gaps i and i + 1."""
    return [factor(gaps[i] + gaps[i + 1]) for i in range(len(gaps) - 1)]

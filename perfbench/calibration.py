"""Machine-speed calibration for the benchmark's timings.

The speed of a shared virtual machine drifts by tens of percent within
minutes, in CPU time as much as in wall time, and every measured time drifts
with it.  ``calibrate`` times a fixed kernel of small numpy and Python work
that uses no seqeve code; the benchmark runs it next to each measurement and
reports the measurement multiplied by ``CAL_REF_S / kernel time``, i.e. in
seconds at the speed where the kernel takes ``CAL_REF_S`` (about the fastest
it ran on a 2-vCPU Xeon VM).
"""

from __future__ import annotations

import statistics
import time

import numpy

CAL_ITERATIONS = 1000
CAL_REF_S = 0.025

_PAULI_XZ = (
    numpy.array([[0, 1], [1, 0]], dtype=complex),
    numpy.diag([1.0, -1.0]).astype(complex),
)
_MIXED = numpy.eye(4, dtype=complex) / 4


def calibrate() -> float:
    """Seconds this machine takes for the fixed calibration kernel right now."""
    start = time.perf_counter()
    total = 0.0
    for i in range(CAL_ITERATIONS):
        op = numpy.kron(_PAULI_XZ[i & 1], _PAULI_XZ[1])
        total += float(numpy.trace(op @ _MIXED).real)
    return time.perf_counter() - start


def scale() -> float:
    """Factor that turns a time measured now into seconds at the reference speed."""
    return CAL_REF_S / calibrate()


def smoothed_scales(kernel_times: list[float]) -> list[float]:
    """Scale factors from a series of kernel times, one per measurement.

    A single kernel run jitters by about 15%, which would widen the tails of
    the scaled times; the median of the five kernel runs around each
    measurement still follows drift over a few seconds.
    """
    return [
        CAL_REF_S / statistics.median(kernel_times[max(0, i - 2) : i + 3])
        for i in range(len(kernel_times))
    ]

"""The machine's speed, from a fixed kernel run between the measured steps.

On a shared machine the same code runs up to a quarter faster or slower
for minutes at a time, as neighbours come and go. Medians within a run
cannot remove a slow stretch that lasts the whole run. So every timing
metric is scaled to a fixed reference speed: a round's raw time times
``REFERENCE_S`` over the median time the kernel took in that round. The
kernel shares no code with the package under test, so a change to the
package moves the scaled metrics as much as the raw ones.

The kernel mixes what the workloads spend their time on: Python object
work (tuples, dicts), interpreter arithmetic on floats, and small numpy
matrix products. Each part's time was checked against query and training
times over four minutes of a shared machine's slow and fast stretches;
all three rise and fall with them. A walk through a few megabytes of
memory was dropped: its time swung three times as widely as the
workload's and tracked it poorly.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# The kernel's typical per-round median inside benchmark runs on a 2-vCPU
# Intel Xeon VM (Python 3.11, numpy 2.4), where the benchmark was tuned.
# Any constant would do: it sets the scale, not the spread.
REFERENCE_S = 2.7e-3
SAMPLES = 3         # kernel runs after every step of a round

_MATRIX = np.arange(48 * 48, dtype=float).reshape(48, 48) / 2304.0


def kernel_seconds() -> float:
    """Time one run of the kernel, with the garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        acc = 0.0
        for i in range(1500):
            table[(i, i >> 1)] = (i * 0.5, i + 1)
        for key, value in table.items():
            acc += value[0] * 1.0001 + key[1]
        x = 0.0
        for i in range(20_000):
            x = x * 0.999 + i
        a = _MATRIX
        for _ in range(20):
            a = np.tanh(a @ a.T * 0.01 + 0.1)
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    return elapsed


def sample(out: list) -> None:
    """Append ``SAMPLES`` kernel times to ``out``.

    A first, untimed run brings the kernel's own data back into the
    caches, so that its time does not depend on how much memory the step
    before it touched.
    """
    kernel_seconds()
    out.extend(kernel_seconds() for _ in range(SAMPLES))


def to_reference(kernel_times) -> float:
    """Factor that takes times measured beside these kernel times to the
    reference speed."""
    return REFERENCE_S / statistics.median(kernel_times)

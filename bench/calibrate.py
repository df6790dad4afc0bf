"""Machine-speed correction for timings on a shared, noisy host.

On a small virtual machine the same solve can take 1.8 s or 2.7 s a few
seconds apart, because the host's load changes the speed of the vCPU.
That drift is common to all code running at the moment, so the benchmark
runs a fixed reference kernel between blocks of tasks and scales each
block's task times by ``REFERENCE_S / kernel time``, the kernel time being
the mean of the runs just before and after the block.  A scaled time is
the time the task would have taken on a machine where the kernel takes
``REFERENCE_S``; raw times are reported next to the scaled ones.

The kernel mixes what the program spends its time on: small complex
matrix products, SVDs and Python-level bookkeeping.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.005  # kernel time on the 2-vCPU Xeon host the bounds were set on
KERNEL_STEPS = 150
BLOCK_S = 0.25  # tasks between two kernel runs, in raw seconds

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4))
_B = _RNG.standard_normal((6, 4)) + 1j * _RNG.standard_normal((6, 4))


def kernel_seconds():
    start = time.perf_counter()
    acc = 0j
    table = {}
    for step in range(KERNEL_STEPS):
        m = _A @ _A.T + step * np.eye(4)
        acc += np.trace(m) + np.linalg.svd(_B @ m, compute_uv=False)[0]
        table[step % 7] = [acc.real, acc.imag]
    return time.perf_counter() - start


class SpeedScale:
    """Collects raw task times and scales them block by block."""

    def __init__(self):
        self.raw = []
        self.scaled = []
        self.kernel = []
        self._block = []
        self._before = None

    def add(self, seconds):
        if self._before is None:
            raise RuntimeError("SpeedScale.add before open")
        self._block.append(seconds)
        if sum(self._block) >= BLOCK_S:
            self.close()
            self.open()

    def open(self):
        self._before = kernel_seconds()

    def close(self):
        """End the current block; call after the last task of a pass."""
        after = kernel_seconds()
        self.kernel.append(after)
        factor = REFERENCE_S / (0.5 * (self._before + after))
        self.raw += self._block
        self.scaled += [t * factor for t in self._block]
        self._block = []
        self._before = None

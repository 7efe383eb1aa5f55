"""CPU-speed reference for timing on a shared host.

Where the cores are shared with other tenants, this process's CPU speed
changes by tens of percent within seconds, so the wall time of the same
work drifts between runs.  A short fixed reference kernel is timed in blocks
between the measured stages, and each stage time is scaled by
REFERENCE_S / (mean kernel call time around that stage): the stage's time
at the speed where one kernel call takes REFERENCE_S.  On an uncontended
2-vCPU Intel Xeon virtual machine the kernel takes about that long, so corrected
and raw times agree there.  Raw wall times are reported next to them.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 200e-6  # kernel call time that corrected times are scaled to
BLOCK_S = 0.05  # length of one reference block
EVERY_S = 0.2  # measured work between reference blocks

_X = np.linspace(0.0, 1.0, 4096)


def _kernel():
    # The library's own mix: float formatting (CSV I/O), interpreter loops,
    # and small numpy vector math (model evaluations).
    text = ",".join(f"{v:.17g}" for v in _X[:256])
    acc = 0.0
    for i in range(500):
        acc += i * 0.5
    y = np.sqrt(_X) * np.exp(-_X)
    return len(text) + acc + float(y.sum())


class SpeedProbe:
    """Reference blocks taken between stages, and the correction they give."""

    def __init__(self):
        self.blocks: list[float] = []
        self._since = float("inf")

    def block(self):
        """Time the kernel for BLOCK_S; keep the mean call time, which like
        the measured stages includes the short stalls within the block."""
        calls = 0
        t0 = time.perf_counter()
        while True:
            _kernel()
            calls += 1
            t1 = time.perf_counter()
            if t1 - t0 >= BLOCK_S:
                break
        self.blocks.append((t1 - t0) / calls)
        self._since = 0.0

    def timed(self, fn):
        """Run fn, taking a reference block first when EVERY_S of work has
        passed since the last one.  Returns (result, seconds, block index);
        the block after the stage is the next one taken."""
        if self._since >= EVERY_S:
            self.block()
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        self._since += seconds
        return result, seconds, len(self.blocks) - 1

    def finish(self):
        """Close the last stage with a reference block."""
        self.block()

    def corrected(self, seconds, before):
        """seconds scaled to the reference speed."""
        around = 0.5 * (self.blocks[before] + self.blocks[before + 1])
        return seconds * REFERENCE_S / around

    def share_slowed(self):
        """Share of reference blocks at least 20% slower than REFERENCE_S."""
        return sum(b > 1.2 * REFERENCE_S for b in self.blocks) / len(self.blocks)

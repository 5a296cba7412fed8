"""Machine-speed reference for the timed end-to-end metrics.

On a few cores of a shared host, the speed the machine gives one Python
thread drifts by a third or more over seconds to minutes, and a drift
that lasts a whole run moves its medians just as a change to odsk would.
So the run times a fixed kernel of the benchmark's own code after every
job, and reports each job time in reference seconds:

    reference time = raw time * REFERENCE_S / (mean kernel time around it)

"Around it" means over the PAD kernel samples before and after the one
taken right after the job. It is a mean, not a median, because a job's
time sums the speed it got over its whole run, slow spells included.
Set-up runs in fresh interpreters; each of them times the kernel itself
right after its set-up, and its set-up time is scaled by the median of
those samples.

The kernel is pure Python of the same kind odsk runs (parsing a .cxt,
closures and covers of a small concept lattice on int bitsets) and never
calls odsk, so a change to odsk moves the raw time and not the
reference. It runs with the collector off, so that the heap odsk leaves
does not slow it.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

import ref

REFERENCE_S = 2.5e-3  # the kernel's typical time on a 2-vCPU Intel Xeon sandbox
PAD = 32


def _kernel_context() -> ref.Context:
    rng = random.Random("speed-kernel")
    g, m = 14, 10
    rows = [sum(1 << j for j in range(m) if rng.random() < 0.5) for _ in range(g)]
    return ref.Context([f"g{i}" for i in range(g)], [f"m{j}" for j in range(m)], rows)


_TEXT = ref.cxt_text(_kernel_context())


def kernel() -> int:
    ctx = ref.parse_cxt(_TEXT)
    intents = ref.lectic_intents(ctx)
    extents = [ctx.extent(b) for b in intents]
    for ext, itt in zip(extents, intents):
        ref.need(ctx.intent(ext) == itt, "speed kernel: concept not closed")
    return len(ref.lattice_covers(extents))


_COVERS = kernel()


class Speed:
    """Kernel timings in the order taken."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> int:
        """Time the kernel once; returns the sample's index."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            n = kernel()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        ref.need(n == _COVERS, "speed kernel: wrong cover count")
        self.samples.append(t1 - t0)
        return len(self.samples) - 1

    def local(self, i: int) -> float:
        """Mean kernel time over the samples within PAD of sample i."""
        return statistics.fmean(self.samples[max(0, i - PAD):i + PAD + 1])

    def scale(self, raw: float, i: int) -> float:
        """``raw`` in reference seconds, at the speed around sample i."""
        return raw * REFERENCE_S / self.local(i)

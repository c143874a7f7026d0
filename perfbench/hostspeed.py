"""Host speed, measured by the CPU time of a fixed reference kernel.

On a shared virtual machine the CPU time of a fixed piece of work drifts
by a fifth or more within a minute (another guest on the same core, the
host's clock speed), and CPU time does not remove that.  A fixed
reference kernel slows down with it.  :class:`ReferenceClock` runs the
kernel every ``INTERVAL_S`` of process CPU time, from a profiling-timer
signal handled in the main thread, so its samples interleave with the
work wherever the work is; :meth:`ReferenceClock.scale` turns CPU time
into reference seconds.  Measured on a 2-CPU virtual machine, over 12 s
windows of a fixed DP workload, the quartile spread of CPU time was 0.22
and that of CPU time over the kernel's time beside it 0.013.  A sampler
in another process, on the other CPU, only halved the spread.

The closed loops use it: their work runs in the one thread the kernel
runs in.  The open loops do not: their work runs in worker threads and
shard processes, where no kernel can run beside it.  A kernel in the
generator thread measured its contention with the workers for the
interpreter lock, not the host, and one in a child process tracked the
serving CPU time of neither serving workload well enough to steady it
(ten serve-sharded runs while the host slowed spread 0.21 with it).
"""

from __future__ import annotations

import signal
import statistics
import time

#: Process CPU seconds between two kernel runs.
INTERVAL_S = 0.25

#: A reference second is the time the kernel takes to run
#: ``1 / NOMINAL_S`` times at the speed where one run takes this long;
#: on the 2-CPU virtual machine the benchmark was tuned on, one run took
#: 8-12 ms.
NOMINAL_S = 0.012


def _kernel() -> float:
    """Fixed pure-Python work of the kind the optimizers do: integer and
    float arithmetic, dict reads and writes."""
    table: dict[int, float] = {}
    total = 0.0
    for i in range(40_000):
        key = (i * 7919) & 511
        total += table.get(key, 1.0) * 0.5 + i % 13
        table[key] = total
    return total


class ReferenceClock:
    """Runs the reference kernel beside the measured work.

    Use as a context manager in the main thread.  ``spent_s`` is the CPU
    time the kernel has taken so far: a caller that times a region
    subtracts its growth.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def __enter__(self) -> "ReferenceClock":
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self.sample()

    def _on_timer(self, _signum, _frame) -> None:
        self.sample()

    def sample(self) -> None:
        start = time.thread_time()
        _kernel()
        used = time.thread_time() - start
        self.samples.append(used)
        self.spent_s += used

    def scale(self) -> float:
        """Reference seconds per CPU second over the samples so far."""
        return NOMINAL_S / statistics.fmean(self.samples)


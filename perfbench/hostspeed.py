"""Host speed, sampled during a timed section, to put wall times on one scale.

The shared 2-core VM this benchmark was built on runs the same code up to
40% slower for seconds to minutes at a time, with no steal time: the CPU
itself is slower (a busy hyperthread sibling or a lower clock).  A run's
median wall time follows that drift, so it cannot tell two commits apart.

While a ``HostClock`` is running, a SIGALRM every ``INTERVAL_S`` runs one
``burst``: a fixed loop of small numpy calls, the cost shape of the
program's n=2 kernels, timed with the main thread's CPU clock (so a wait
for the interpreter lock on threads2 is not counted).  ``scaled`` turns a
section's wall time, less the bursts inside it, into reference seconds:
the time it would have taken had every burst taken ``REFERENCE_BURST_S``.
The bursts never touch triple_stab and take about 1% of the wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
BURST_CALLS = 60
# CPU seconds of one burst on the 2-core Xeon VM (2.1 GHz) in its fast state;
# it sets only the scale of reference seconds
REFERENCE_BURST_S = 2.0e-4

_MATRIX = np.eye(2) * (1 + 1j)


def burst() -> tuple[float, float]:
    """Run the fixed reference work; return (wall seconds, CPU seconds)."""
    wall, cpu = time.perf_counter(), time.thread_time()
    for _ in range(BURST_CALLS):
        np.abs(_MATRIX @ _MATRIX).sum()
    return time.perf_counter() - wall, time.thread_time() - cpu


class HostClock:
    """Samples host speed by bursts on a timer, from the main thread."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _on_alarm(self, _signum, _frame) -> None:
        self.samples.append(burst())

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def scaled(self, wall_s: float, since: int) -> float:
        """Reference seconds of a section that took ``wall_s`` from ``mark()`` == since."""
        samples = self.samples[since:] or [burst()]
        busy_s = wall_s - sum(wall for wall, _cpu in self.samples[since:])
        return busy_s * scale(cpu for _wall, cpu in samples)


def scale(burst_cpu_s) -> float:
    """Mean speed of the host relative to the reference, over the given bursts."""
    return statistics.fmean(REFERENCE_BURST_S / cpu for cpu in burst_cpu_s)

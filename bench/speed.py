"""A probe of this host's speed, taken while the measured code runs.

The virtual CPUs this benchmark was tuned on change speed by up to a factor
of two, within seconds and for seconds to minutes at a time (README.md).
While a `Probe` is entered, a timer signal every INTERVAL_S runs a small
fixed kernel in the measured process and records how long it took.  The
time spent in the probe is taken off the measured time, and the rest is
scaled by `Probe.factor()`, the kernel's reference time over its mean
measured time: that gives the time the code would have taken on the
reference machine at its usual speed, in *reference seconds*.

The kernel is like a round of the program's engine, written apart from it:
small random draws, a 2x2 rotation applied to an 8-dimensional state, a
probability and Python bookkeeping.  The program never runs it, so a change
to the program leaves it alone.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

STEPS = 200
INTERVAL_S = 0.05
#: Seconds `kernel()` takes on the reference machine at its usual speed
#: (README.md); it only sets the scale of the reported times.
REFERENCE_S = 0.0033


def kernel() -> float:
    """Seconds one fixed piece of work takes on this host right now."""
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    state = np.full(8, 8**-0.5, dtype=complex)
    counts: dict[str, int] = {}
    for _ in range(STEPS):
        theta = rng.uniform(0.0, 2 * np.pi)
        rotation = np.array([[np.cos(theta), -1j * np.sin(theta)], [-1j * np.sin(theta), np.cos(theta)]])
        state = (rotation @ state.reshape(2, 4)).reshape(-1)
        p0 = float(np.vdot(state[:4], state[:4]).real)
        label = "X" if rng.random() < p0 else "Y"
        counts[label] = counts.get(label, 0) + 1
    return time.perf_counter() - start


class Probe:
    """While entered, samples the kernel's time every INTERVAL_S of wall time.

    Python runs the handler between bytecodes of the main thread, so a
    sample falls wherever the measured code is.  `sample()` takes one
    directly, between operations that cannot be probed from inside.
    """

    def __init__(self):
        self.samples: list[float] = []
        #: seconds spent in the handler, to be taken off the measured time
        self.spent = 0.0

    def sample(self):
        self.samples.append(kernel())

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.sample()
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def clock(self) -> float:
        """`time.perf_counter()` less the time spent in the probe so far."""
        return time.perf_counter() - self.spent

    def factor(self) -> float:
        """Reference seconds per measured second, over the samples taken."""
        if not self.samples:  # an operation shorter than INTERVAL_S
            self.sample()
        return REFERENCE_S / statistics.fmean(self.samples)

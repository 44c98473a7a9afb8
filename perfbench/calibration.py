"""Calibration of the benchmark's times against the machine's speed.

On the shared two-vCPU VM the benchmark was tuned on, the same solve ran
up to 1.8 times slower from one minute to the next with no steal time:
process time moved with wall time, and pinning to one vCPU did not help.
Short timings of a fixed kernel fell into two groups, about 1.6 times
apart, and switched between them every few seconds, so a few kernel
timings before and after a multi-second solve did not say how fast the
machine was during it.

:class:`Sampler` therefore runs a short fixed kernel (:class:`Slice`, a
mix of the work the solvers do that does not use the package) every
``INTERVAL`` seconds *during* the timed regions, from a SIGALRM handler,
and leaves the slices' own time out of the regions' wall time.  The mean
slice time then tracks how fast the machine was, on average, while the
workload ran, and the benchmark reports::

    seconds = wall seconds * REF_SECONDS / mean slice seconds

A set-up lasts milliseconds, too short for the periodic slices to say how
fast the machine was during it; each set-up is instead scaled by slices
run just before it and, where possible, just after it.

A change to the package moves only the wall seconds, so it shows in full;
a change of machine speed moves both and cancels.
"""

from __future__ import annotations

import signal
import time

INTERVAL = 0.25         # seconds between slices
# A slice's time on the machine the benchmark was tuned on, when that
# machine ran at its faster speed (two shared vCPUs of a Xeon VM, one
# BLAS thread).
REF_SECONDS = 0.01


class Slice:
    """About 10 ms of fixed work: an interpreter loop, small complex dense
    factorizations, a tall-skinny complex product and CSR products
    (scipy's, not the package's)."""

    def __init__(self):
        import numpy as np
        import scipy.sparse
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((40, 30)) + \
            1j * rng.standard_normal((40, 30))
        self.basis = np.linalg.qr(rng.standard_normal((2000, 20)) + 0j)[0]
        self.csr = scipy.sparse.diags(
            [-1.0, -1.2, 4.0, -0.8, -1.0], [-45, -1, 0, 1, 45],
            shape=(2000, 2000), format="csr", dtype=complex)
        self.vec = self.basis[:, :4].copy()

    def __call__(self):
        """Seconds one slice takes now."""
        import numpy as np
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i
        for _ in range(8):
            np.linalg.qr(self.small)
            np.linalg.lstsq(self.small, self.small[:, 0], rcond=None)
        w = self.vec
        for _ in range(6):
            w = self.csr @ w
            w = w - self.basis @ (self.basis.conj().T @ w)
            w = w / np.linalg.norm(w, axis=0)
        return time.perf_counter() - t0


class Sampler:
    """Runs a :class:`Slice` every ``INTERVAL`` seconds while entered.

    ``times`` keeps every slice's seconds; ``spent`` is the time the
    handler took in all, to be left out of the timed regions."""

    def __init__(self):
        self.slice = Slice()
        self.times = []
        self.spent = 0.0

    def _handler(self, _signum, _frame):
        t0 = time.perf_counter()
        self.times.append(self.slice())
        self.spent += time.perf_counter() - t0

    def clock(self):
        """Seconds, as time.perf_counter, less the time spent in slices."""
        return time.perf_counter() - self.spent

    def once(self):
        """One slice now, outside any timed region; returns its seconds."""
        self.times.append(self.slice())
        return self.times[-1]

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    @property
    def scale(self):
        """REF_SECONDS over the mean slice time."""
        return REF_SECONDS * len(self.times) / sum(self.times)

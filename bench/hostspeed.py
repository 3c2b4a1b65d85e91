"""How fast the host runs Python, sampled inside the measured process.

The benchmark host is a few cores of a shared machine.  Its speed moves in
steps (a fixed pure-Python loop takes either about 7 ms or about 12 ms,
switching within seconds) as other tenants load the cores, and CPU time
moves with wall time, so neither of them is a steady measure of the
program's work.  A 40 s run cannot average the steps out.

`SpeedSampler` runs a fixed pure-Python kernel from a SIGALRM handler every
`PERIOD_S` while the benchmark measures.  The kernel runs in the measured
thread, at the moments the program runs, so its mean duration over a span
says how slow the host was during that span.  `SpeedSampler.since(mark)`
returns the span's duration at nominal speed: the wall time minus the
sampler's own time, scaled by `NOMINAL_KERNEL_S` / the kernel's mean
duration within the span.  The kernel uses no flatcert code, so a change to
the program cannot move it.

Measured on the 2-core host of the baseline, per item, over 20-40 items
run back to back: the kernel's mean correlated with the item's work time at
0.84 (`flatness-gb`) and 0.92 (`xi-curves`), and scaling cut the items'
coefficient of variation from 7.6 % to 4.8 % and from 11.3 % to 4.8 %.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.025           # one kernel run per period; about 4 % of wall time
NOMINAL_KERNEL_S = 0.0011  # the kernel's typical duration, interrupting a run, on the baseline host

# Two fixed sparse polynomials in six variables (exponent tuple -> integer
# coefficient), multiplied as dicts: the same kind of work as flatcert's
# polynomial arithmetic, written here so that it never changes with it.
_LEFT = [((i % 3, i * 7 % 4, i * 5 % 3, i % 2, i * 3 % 5, 1), i * 37 % 19 - 9) for i in range(14)]
_RIGHT = [((i * 5 % 3, i % 4, i * 3 % 2, i * 11 % 3, i % 5, 0), i * 23 % 17 - 8) for i in range(14)]


def kernel() -> dict:
    product: dict = {}
    for _ in range(3):
        product = {}
        for m1, c1 in _LEFT:
            for m2, c2 in _RIGHT:
                m = tuple(a + b for a, b in zip(m1, m2))
                product[m] = product.get(m, 0) + c1 * c2
    return product


class SpeedSampler:
    """Samples the kernel's duration every PERIOD_S of wall time.

    Only one sampler can run in a process, in its main thread.
    """

    def __init__(self) -> None:
        self.kernel_s = 0.0  # total time spent in the kernel
        self.samples = 0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.kernel_s += time.perf_counter() - t0
        self.samples += 1

    def mark(self) -> tuple[float, int, float]:
        return self.kernel_s, self.samples, time.perf_counter()

    def since(self, mark: tuple[float, int, float]) -> tuple[float, float]:
        """(wall seconds, seconds at nominal speed) since `mark`.

        A span too short to hold a sample is scaled by the run's mean so far.
        """
        end = time.perf_counter()
        kernel_s, samples = self.kernel_s - mark[0], self.samples - mark[1]
        wall = end - mark[2]
        if samples == 0:
            if self.samples == 0:
                return wall, wall
            return wall, wall * NOMINAL_KERNEL_S / (self.kernel_s / self.samples)
        return wall, (wall - kernel_s) * NOMINAL_KERNEL_S / (kernel_s / samples)

    def speed(self) -> float:
        """Mean host speed so far, as NOMINAL_KERNEL_S / mean kernel duration."""
        return NOMINAL_KERNEL_S * self.samples / self.kernel_s if self.samples else float("nan")

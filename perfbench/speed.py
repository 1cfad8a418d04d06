"""Samples the machine's speed while the drivers run.

The shared 2-vCPU machine this benchmark was written on changes its
throughput by up to 1.6x over seconds to minutes, whatever runs on it, so
raw wall times of identical runs a few minutes apart spread by 20-30%.
While started, a ``Sampler`` interrupts the program every ``PERIOD_S`` of
wall time (a SIGALRM timer; the handler runs between bytecodes of the main
thread) and times one fixed kernel.  The kernel does not use the package,
so only the machine's speed moves its time; the mean kernel time during a
driver call estimates how fast the machine was during that call.
``clock`` excludes the time spent in the handler, so a driver call timed
with it does not pay for the samples.

Kernel time and driver-call time correlate at 0.93-0.98 across calls
(ten of each driver call over eight minutes), and dividing by it cut the
calls' coefficient of variation three- to four-fold.
"""

import signal
import time

import numpy

PERIOD_S = 0.5
# median kernel time on the machine the benchmark was written on (2-vCPU
# Xeon VM, OpenBLAS with one thread); wall_ref_s is wall time at that speed
REF_KERNEL_S = 0.017

# the kinds of work the drivers mix: dense products, FFTs along short rows,
# elementwise passes, many small array calls and interpreted arithmetic
_MATRIX = numpy.linspace(0.0, 1.0, 96 * 96).reshape(96, 96)
_ROWS = numpy.linspace(0.0, 1.0, 9 * 384).reshape(9, 384)
_LINE = numpy.linspace(0.0, 1.0, 60_000)


def kernel() -> None:
    a = _MATRIX
    for _ in range(30):
        a = a @ _MATRIX
        a /= numpy.abs(a).max()
    rows = _ROWS
    for _ in range(60):
        rows = numpy.fft.irfft(numpy.fft.rfft(rows, axis=1), n=384, axis=1)
    y = _LINE
    for _ in range(15):
        y = numpy.exp(-_LINE * y) + 0.5 * y
    small = numpy.ones(8)
    for _ in range(4000):
        small = numpy.add(small, 1e-9)
    total = 0
    for i in range(20_000):
        total += i * i % 7


class Sampler:
    def __init__(self):
        self.samples: list[float] = []  # kernel seconds, in the order taken
        self.spent = 0.0  # seconds inside the handler
        self._previous = None

    def _handler(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)
        self.spent += time.perf_counter() - start

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

"""Host-speed probe: scale measured times to a fixed reference speed.

On a shared host the speed of plain Python code drifts by up to 2x within
minutes, and CPU time drifts with wall time, so neither is steady enough to
compare two commits; at times the host also stops running this process for
a tenth of the wall time.  The probe runs a fixed pure-Python kernel, which
never touches ``qng``, every ``PERIOD`` seconds of a timed repetition (from
a SIGALRM handler, so it also samples inside long package calls).  Each
stretch of work between two probes is scaled by ``REF_KERNEL_S`` over the
kernel's time measured next to it.  A result therefore reads in seconds at
the speed the reference host had when ``REF_KERNEL_S`` was taken.  The
probes' own time is not part of the work.

On a 2-core host, over 40 repetitions of proof-sweep in 200 s, the quartile
spread of raw wall time was 0.12 of the median and that of the scaled time
0.02; over 16 repetitions of stream-n9 (``all_cores``) in 300 s, 0.14 and
0.06.  The scaling only follows the host: a change to ``qng`` moves the work
between probes, never the kernel.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.1  # seconds of wall time between probes
REF_KERNEL_S = 0.008  # kernel seconds on the reference host
WINDOW = 2  # an interval's speed is the median of the probes within this many of its ends


def kernel() -> int:
    """A fixed mix of Fraction arithmetic, dict updates and bit operations."""
    acc = Fraction(0)
    table: dict[int, int] = {}
    for i in range(1, 1500):
        acc += Fraction(i, i + 3)
        key = i * 2654435761 & 0xFFFF
        table[key] = table.get(key, 0) + key.bit_count()
    return len(sorted(table.items())) + acc.denominator % 7


def probe(cpu: int | None = None) -> tuple[float, float]:
    """CPU and wall seconds of one kernel run, on ``cpu`` if given, else where the caller runs."""
    if cpu is not None:
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
    try:
        t0, c0 = time.perf_counter(), time.thread_time()
        kernel()
        return time.thread_time() - c0, time.perf_counter() - t0
    finally:
        if cpu is not None:
            os.sched_setaffinity(0, mask)


class Probe:
    """Probes a timed repetition: ``start()``, the work, then ``stop()``.

    Wall time is scaled by the kernel's wall time, which also counts the time
    the host does not run this process; CPU time by the kernel's CPU time.

    Each core of a shared host changes speed on its own, within a second.  Work
    that stays in this thread runs on the core the probe runs on.  Work spread
    over worker processes (``all_cores``) runs at the cores' combined speed:
    each probe then runs the kernel on the next core in turn, pinned there
    for the kernel's run only, and records the harmonic mean of every core's
    latest kernel CPU time for both scalings (the kernel's wall time there
    would count the time it shares the core with a worker).
    """

    def __init__(self, all_cores: bool = False) -> None:
        self.work: list[float] = []  # wall seconds of work between consecutive probes
        self.kernel_cpu: list[float] = []  # kernel CPU seconds of each probe
        self.kernel_wall: list[float] = []  # kernel wall seconds of each probe
        self.overhead_cpu = 0.0  # kernel CPU seconds, to take out of the work's CPU time
        self._cpus = sorted(os.sched_getaffinity(0)) if all_cores else []
        self._latest: dict[int, float] = {}
        self._last = 0.0
        self._busy = False

    def _measure(self) -> tuple[float, float, float]:
        """Kernel CPU seconds spent, and the CPU and wall kernel times to record."""
        if not self._cpus:
            cpu, wall = probe()
            return cpu, cpu, wall
        core = self._cpus[len(self.kernel_cpu) % len(self._cpus)]
        self._latest[core], _ = probe(core)
        mean = len(self._latest) / sum(1 / v for v in self._latest.values())
        return self._latest[core], mean, mean

    def _sample(self, *_args) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.work.append(t0 - self._last)
        spent, cpu, wall = self._measure()
        self.kernel_cpu.append(cpu)
        self.kernel_wall.append(wall)
        t1 = time.perf_counter()
        self.overhead_cpu += spent
        self._last = t1
        self._busy = False

    def start(self, since: float | None = None) -> None:
        """Begin probing; work counts from ``since`` (a perf_counter time) if given."""
        self.work, self.kernel_cpu, self.kernel_wall = [], [], []
        self.overhead_cpu = 0.0
        self._latest = {cpu: probe(cpu)[0] for cpu in self._cpus}
        signal.signal(signal.SIGALRM, self._sample)
        # Restart interrupted system calls, so a probe cannot fail a read or a
        # dlopen in the work it samples.
        signal.siginterrupt(signal.SIGALRM, False)
        self._last = time.perf_counter() if since is None else since
        self._sample()
        if since is None:
            self.work.pop(0)  # nothing ran before the first probe
            self.overhead_cpu = 0.0  # nor is it in the caller's timing
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        """Stop probing, with a last probe; a second call does nothing."""
        if signal.getsignal(signal.SIGALRM) != self._sample:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self._sample()

    def raw_wall(self) -> float:
        return sum(self.work)

    def scaled_wall(self) -> float:
        """Work seconds, each interval scaled by the kernel wall times around it."""
        return self._scaled(self.kernel_wall)

    def cpu_factor(self) -> float:
        """The factor that scales the work's CPU time, from the kernel CPU times."""
        return self._scaled(self.kernel_cpu) / self.raw_wall()

    def _scaled(self, kernel: list[float]) -> float:
        total = 0.0
        # work[j] ran before probe j + lead: between probes j and j + 1, or,
        # when counted from ``since``, before probe j.
        lead = len(kernel) - len(self.work)
        for j, w in enumerate(self.work):
            end = j + lead
            near = kernel[max(0, end - WINDOW):end + WINDOW]
            total += w * REF_KERNEL_S / statistics.median(near)
        return total

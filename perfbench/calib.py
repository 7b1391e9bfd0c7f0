"""Calibration kernel: turns raw host walls into calibrated seconds.

On the small shared machines this benchmark runs on, each CPU turns 1.7x
to 2x slower by turns, in bursts of 50-500 ms that do not coincide
between CPUs (a neighbour's load on the same core), so raw walls of the
same operation differ by ±15% between runs, and by up to 40% when the
neighbours are busy.  A kernel timed only before and after a long
operation samples one instant of that; it has to be sampled throughout.

:class:`Probe` therefore runs a short fixed pure-Python kernel on a
signal every 10 ms of CPU time while an operation runs (the kernel runs
twice per tick: once to reload the caches the program evicted, once
timed).  An operation's *program seconds* are its wall minus the probe
time spent inside it; its *calibrated seconds* are program seconds times
``(KERNEL_REF_S / mean timed kernel) ** ALPHA`` over it (:func:`scale`).
A calibrated second is a second on a host on which the kernel takes
``KERNEL_REF_S``.  Operations that take milliseconds (the service
workload) are timed between two kernel samples instead (:func:`sample`).

This module imports nothing from the program, so the orchestrator can use
it before ``repro`` is importable.
"""

from __future__ import annotations

import signal
import time

#: Mean in-run kernel time on the reference host (2-core x86-64
#: container, CPython 3.11, unloaded).  Only ratios of calibrated times
#: are meaningful across hosts; the constant keeps calibrated seconds
#: close to real ones.
KERNEL_REF_S = 0.000225

#: Probe period, in CPU time of the probed process (ITIMER_PROF), so a
#: busy process is sampled evenly.
INTERVAL_S = 0.010

#: How strongly a program's wall follows the kernel's: the simulator slows
#: less than the kernel when the CPU turns slow (its time is not all
#: interpreter work).  Fitted on repeated figure1 and stencil-10k runs
#: under heavy neighbour load, where it took the run-to-run spread of
#: tasks_per_s from 39% (raw) and 9% (exponent 1) down to 4-8%.
ALPHA = 0.8

_N = 500

#: Tables the kernel reads at random: a working set of ~10 MB, so the
#: kernel feels the cache contention the simulator's object graphs feel,
#: not only the CPU's speed.  Built by :func:`_tables` on first use.
_TABLES: tuple | None = None


def _tables() -> tuple:
    global _TABLES
    if _TABLES is None:  # a single assignment: safe if a signal re-enters
        _TABLES = (list(range(1 << 18)), {i: i for i in range(1 << 14)})
    return _TABLES


def kernel() -> int:
    """The fixed kernel: dict and int traffic in cache, then random reads
    from a large list and dict, like the simulator's object graphs."""
    big, table_b = _tables()
    table: dict[int, int] = {}
    acc = 0
    for i in range(_N):
        key = (i * 2654435761) & 0x3FF
        table[key] = table.get(key, 0) + i
        acc = (acc + (key ^ (i >> 3))) & 0xFFFFFFFF
    j = 12345
    for _ in range(_N):
        j = (j * 1103515245 + 12345) & 0x7FFFFFFF
        acc += big[j & 0x3FFFF] + table_b.get(j & 0x3FFF, 0)
    return acc + len(table)


def scale(raw_s: float, kernel_s: float, alpha: float = ALPHA) -> float:
    """Calibrated seconds of a wall over which the kernel took ``kernel_s``."""
    return raw_s * (KERNEL_REF_S / kernel_s) ** alpha


def sample() -> float:
    """Seconds of one kernel run, after a first run warms the caches that
    the program evicted (a cold kernel measures the program, not the CPU)."""
    kernel()
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Probe:
    """Samples the kernel every :data:`INTERVAL_S` of the process's CPU."""

    def __init__(self) -> None:
        self.n = 0
        self.spent = 0.0  # wall of the whole probes, warm-up included
        self.timed = 0.0  # Σ sample()

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self.timed += sample()
        self.spent += time.perf_counter() - t0
        self.n += 1

    def start(self) -> "Probe":
        _tables()  # before the first tick, not inside it
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def mark(self) -> tuple[int, float, float]:
        return self.n, self.spent, self.timed

    def calibrate(
        self, raw_s: float, since: tuple[int, float, float]
    ) -> tuple[float, float]:
        """(program seconds, calibrated seconds) of a wall since ``since``.

        Program seconds are the wall minus the kernel time spent in it.
        An operation too short to hold a kernel run is scaled by the mean
        kernel time of the whole run so far.
        """
        dn, ds = self.n - since[0], self.spent - since[1]
        program = raw_s - ds
        if dn:
            mean = (self.timed - since[2]) / dn
        elif self.n:
            mean = self.timed / self.n
        else:
            mean = KERNEL_REF_S
        return program, scale(program, mean)

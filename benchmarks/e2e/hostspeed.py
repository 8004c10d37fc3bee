"""Host-speed normalisation of the benchmark's timings.

On a few CPUs of a shared host, the same pure-Python code runs up to a third
faster or slower from one second to the next as other tenants load the
machine: the medians of a fixed loop timed in 5 s windows spread by a fifth
of their median, and the host's CPUs drift independently of each other.
Raw timings would measure the neighbours more than the program.

So every process whose time the benchmark reports runs the :data:`SAMPLER`:
after each ``PERIOD_S`` of the process's CPU time (``ITIMER_PROF``), a signal
handler runs a fixed reference :func:`kernel` — about a third of a
millisecond of pure Python — and records how fast it ran.  The sampler reads
the speed of the CPU the process is on, throughout the interval being
timed.  An interval is then reported in *host-normalised seconds*: its
duration less the time the handler took, times the kernel's mean speed over
the interval, times ``NOMINAL_S`` — the seconds the interval would take on a
host on which the kernel takes exactly ``NOMINAL_S``.  The samples fall
evenly in CPU time, so the mean of the kernel's speeds (not of its times)
is the host's mean speed over the interval.

Sampling takes about 1.5 % of the CPU time; :meth:`Sampler.now` and
:attr:`Sampler.spent` let callers leave it out of their intervals.

``python -m benchmarks.e2e.hostspeed STATS MODULE [ARGS...]`` runs
``python -m MODULE ARGS...`` under the sampler and writes its counts to the
JSON file ``STATS`` on the way out, for :func:`factor_of`.
"""

from __future__ import annotations

import heapq
import json
import runpy
import signal
import sys
import time
from typing import Tuple

__all__ = ["NOMINAL_S", "PERIOD_S", "SAMPLER", "Sampler", "factor_of", "kernel"]

#: CPU time between two samples.
PERIOD_S = 0.025
#: The kernel's time on the reference host (see the module docstring): close
#: to its median on the 2-CPU host the README's numbers come from, so that
#: host-normalised seconds read close to that host's wall seconds.
NOMINAL_S = 0.0004


def kernel() -> int:
    """The reference work: a small discrete-event loop, like the model's.

    Seven processes step through a heap-ordered clock and set the power of
    their share of forty nodes.
    """
    power = [0.0] * 40
    heap = [(0.0, k) for k in range(7)]
    steps = 0
    while heap:
        t, k = heapq.heappop(heap)
        for i in range(k, 40, 7):
            power[i] = 100.0 + 50.0 * ((k * 0.37 + t) % 1.0)
        t += 0.5 + 0.1 * k
        if t < 24.0:
            heapq.heappush(heap, (t, k))
        steps += 1
    return steps


class Sampler:
    """Kernel speed, sampled every ``PERIOD_S`` of this process's CPU time."""

    def __init__(self) -> None:
        self.n = 0
        #: Sum of the sampled speeds, in kernels per second.
        self.speed_sum = 0.0
        #: Seconds the handler has taken so far.
        self.spent = 0.0

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def _sample(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.n += 1
        self.speed_sum += 1.0 / dt
        self.spent += dt

    def now(self) -> float:
        """A monotonic clock that stops while the handler runs."""
        return time.perf_counter() - self.spent

    def mark(self) -> Tuple[int, float]:
        """The counts so far, for :meth:`factor` over what follows."""
        return self.n, self.speed_sum

    def factor(self, since: Tuple[int, float]) -> float:
        """Host-normalised seconds per second since the ``since`` mark."""
        return factor_of({"n": self.n - since[0], "speed_sum": self.speed_sum - since[1]})


def factor_of(stats: dict) -> float:
    """Host-normalised seconds per second, from a sampler's counts."""
    if not stats["n"]:
        raise RuntimeError("no host-speed sample: the timed process used under "
                           f"{PERIOD_S} s of CPU")
    return NOMINAL_S * stats["speed_sum"] / stats["n"]


#: The sampler of this process, started by whoever times it.  One per
#: process, because SIGPROF and the timer that sends it are process-wide.
SAMPLER = Sampler()


def _main(stats_path: str, module: str, args: list) -> None:
    SAMPLER.start()
    sys.argv = [module, *args]
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    finally:
        SAMPLER.stop()
        sys.stdout.flush()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump({"n": SAMPLER.n, "speed_sum": SAMPLER.speed_sum,
                       "spent": SAMPLER.spent}, fh)


if __name__ == "__main__":
    _main(sys.argv[1], sys.argv[2], sys.argv[3:])

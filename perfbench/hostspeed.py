"""Host-speed probe: corrects a timing for how fast the host ran during it.

On a shared host the speed of a virtual CPU drifts, by up to 2x, over
seconds to minutes, and the drift is not shared between the two vCPUs.  A
plain wall time therefore measures the host as much as the program.  While
a timed interval runs, an interval timer interrupts it every ``PERIOD_S``
seconds and runs ``_probe``, a fixed pure-Python loop, in the same thread,
so on the same vCPU at the same moment.  Its mean time says how fast the
host ran.  A timing is reported as

    (elapsed - time spent in probes) * REF_PROBE_S / mean probe time

that is, in seconds on a host where one probe takes ``REF_PROBE_S``.  The
probe does not touch the program, so a faster program still reads faster.
A dict-and-float loop was chosen because, on the 2-vCPU VM the benchmark
was tuned on, its time scaled with the simulator's time (slope 1.06 on a
log-log fit over 67 operations) better than a plain float loop (1.41) or
numpy gathers over 8-32 MB (1.25-1.36).  It needs no numpy, so the same
probe also times the package import.
"""

from __future__ import annotations

import signal
from time import perf_counter

PERIOD_S = 0.01
# The probe's median time on that VM while it ran fast (it read 100 us in
# fast spells and 160-200 us in slow ones); a fixed scale, so that corrected
# times read as seconds on that host at its fast speed.
REF_PROBE_S = 1.0e-4


def _probe() -> dict:
    table: dict = {}
    for i in range(800):
        key = i & 255
        table[key] = table.get(key, 0.0) + i * 1.5
    return table


def correct(elapsed: float, spent: float, mean: float) -> float:
    """``elapsed`` seconds, of which ``spent`` went to probes of mean time
    ``mean``, as seconds at the reference host speed."""
    return (elapsed - spent) * REF_PROBE_S / mean


class Probe:
    """Samples the host speed from ``start`` to ``stop``.

    ``start`` takes one sample before the timer runs, so that ``mean`` is
    defined however short the interval; that sample is not in ``spent``.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._busy = False
        self._old = None

    def _sample(self) -> None:
        t0 = perf_counter()
        _probe()
        self.samples.append(perf_counter() - t0)

    def _on_timer(self, signum, frame) -> None:
        # A tick that lands inside a probe (the process was descheduled for
        # a whole period) is dropped so that no time is counted twice.
        if self._busy:
            return
        self._busy = True
        try:
            self._sample()
        finally:
            self._busy = False

    def start(self) -> None:
        self.samples = []
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> tuple[float, float]:
        """Stop sampling; return (seconds spent in timed probes, mean probe
        time)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return sum(self.samples[1:]), sum(self.samples) / len(self.samples)

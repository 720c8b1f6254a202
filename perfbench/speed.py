"""Machine-speed probe: rescales measured times to a fixed reference speed.

The shared hosts this benchmark runs on change speed by up to a quarter
within seconds and drift over minutes, so raw times of identical work
spread more than any useful bound.  While a measurement runs, a timer
interrupts it every `period` seconds and times a fixed probe, on the wall
clock and on the process CPU clock.  With probe durations p_i on one
clock, a time t measured on the same clock over the same interval is
reported as

    (t - time spent probing) * mean(P0 / p_i)

that is, the work done, in seconds at the speed where the probe takes P0.
Wall times are rescaled by the wall-clock probe and CPU times by the CPU
probe, so time the virtual machine gives to other guests slows only the
former.

The probe mixes small Fraction and dict operations with arithmetic on
Fractions of 1400-bit integers, as the workloads do: a host slowdown hits
the two kinds of work unequally, and with only the first kind the
rescaled times of local-analytic, where big rationals dominate, spread
twice as much.

Each sample runs the probe twice and times the second run.  The first run
brings the probe's code and data back into the caches that the measured
program evicted since the last sample, so the timed run does not depend
on how much memory that program touches.  probe_check.py measures this:
a probe timed cold took 1.11 times as long as the warm run right after it
while global-series ran and 1.20 times while oracle ran, whereas a third
run took 0.99 times as long as the warm one on every workload.  The probe
runs between bytecodes of the main thread and touches nothing of the
measured program.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

P0 = 400e-6  # probe duration, in seconds, at the reference speed
WARMUP = 10

_TERMS = [Fraction(k, k + 3) for k in range(12)]
_BIG = [Fraction(3 ** (900 + k) + k, 2 ** (1395 + k) + 7 * k + 1)
        for k in range(3)]


def _probe() -> None:
    # small Fractions and dicts (interpreter overhead) ...
    acc = Fraction(0)
    for a in _TERMS:
        for b in _TERMS[:3]:
            acc += a * b
    table = {}
    for k in range(150):
        table[k * 7 % 101] = k
    # ... and, for about as long, Fractions of 1400-bit integers
    acc = Fraction(0)
    for a in _BIG:
        acc += a
    acc * acc


class SpeedProbe:
    """Context manager that samples the probe on SIGALRM while it is open.

    wall and cpu hold the timed probe durations on the two clocks;
    spent_wall and spent_cpu the whole time spent sampling.
    """

    def __init__(self, period: float):
        self.period = period
        self.wall, self.cpu = [], []
        self.spent_wall = self.spent_cpu = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        _probe()
        w1, c1 = time.perf_counter(), time.process_time()
        _probe()
        w2, c2 = time.perf_counter(), time.process_time()
        self.wall.append(w2 - w1)
        self.cpu.append(c2 - c1)
        self.spent_wall += w2 - w0
        self.spent_cpu += c2 - c0

    def __enter__(self) -> "SpeedProbe":
        for _ in range(WARMUP):  # let the interpreter specialise the probe
            _probe()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, cpu: bool = False) -> float:
        """Mean of P0 / p_i on one clock: 1.0 at the reference speed."""
        if not self.wall:  # interval shorter than one period: sample once
            probe = SpeedProbe(self.period)
            probe._sample()
            return probe.speed(cpu)
        samples = self.cpu if cpu else self.wall
        return sum(P0 / p for p in samples) / len(samples)

    def rescale(self, seconds: float, cpu: bool = False) -> float:
        """A time measured on the wall clock (or, with cpu, the process CPU
        clock) while the probe was open, less the time spent probing, at
        the reference speed."""
        spent = self.spent_cpu if cpu else self.spent_wall
        return (seconds - spent) * self.speed(cpu)

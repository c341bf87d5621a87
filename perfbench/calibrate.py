"""Times scaled to a reference host speed by a calibration pass sampled
while the timed work runs.

On a shared virtual machine the host's speed changes by up to half, from
one second to the next and from minute to minute, and it changes the
time of the benchmark's ops with it. A SpeedSampler interrupts the timed
work every INTERVAL_S seconds (SIGALRM, main thread) and times one short
calibration pass; the work's time less the passes, times
REF_PASS_S / (mean pass time), is its time at the reference speed. The
mean leaves out the slowest and fastest tenth of the passes.
Blocks of calibration passes timed between ops missed the changes within
an op; passes spread through the op see the same host phases it does.

The pass uses nothing from lotforge, so no change to the program can
change it, and no numpy, so a child interpreter can start sampling before
it imports anything the benchmark times. It mixes the kinds of work the
ops do: float arithmetic on indexed values, dict inserts, and number
formatting and parsing.
"""

from __future__ import annotations

import signal
import statistics
import time

# Seconds one pass is taken to last on the reference host; every scaled
# time is in seconds on that host.
REF_PASS_S = 0.00025
INTERVAL_S = 0.05
# Work shorter than this many intervals is scaled by passes run after it.
MIN_PASSES = 5

_VALUES = [float(i) for i in range(64)]


def calibration_pass() -> float:
    acc = 0.0
    for i in range(200):
        acc += _VALUES[i & 63] * 1.5 - _VALUES[(i * 7) & 63]
    table = {}
    for i in range(400):
        table[f"x_{i}"] = i * 0.5
    text = " + ".join(f"{i * 0.37:.6g}" for i in range(150))
    return acc + len(table) + sum(map(float, text.split(" + ")))


def timed_pass() -> float:
    t0 = time.perf_counter()
    calibration_pass()
    return time.perf_counter() - t0


class SpeedSampler:
    """Use as `with SpeedSampler() as s: work()`, then s.scale(seconds).

    Only one sampler may run at a time: it owns the SIGALRM handler and
    the real-time interval timer while it runs.
    """

    def __init__(self) -> None:
        self.passes: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.passes.append(timed_pass())

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, seconds: float) -> float:
        """`seconds` of wall time timed around the `with` block, at the
        reference speed. Call it after the block has ended."""
        work = seconds - sum(self.passes)
        passes = sorted(self.passes + [timed_pass() for _ in
                                       range(MIN_PASSES - len(self.passes))])
        # The slowest and fastest tenth are left out: a pass the host stalls
        # for tens of milliseconds would outweigh a hundred others.
        cut = len(passes) // 10
        return work * REF_PASS_S / statistics.fmean(passes[cut:len(passes) - cut])

"""Host-speed calibration for timings taken on a shared, noisy host.

On a virtual machine that shares its cores, the same Python code runs up
to twice as slowly for seconds at a time, so raw host times of two runs
of one program can differ by more than any change worth measuring.  A
:class:`Calibrator` times a fixed pure-Python loop every few ms between
the benchmark's calls (never inside a timed call) and scales each host
time by ``REFERENCE_NS / (loop time near that moment)``.  A scaled time
reads as host time on a machine where the loop takes ``REFERENCE_NS``:
a change to the program moves it, a change in how busy the host is
mostly does not.  The raw times are reported beside the scaled ones.
"""

from __future__ import annotations

import bisect
import collections
import gc
import statistics
import time
from typing import Callable

#: Loop time that scaled times are expressed against.
REFERENCE_NS = 200_000

#: A calibration sample is taken at most this often.
INTERVAL_NS = 10_000_000

#: Samples around a moment whose median gives the host speed there.
WINDOW = 5

#: Records the calibration loop makes per sample.
CALIBRATION_ITERS = 300

_Record = collections.namedtuple("_Record", "key pages extra")


def calibration_loop(iters: int = CALIBRATION_ITERS) -> int:
    """Fixed interpreter work of the program's kind: small tuples, lists
    and dicts made, traversed as a young-generation collection traverses
    them, and dropped.

    The cyclic garbage collector is off while the loop runs, and the loop
    traverses only its own objects.  With the collector on, its 600
    tracked containers would set off collections over the program's young
    objects too, so the loop time, and with it every scaled time, would
    move with how much the program allocates and keeps alive.  Everything
    the loop makes is freed before the collector is back on.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        records = [_Record(i, [i], {"n": i}) for i in range(iters)]
        made = len(gc.get_referents(*records))
        del records
    finally:
        if enabled:
            gc.enable()
    return made


class Calibrator:
    """Calibration samples of one run, and the scale factor they give."""

    def __init__(self, *, interval_ns: int = INTERVAL_NS,
                 loop: Callable[[], object] = calibration_loop,
                 clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._interval_ns = interval_ns
        self._loop = loop
        self._clock = clock
        self._due = 0
        #: End time and duration of every sample, in time order.
        self.stamps: list[int] = []
        self.loop_ns: list[int] = []

    def sample(self) -> None:
        start = self._clock()
        self._loop()
        end = self._clock()
        self.stamps.append(end)
        self.loop_ns.append(end - start)
        self._due = end + self._interval_ns

    def tick(self, now: int) -> bool:
        """Take a sample if one is due; call between timed calls.
        Returns whether a sample ran."""
        if now < self._due:
            return False
        self.sample()
        return True

    def factor(self, stamp: int) -> float:
        """Scale for a host time that ended at ``stamp``: the reference
        over the median loop time of the samples nearest to it."""
        index = bisect.bisect_left(self.stamps, stamp)
        low = max(0, min(index - WINDOW // 2, len(self.stamps) - WINDOW))
        return REFERENCE_NS / statistics.median(
            self.loop_ns[low:low + WINDOW]
        )

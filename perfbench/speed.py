"""Machine-speed probe that rescales measured times to one fixed speed.

On the 2-core VM this benchmark was written on, the same code ran up to
1.8x slower for minutes at a time (the probe's median over a 30-s run
ranged from 5.9 to 11.1 ms), in CPU time as much as in wall time.  Raw
times of one commit then differed between runs by more than any useful
regression bound.  So a short probe, which uses no stokerlab code, runs
before every item and once after the last; an item's time is multiplied by
``REFERENCE_S`` over the mean of the two probes around it.  The speed also
changes within a second, so probes further off track an item less well:
over 10 certify runs the quartile spread of item_ms_p50 was 0.03 this way,
against 0.07 with a probe at most every 0.25 s and the median probe within
1 s of the item.  Like the library's hot paths, the probe mixes small numpy
calls with interpreted Python.  Set-up time is not rescaled: bracketing it
with probes made it noisier (quartile spread 0.34 against 0.13-0.19 as
measured), as import and input building track the probe less.
"""

import bisect
import time

import numpy as np

REFERENCE_S = 6.0e-3    # probe duration on that VM (Intel Xeon, 2 cores)
_MATRIX = np.array([[2.0, 0.3, 0.1], [0.2, 1.5, 0.4], [0.1, 0.3, 1.8]])


def probe():
    """Run the fixed probe once; return its wall time in seconds."""
    start = time.perf_counter()
    acc = 0.0
    for k in range(150):
        m = _MATRIX + 1e-3 * k
        acc += np.linalg.det(m)
        v = np.cross(m[0], m[1])
        acc += float(v @ v)
        acc += np.linalg.svd(m, compute_uv=False)[0]
        acc += sum(x * x for x in range(20))
    return time.perf_counter() - start


class SpeedTrace:
    """Probe durations over one timed phase, with the time each was taken."""

    def __init__(self):
        self.times = []
        self.durations = []

    def record(self):
        """Probe now."""
        self.durations.append(probe())
        self.times.append(time.perf_counter())

    def scale(self, start, end):
        """Rescaling factor for an item run from ``start`` to ``end``: the
        mean of the last probe before it and the first after it."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        return 2.0 * REFERENCE_S / (self.durations[before] + self.durations[after])

"""Machine-speed probe for a shared, noisy host.

On a shared 2-vCPU VM the same pass took anywhere from 3.1 s to
6.7 s, and the slow and fast spells lasted longer than a run. No statistic
taken over a run's passes removes that. The probe measures the
machine's speed while a pass runs, so the pass time can be corrected
for it.

A SIGALRM timer fires every INTERVAL seconds of wall time. The handler
runs in the main thread, so there is no extra thread. It times one of
two fixed kernels that share no code with sftstring:

* an integer loop;
* a small dict, tuple and Fraction workload.

The speed of a stretch of time is the geometric mean of each kernel's
median time over its reference time. On that VM the first kernel
slowed down less than the library did and the second more, so their
mean tracked the library better than either alone.

The reference times are the kernels' typical times on a 2-vCPU Xeon
VM. They only set the scale: corrected times read close to that
machine's wall times. The handler's own time is subtracted from the
pass before correcting.
"""

import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.03
MIN_SAMPLES = 15
INT_REF_S = 2.7e-4
OBJ_REF_S = 6.5e-4


def _int_kernel():
    s = 0
    for i in range(3000):
        s += i * i % 7
    return s


def _obj_kernel(j):
    acc = {}
    for i in range(120):
        k = ((j + i) % 50000, i % 7, ((j + i) ^ i) % 13)
        acc[k[2]] = acc.get(k[2], Fraction(0)) + Fraction(i % 5, 1 + i % 3)
    return sorted(acc.items())


class SpeedProbe:
    def __init__(self):
        self.ticks = 0
        self.int_s, self.obj_s = [], []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        self.ticks += 1
        t0 = time.perf_counter()
        if self.ticks % 2:
            _int_kernel()
            self.int_s.append(time.perf_counter() - t0)
        else:
            _obj_kernel(self.ticks)
            self.obj_s.append(time.perf_counter() - t0)
        self.spent += time.perf_counter() - t0

    def start(self):
        self.int_s, self.obj_s, self.spent = [], [], 0.0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        """Stop sampling; return (slowdown, seconds spent in the probe
        while it was running).

        slowdown is 1 at the reference machine's typical speed and above
        1 when the machine runs slower.  A window too short for MIN
        samples of each kernel is topped up right after it ends.
        """
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        spent = self.spent
        while len(self.int_s) < MIN_SAMPLES or len(self.obj_s) < MIN_SAMPLES:
            self._sample(None, None)
        slowdown = (statistics.median(self.int_s) / INT_REF_S
                    * statistics.median(self.obj_s) / OBJ_REF_S) ** 0.5
        return slowdown, spent

"""Host speed: a fixed reference job timed beside the timed work.

The reference machine is a 2-vCPU VM shared with other tenants.  On it
the speed of identical work drifts by up to 1.7x over a few minutes
(identical ``random35`` rounds ran 1.7x faster in one minute than in
another) and by up to 1.5x from one second to the next,
and its two vCPUs slow down independently: over 40 s of jobs pinned to
each in turn, their walls correlated at 0.1.  Raw wall times of two runs
minutes apart differ by more than any bound a regression check could
use.  The benchmark therefore times a fixed pure-Python job beside the
timed work, on the CPU that does the work, and reports the work in
*nominal seconds*: its wall scaled by the job's nominal wall over its
measured wall.

The job does what the solver spends its time on (exact ``Fraction``
arithmetic, dict, tuple and list churn) but uses none of the program's
code, so a change to the program cannot change its speed: a program
that gets faster gets faster in nominal seconds by the same factor.
Garbage collection is off while it runs, so the size of the program's
heap around it does not count either.

Three ways to time it, one per kind of timed work:

* ``SpeedSampler``: solves in this process.  A timer signal runs a
  tenth of the job every 0.1 s, between two bytecodes of the solver,
  and each solve is scaled by the median sample within it.  On
  identical ``gm_table1`` solves of 1-3 s this took the per-solve
  variation (standard deviation over mean) from 0.15-0.19 raw to
  0.07-0.10; a job before and after each solve only got it to 0.13-0.15.
* ``HostSpeed``: service epochs, whose solves run in worker processes
  on both vCPUs.  A whole job pinned to each CPU in turn, before and
  after each epoch, while the workers are idle.
* ``reference_s`` in a set-up probe's own process, right after its
  set-up (a child process may run on the other vCPU than its parent).
"""

import gc
import os
import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

#: Steps of the whole reference job, and its wall time at the nominal
#: host speed (about the reference machine's slower phases).
STEPS = 1500
NOMINAL_S = 0.025


def reference_job(steps=STEPS):
    """The fixed job: 14-25 ms for ``STEPS`` on the reference machine."""
    rng = random.Random(1)
    table = {}
    kept = []
    acc = Fraction(0)
    for i in range(steps):
        a = Fraction(rng.randint(1, 999), rng.randint(1, 999))
        acc = acc + a * Fraction(i % 7 + 1, 3)
        if acc > 50:
            acc -= 50
        table[(i % 97, i % 13)] = acc
        kept.append([a, (i, acc), {"k": i}])
    return len(table) + len(kept)


def reference_s(steps=STEPS):
    """Wall time of one reference job, garbage collection off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference_job(steps)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def nominal_factor(wall, steps=STEPS):
    """Factor from wall-clock to nominal seconds, given the wall of a
    ``steps``-step reference job."""
    return NOMINAL_S * steps / STEPS / wall


def reference_all_cpus_s():
    """Mean wall of one reference job pinned to each CPU this process
    may use: the speed that work spread over them sees."""
    cpus = os.sched_getaffinity(0)
    walls = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            walls.append(reference_s())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(walls)


class HostSpeed:
    """Reference walls on every CPU around consecutive timed intervals.

    Create it right before the first interval and call ``scale()``
    right after each one: it times the jobs again and returns the factor
    that turns the interval's wall into nominal seconds, from the mean
    of the two walls around it.
    """

    def __init__(self):
        self.last = reference_all_cpus_s()
        self.scales = []

    def scale(self):
        before, self.last = self.last, reference_all_cpus_s()
        factor = nominal_factor((before + self.last) / 2)
        self.scales.append(factor)
        return factor


class SpeedSampler:
    """Samples the host speed from ``SIGALRM`` while it is entered.

    Every ``INTERVAL_S`` the handler times a ``SAMPLE_STEPS``-step
    reference job in the main thread, between two bytecodes of whatever
    runs there.  Work timed meanwhile takes the handler's time out with
    ``inside()`` and gets its factor from ``scale()`` once the sampler
    has exited.  A sample is also taken on entry and on exit, so that
    every interval has one near it.
    """

    INTERVAL_S = 0.1
    SAMPLE_STEPS = STEPS // 10
    #: A shorter interval takes the samples of a window this long
    #: around its middle.
    MIN_WINDOW_S = 0.4

    def __init__(self):
        #: (start on ``perf_counter``, wall) of every sample.
        self.samples = []
        self._previous = None

    def _sample(self, signum=None, frame=None):
        start = perf_counter()
        wall = reference_s(self.SAMPLE_STEPS)
        self.samples.append((start, wall))

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                         self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def inside(self, start, end):
        """Wall time the samples took within ``[start, end)``: a sample
        that starts there ends there, because it interrupts the work."""
        total = 0.0
        for at, wall in reversed(self.samples):
            if at < start:
                break
            if at < end:
                total += wall
        return total

    def scale(self, start, end):
        """Nominal-seconds factor of ``[start, end)``: from the median
        sample in it (widened to ``MIN_WINDOW_S``), else the nearest."""
        pad = max(0.0, (self.MIN_WINDOW_S - (end - start)) / 2)
        walls = [wall for at, wall in self.samples
                 if start - pad <= at < end + pad]
        if not walls:
            walls = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return nominal_factor(statistics.median(walls), self.SAMPLE_STEPS)

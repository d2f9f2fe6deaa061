"""A fixed reference computation that measures the machine's current speed.

The vCPUs this benchmark was built on change speed in two ways while it
runs, because other tenants share the host:

- The host takes a vCPU away for stretches of milliseconds ("steal" in
  /proc/stat, up to a quarter of a busy vCPU's time). A call that loses
  such a stretch takes longer in wall time but not in CPU time, so every
  time here is the CPU time of the main thread (`time.thread_time`). The
  program is single-threaded and CPU-bound (BLAS pinned to one thread, no
  sleeps, no waiting on I/O), so its CPU time is its wall time without the
  stolen stretches. (Not `time.process_time`: while the SIGPROF timer
  below is armed, Linux reads the process clock from a cache updated only
  at scheduler ticks, and a 4 ms run can read as 0.)
- The vCPU itself runs slower: a fixed computation takes up to 2.5 times
  as long, in CPU time as in wall time, switching between a fast and a
  slow state every few seconds and staying slow for minutes at a time.
  Every kind of work slows alike: Python, small LAPACK solves, SVDs and
  polynomial evaluation all took 1.6-1.7 times as long in the slow state.

So a timed call is bracketed by yardstick runs, one just before it and one
just after it, and a call longer than PERIOD_S of CPU time also gets a
yardstick run every PERIOD_S from a SIGPROF handler. The time of those
runs is taken out of the call's time, and each stretch of the call between
two runs is scaled to the speed at which one run takes REFERENCE_MS:

    scaled = stretch * REFERENCE_MS / (mean of the two runs' ms)

The yardstick imports nothing from the program, so a change to the program
moves the scaled times and not the yardstick. Its work is the mix a call
does: interpreted Python (dictionaries, formatting) and many small NumPy
operations and LAPACK solves.
"""

import signal
import statistics
import time

import numpy as np

# Milliseconds one run of the yardstick took in the machine's fast state
# at the commit that added the benchmark (2-vCPU x86-64 VM, NumPy 2.4.6);
# a unit, not a target.
REFERENCE_MS = 3.0
# CPU seconds between the yardstick runs inside one long call.
PERIOD_S = 0.1

_RNG = np.random.default_rng(12345)
_BATCH = _RNG.normal(size=(16, 6, 6)) + 6.0 * np.eye(6)
_RHS = _RNG.normal(size=(16, 6, 2))
_NODES = np.exp(1j * np.linspace(0.0, np.pi, 64))


def _work():
    total = 0.0
    for k in range(80):
        sol = np.linalg.solve(_BATCH, _RHS)
        total += float(np.abs(sol).sum())
        vals = np.polyval([1.0, -0.5, 0.25, k / 80.0], _NODES)
        total += float(np.abs(vals).max())
    table = {f"row{k}": [k * j % 7 for j in range(40)] for k in range(200)}
    text = ",".join(f"{key}={sum(vals):d}" for key, vals in table.items())
    return total + len(text)


def measure():
    """CPU seconds of one yardstick run."""
    start = time.thread_time()
    _work()
    return time.thread_time() - start


def measure_median():
    """Median CPU seconds of seven yardstick runs, and their total."""
    times = [measure() for _ in range(7)]
    return statistics.median(times), sum(times)


def scale(seconds, before, after):
    """`seconds` measured between yardstick runs of `before` and `after`
    seconds, scaled to the reference speed."""
    return seconds * (REFERENCE_MS / 1e3) / (0.5 * (before + after))


class Meter:
    """Times calls one after the other, each between yardstick runs.

    `period` is the spacing of the yardstick runs inside a call, or None
    for none (a traced run, whose spans should not contain them).
    """

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.first = self.last = measure()
        self.spent = self.first  # seconds spent in yardstick runs so far

    def time(self, fn, *args):
        """Run fn(*args). Returns its result, the scaled seconds and the
        CPU seconds of the call without the yardstick runs inside it."""
        ticks = []

        def tick(signum, frame):
            start = time.thread_time()
            _work()
            ticks.append((start, time.thread_time()))

        if self.period:
            previous = signal.signal(signal.SIGPROF, tick)
            signal.setitimer(signal.ITIMER_PROF, self.period, self.period)
        try:
            start = time.thread_time()
            result = fn(*args)
            end = time.thread_time()
        finally:
            if self.period:
                signal.setitimer(signal.ITIMER_PROF, 0)
                signal.signal(signal.SIGPROF, previous)
        behind = measure()
        ticks = [(s, e) for s, e in ticks if start <= s and e <= end]
        scaled = cpu = 0.0
        mark, speed = start, self.last
        for s, e in ticks + [(end, end + behind)]:
            scaled += scale(s - mark, speed, e - s)
            cpu += s - mark
            mark, speed = e, e - s
        self.spent += behind + sum(e - s for s, e in ticks)
        self.last = behind
        return result, scaled, cpu

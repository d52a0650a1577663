"""Spread a timed process over every CPU it may run on.

On the shared 2-vCPU host the benchmark was tuned on, each vCPU slows down
on its own: other tenants take its physical core's share for seconds at a
time, and the slowdowns of the two vCPUs were almost uncorrelated (0.03 to
0.19 over 1-s to 10-s windows). A process the scheduler leaves on one vCPU
takes on that vCPU's slowdown for a whole pass. Moving it round all of its
CPUs every ``PERIOD_S`` averages their slowdowns within each pass. Over 116
`model-sweep` passes, alternating two left alone and two moved, the
interquartile range of pass times was 0.24 of the median when left alone and
0.10 when moved; the medians differed by 2.5%.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import signal

PERIOD_S = 0.1


@contextlib.contextmanager
def rotate():
    """Move this process to the next allowed CPU every ``PERIOD_S`` seconds."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        yield
        return
    turn = itertools.cycle(cpus)

    def move(signum, frame):
        os.sched_setaffinity(0, {next(turn)})

    previous = signal.signal(signal.SIGALRM, move)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        os.sched_setaffinity(0, cpus)

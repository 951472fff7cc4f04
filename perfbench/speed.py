"""The host's speed, probed while the program runs, to put its times on one scale.

The benchmark runs on a few cores of a shared host whose speed drifts by a
third within a minute: the same pure-Python loop takes 60 ms or 100 ms
depending on what the neighbours do, and process time drifts with wall time,
so neither clock alone is steady.  A probe times a fixed pure-Python loop;
probes are taken right before and after each timed part and, while a
segment is open, every ``INTERVAL_S`` from a ``SIGALRM`` handler, so that
they follow the drift during a long call such as ``phi_table(6)``.

``clock()`` leaves out the time spent in probes, so every interval the
benchmark measures with it is program time only.  ``end()`` returns the
mean time of one probe iteration over the segment; ``run.py`` scales the
segment's times by ``REF_NS`` over that mean, which reports them at the
speed where one probe iteration takes ``REF_NS`` nanoseconds.

The probe allocates no container objects, so it does not advance the
garbage collector's counters and cannot move a collection inside the
program.
"""

from __future__ import annotations

import signal
import time

PROBE_ITERS = 50_000  # about 5 ms
INTERVAL_S = 0.2
REF_NS = 80.0  # ns per probe iteration, about the fastest seen on the baseline machine

_TABLE = tuple(k * k % 1009 for k in range(1024))
_paused = 0  # ns spent in probes so far
_segment = None  # probe results of the open segment, ns per iteration


def clock():
    """perf_counter_ns without the time spent in probes."""
    return time.perf_counter_ns() - _paused


def probe(*_):
    global _paused
    t0 = time.perf_counter_ns()
    table, acc = _TABLE, 0
    for k in range(PROBE_ITERS):
        acc = (acc + table[k & 1023]) % 1000003
    t1 = time.perf_counter_ns()
    if _segment is not None:
        _segment.append((t1 - t0) / PROBE_ITERS)
    _paused += time.perf_counter_ns() - t0


def begin(timer=True):
    """Open a segment with one probe; with ``timer``, probe every INTERVAL_S until ``end``."""
    global _segment
    _segment = []
    probe()
    if timer:
        signal.signal(signal.SIGALRM, probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def end():
    """Close the segment with one probe; the mean ns per probe iteration over it
    (None when no segment is open)."""
    global _segment
    signal.setitimer(signal.ITIMER_REAL, 0)
    if _segment is None:
        return None
    probe()
    ns, _segment = _segment, None
    return sum(ns) / len(ns)

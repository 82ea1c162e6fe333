"""Host speed probe: wall times rescaled to a fixed reference speed.

On the 2-vCPU host this benchmark was tuned on, each vCPU runs at a speed
that flickers between a fast state and one about 50 % slower, in bursts of
well under a millisecond, and the share of fast time drifts over seconds
to minutes.  Each vCPU drifts on its own.  A wall time therefore measures
the host's state as much as the program, and two sets of runs made minutes
apart disagree by 20 to 30 %.

The probe measures that state where the program runs.  The run is pinned
to one CPU (children inherit it), and every timed call is bracketed by
probe windows that time a fixed chunk of interpreter-bound numpy scalar
work, the same kind of work the library's special functions do.  A window
lasts a quarter of the call it follows.  A call's time at reference speed
is its wall time times ``REF_CHUNK_S`` over the mean chunk time of the two
windows around it: the wall time the call would have taken had the chunk
run at ``REF_CHUNK_S``.  On the tuning host the chunk's median is about
``REF_CHUNK_S``, so rescaled times are close to the wall times seen there.
The probe is the benchmark's own code, so a change to the library cannot
move it.
"""

from __future__ import annotations

import os
import time

import numpy as np

REF_CHUNK_S = 20e-6  # reference chunk time: about the chunk's median on the tuning host
PROBE_SHARE = 0.25  # a probe window lasts this share of the call before it
MIN_PROBE_S = 1e-3
MIN_CHUNKS = 8

_A = np.clongdouble(0.3 + 0.1j)
_B = np.clongdouble(1.0001)
_TERMS = 40


def _chunk():
    # a short clongdouble series, like one Kummer or Lanczos evaluation
    s, t = _A, np.clongdouble(1.0)
    for k in range(1, _TERMS):
        t = t * _A / (_B * k)
        s = s + t
    return s


def pin_to_one_cpu() -> int | None:
    """Pin this process (and the children it starts) to its last allowed CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Clock:
    """Times calls in wall seconds and in seconds at reference speed."""

    def __init__(self):
        for _ in range(MIN_CHUNKS):
            _chunk()  # warm the probe's own code paths
        self.slowdowns = []  # per timed call: its windows' mean chunk time / REF_CHUNK_S
        self._before = self._probe(MIN_PROBE_S)

    @staticmethod
    def _probe(seconds: float) -> float:
        """Mean chunk time over a window of at least `seconds` and MIN_CHUNKS chunks."""
        n, t0 = 0, time.perf_counter()
        end = t0 + seconds
        while True:
            _chunk()
            n += 1
            now = time.perf_counter()
            if now >= end and n >= MIN_CHUNKS:
                return (now - t0) / n

    def timed(self, fn):
        """(fn(), wall seconds, seconds at reference speed) of one call of fn."""
        t0 = time.perf_counter()
        value = fn()
        wall = time.perf_counter() - t0
        after = self._probe(max(MIN_PROBE_S, PROBE_SHARE * wall))
        slowdown = 0.5 * (self._before + after) / REF_CHUNK_S
        self._before = after
        self.slowdowns.append(slowdown)
        return value, wall, wall / slowdown

"""Host slowdown, from fixed reference work, to rescale measured times.

A shared host can run the same code up to half again slower for
seconds to minutes at a time, and CPU time slows with wall time, so the
spread between runs of unchanged code is wider than any bound worth
gating on.  The benchmark therefore probes the host right before and
right after each timed operation and each set-up, and gates on the
operation's wall seconds divided by the mean of the two slowdowns: its
seconds at the nominal speed.  The reference work does not touch the
program, so a change to the program moves only the numerator.  Raw
wall times are printed beside the gated ones.

Two probes, because a slow host does not slow all work alike: in-process
compute follows `compute_slowdown`, while a fresh interpreter that
imports numpy and scipy (most of a small CLI call) slows about half as
much and follows `startup_slowdown`.
"""

import subprocess
import sys
import time

# Nominal seconds of the reference work on an unloaded 2-vCPU x86-64 VM
# with Python 3.11, so that rescaled times read close to raw ones there.
LOOP_S = 0.025
STARTUP_S = 0.40


def _loop():
    total = 0
    for i in range(300_000):
        total += i * i
    return total


def compute_slowdown(reps=8):
    """Mean of `reps` timings of a pure-Python loop, over LOOP_S.

    The host's speed changes within a fraction of a second, so a single
    short timing, or the fastest of a few, says little about the speed
    over a whole operation; the mean over about 0.2 s says more.
    """
    total = 0.0
    for _ in range(reps):
        t0 = time.perf_counter()
        _loop()
        total += time.perf_counter() - t0
    return total / reps / LOOP_S


def startup_slowdown():
    """Wall time of a fresh interpreter importing numpy and scipy.linalg,
    over STARTUP_S.  The child inherits this process's environment."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return (time.perf_counter() - t0) / STARTUP_S

"""fan_out, the one fork site: numbered independent tasks run on every
usable CPU, in the caller and in forked children that share one anonymous
mapping for their results.

The sieve's table builds and its streamed pass give it one task per window
of a table, and each task computes its window from its number; run_verify
gives it one task per identity suite.  A process that runs its share of a
fan_out that forked (the caller, until it has reaped its children, or any
child) runs every fan_out it calls in that process, so nothing forks twice
over: the workers of the outer call are already one per CPU.
"""

from __future__ import annotations

import mmap
import os
from typing import Callable

import numpy as np

from divcorr.errors import ResourceError

_busy = False  # this process runs its share of a fan_out that forked


def fan_out(
    size: int, dtype: type, count: int, fill: Callable[[np.ndarray, int], None]
) -> np.ndarray:
    """A zeroed array of size entries after fill(out, k) has run once for
    every task k in range(count).

    fill writes only the entries of out that task k owns, so tasks are
    independent.  They go round-robin to one worker per usable CPU: with w
    workers the caller runs the tasks range(0, count, w) and the forked
    child of rank r the tasks range(r, count, w).  With more than one
    worker the array lives in a shared anonymous mapping, and whatever else
    fill writes is each worker's own copy.  A child leaves by os._exit, so
    it flushes no stdio and runs no exit handler of the parent.  The parent
    reaps every child before it returns or raises.  A child that raised
    (status 1) has its tasks rerun in the parent, so a fault of a task
    raises here with its own class and message; if the rerun passes, or
    the child was killed, or a fork fails, the call raises ResourceError.
    One task, one usable CPU, a platform without fork, or a call made while
    this process runs its share of a fan_out that forked, makes the caller
    the only worker.
    """
    global _busy
    forks = not _busy and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    workers = min(len(os.sched_getaffinity(0)), count) if forks and count > 1 else 1
    if workers == 1:
        out = np.zeros(size, dtype=dtype)
    else:
        nbytes = size * np.dtype(dtype).itemsize
        out = np.frombuffer(mmap.mmap(-1, nbytes), dtype=dtype)  # zero-filled
    pids: list[int] = []
    busy, _busy = _busy, _busy or workers > 1  # every child inherits it
    try:
        for rank in range(1, workers):
            try:
                pid = os.fork()
            except OSError as exc:
                raise ResourceError(f"cannot fork a sieve worker: {exc}") from exc
            if pid == 0:
                code = 1
                try:
                    for k in range(rank, count, workers):
                        fill(out, k)
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
        for k in range(0, count, workers):
            fill(out, k)
    finally:
        _busy = busy
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for rank, (pid, status) in enumerate(zip(pids, statuses), 1):
        code = os.waitstatus_to_exitcode(status)
        if code == 1:
            for k in range(rank, count, workers):
                fill(out, k)
        if code > 0:
            raise ResourceError(f"sieve worker {pid} exited with status {code}")
        if code < 0:
            raise ResourceError(f"sieve worker {pid} was killed by signal {-code}")
    return out

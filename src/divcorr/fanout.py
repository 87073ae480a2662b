"""fan_out, the one fork site: numbered independent tasks run on every
usable CPU, in the caller and in forked children that share one anonymous
mapping for their results.

The sieve's table builds and its streamed pass give it one task per window
of a table, and each task computes its window from its number; run_verify
gives it one task per identity suite.  Each worker takes the next task
number whenever it finishes one, so a long task does not hold back the
tasks dealt after it, and a task that raises leaves no number to take, so
the other workers finish only the tasks they hold.  A process that runs
its share of a fan_out that forked (the caller, until it has reaped its
children, or any child) runs every fan_out it calls in that process, so
nothing forks twice over: the workers of the outer call are already one
per CPU.
"""

from __future__ import annotations

import mmap
import os
import tempfile
from typing import Callable

import numpy as np
from numpy.typing import DTypeLike

from divcorr.errors import ResourceError

_busy = False  # this process runs its share of a fan_out that forked


def fan_out(
    size: int, dtype: DTypeLike, count: int, fill: Callable[[np.ndarray, int], None]
) -> np.ndarray:
    """A zeroed array of size entries after fill(out, k) has run once for
    every task k in range(count).

    fill writes only the entries of out that task k owns, so tasks are
    independent.  They run on one worker per usable CPU, the caller and
    forked children.  The caller takes task 0 before it forks, so no child
    races it for the first task, and each worker pulls the next task number
    when it has finished its last: a second shared mapping of 8 B per
    worker holds the next number and, per child, the task it runs, and a
    worker takes a number under os.lockf, a POSIX record lock, on a
    temporary file opened before the fork.  POSIX record locks belong to a
    process and go with it, so a child that dies holding the lock cannot
    hang the others.  A worker that raises, the caller or a child, leaves
    no task to pull, so the others finish only the tasks they hold.  With
    more than one worker the array lives in a shared anonymous mapping, and
    whatever else fill writes is each worker's own copy.  A child leaves by
    os._exit, so it flushes no stdio and runs no exit handler of the
    parent.  The parent reaps every child before it returns or raises.  A
    child that raised (status 1) has the one task it raised in rerun in
    the parent, so a fault of a task raises here with its own class and
    message; if the rerun passes, or the child was killed, or a fork fails,
    the call raises ResourceError.  One task, one usable CPU, a platform
    without fork, or a call made while this process runs its share of a
    fan_out that forked, makes the caller the only worker, which runs the
    tasks in order.
    """
    global _busy
    forks = not _busy and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    workers = min(len(os.sched_getaffinity(0)), count) if forks and count > 1 else 1
    if workers == 1:
        out = np.zeros(size, dtype=dtype)
        for k in range(count):
            fill(out, k)
        return out
    nbytes = size * np.dtype(dtype).itemsize
    out = np.frombuffer(mmap.mmap(-1, nbytes), dtype=dtype)  # zero-filled
    # slot 0 the next task number, slot r 1 + the task child r runs (0 before
    # its first); task 0 is the caller's
    state = np.frombuffer(mmap.mmap(-1, 8 * workers), dtype=np.int64)
    state[0] = 1
    with tempfile.TemporaryFile() as lock:

        def pull(rank: int, stop: bool = False) -> int:
            # the next task number, or count once none is left, taken under
            # the lock; stop leaves none
            os.lockf(lock.fileno(), os.F_LOCK, 0)
            try:
                k = count if stop else int(state[0])
                state[0] = min(k + 1, count)
                if rank and k < count:
                    state[rank] = k + 1
            finally:
                os.lockf(lock.fileno(), os.F_ULOCK, 0)
            return k

        pids: list[int] = []
        busy, _busy = _busy, True  # every child inherits it
        try:
            for rank in range(1, workers):
                try:
                    pid = os.fork()
                except OSError as exc:
                    raise ResourceError(f"cannot fork a sieve worker: {exc}") from exc
                if pid == 0:
                    code = 1
                    try:
                        while (k := pull(rank)) < count:
                            fill(out, k)
                        code = 0
                    except BaseException:
                        pull(rank, stop=True)
                    finally:
                        os._exit(code)
                pids.append(pid)
            fill(out, 0)
            while (k := pull(0)) < count:
                fill(out, k)
        except BaseException:
            pull(0, stop=True)
            raise
        finally:
            _busy = busy
            statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for rank, (pid, status) in enumerate(zip(pids, statuses), 1):
        code = os.waitstatus_to_exitcode(status)
        if code == 1 and state[rank]:
            fill(out, int(state[rank]) - 1)
        if code > 0:
            raise ResourceError(f"sieve worker {pid} exited with status {code}")
        if code < 0:
            raise ResourceError(f"sieve worker {pid} was killed by signal {-code}")
    return out

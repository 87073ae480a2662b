import os
import select

import pytest

import divcorr as dc

HANDSHAKE_TIMEOUT_S = 20  # a handshake that waits longer fails the test


@pytest.fixture(scope="session")
def spf250k():
    return dc.build_spf(250_000)


@pytest.fixture(scope="session")
def zc():
    return dc.compute_zeta_constants()


class Gate:
    """A pipe that forked processes share: wait() is True once any of them
    has called open(), and False after HANDSHAKE_TIMEOUT_S, so a handshake
    that never comes fails instead of hanging."""

    def __init__(self):
        self.r, self.w = os.pipe()

    def open(self):
        os.write(self.w, b"\0")

    def wait(self):
        return bool(select.select([self.r], [], [], HANDSHAKE_TIMEOUT_S)[0])

    def close(self):
        os.close(self.r)
        os.close(self.w)


def dealt(fan_out, task=1):
    """fan_out with its tasks dealt by a handshake, not by timing: the
    caller, which takes task 0 before it forks, holds it until a child
    starts `task`, so with two workers the child takes the tasks 1 to
    `task` in order.  A call of one task has nothing to deal.  A wait that
    times out raises TimeoutError."""

    def dealt_fan_out(size, dtype, count, fill):
        if count == 1:
            return fan_out(size, dtype, count, fill)
        caller = os.getpid()
        taken = Gate()

        def dealt_fill(out, k):
            if k == 0 and os.getpid() == caller:
                if not taken.wait():
                    raise TimeoutError(f"no child started task {task}")
            elif k == task:
                taken.open()
            fill(out, k)

        try:
            return fan_out(size, dtype, count, dealt_fill)
        finally:
            taken.close()

    return dealt_fan_out


@pytest.fixture
def deal(monkeypatch):
    """deal(module, task) deals the tasks of every fan_out that module calls
    from then on as dealt() does."""

    def patch(module, task=1):
        monkeypatch.setattr(module, "fan_out", dealt(module.fan_out, task))

    return patch

"""One step budget per scope, shared by every layer.

Work spends from the budget that ``step_budget`` opens for its block:
reduction steps and S-pairs in ``groebner``, partial maps tried in
``groupoid``.  Outside any block each ``budget()`` call returns a fresh
``DEFAULT_STEP_CAP`` budget, so an entry point fetches it once per call.
Exhausting it raises ``ResourceCapExceeded`` -- out of resources, never a
wrong answer.
"""

import contextlib
import contextvars

DEFAULT_STEP_CAP = 10**6


class ResourceCapExceeded(RuntimeError):
    """The step budget ran out before the computation finished."""


class _Budget:
    __slots__ = ("cap", "left")

    def __init__(self, cap):
        self.cap = self.left = cap

    def spend(self, operation, n=1):
        self.left -= n
        if self.left < 0:
            raise ResourceCapExceeded("step cap of %d exhausted in %s" % (self.cap, operation))


_open_budget = contextvars.ContextVar("lra_step_budget", default=None)


@contextlib.contextmanager
def step_budget(cap):
    """Open one budget of ``cap`` steps for everything the block runs; yields it."""
    steps = _Budget(int(cap))
    token = _open_budget.set(steps)
    try:
        yield steps
    finally:
        _open_budget.reset(token)


def budget():
    """The open budget, or a fresh default one outside any ``step_budget`` block."""
    return _open_budget.get() or _Budget(DEFAULT_STEP_CAP)


def default_step_cap():
    """The cap of the open budget, or ``DEFAULT_STEP_CAP`` outside any block."""
    return budget().cap

"""The package's one way to start a process: a forked child that runs one function.

The training evaluator and the dataset sampler fork through :class:`Child`, so
when a child may start, how it leaves, how it is killed and reaped, and how its
death is worded are decided here.
"""

from __future__ import annotations

import os
import signal
import threading


def may_fork() -> bool:
    """Whether a forked child can run beside this process.

    ``os.fork`` must exist, this process may run on at least two CPUs
    (``os.sched_getaffinity``), and no other thread runs: a lock one held at
    the fork would stay held in the child.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return hasattr(os, "fork") and cpus >= 2 and threading.active_count() == 1


def no_result(what: str, code: int) -> str:
    """How the ``what`` process ended without a result, from its :meth:`Child.reap` code."""
    how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
    return f"the {what} process {how} without a result"


class Child:
    """A forked process that runs ``run()``.

    The child leaves through ``os._exit``, with status 0 once ``run()``
    returns and 1 if it raises, so it never flushes a buffer it shares with
    the caller.  ``pid`` is None once the child is reaped.
    """

    def __init__(self, run):
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                run()
                status = 0
            finally:
                os._exit(status)
        self.pid: int | None = pid

    @staticmethod
    def pipe() -> list:
        """A one-way ``multiprocessing`` connection, ``[reader, writer]``, to share with a child."""
        from multiprocessing import Pipe  # here, not at import: only a child needs it

        return list(Pipe(duplex=False))

    def reap(self) -> int:
        """Wait for the child to end: its exit status, or minus the signal that killed it."""
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        return code

    def kill(self) -> None:
        """Kill the child unless it is reaped, and reap it."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None

"""Every process a run starts has ended, and been reaped, before it exits.

The server process forks its ``JobQueue`` workers, the workers may fork
``pmap`` pools, and the ``spawn`` start method launches the
``multiprocessing`` resource tracker, which nothing waits for.  A
process orphaned on any of these paths would be re-parented to init and
outlive the run, as a live process or as a zombie init never reaps.

:func:`become_subreaper` makes this process a Linux child subreaper, so
an orphaned descendant is re-parented here instead.  :func:`stop_all`,
called on every way out of a run, then terminates what is left, closes
the resource tracker's pipe so that it exits, and reaps every child.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time

#: ``prctl`` option from ``<linux/prctl.h>``.
PR_SET_CHILD_SUBREAPER = 36
#: Longest wait for a signalled child to exit before the next signal.
GRACE_S = 5.0
#: Passes of the final sweep for children orphaned while it runs.
SWEEPS = 5


def become_subreaper() -> bool:
    """Adopt orphaned descendants (Linux only); True when it took."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def children() -> list[int]:
    """Pids whose parent is this process, zombies included, from /proc."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:  # it ended while we looked
            continue
        # The command name may hold spaces or ')': the fields follow the last ')'.
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def _signal(pids: list[int], sig: int) -> None:
    for pid in pids:
        try:
            os.kill(pid, sig)
        except ProcessLookupError:
            pass


def _reap(pids: list[int], timeout_s: float) -> list[int]:
    """Wait up to ``timeout_s`` for each pid; return those still running."""
    left = set(pids)
    deadline = time.monotonic() + timeout_s
    while left:
        for pid in list(left):
            try:
                done, _status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:  # reaped elsewhere, or not ours
                done = pid
            if done:
                left.discard(pid)
        if not left or time.monotonic() >= deadline:
            break
        time.sleep(0.02)
    return sorted(left)


def _stop_tracker() -> None:
    """Stop the resource tracker this process launched, if it did.

    It ignores SIGTERM and exits when the last holder of its pipe closes
    it; every other holder is a descendant, stopped by then.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    fd, pid = getattr(tracker, "_fd", None), getattr(tracker, "_pid", None)
    tracker._fd = tracker._pid = None
    if fd is not None:
        os.close(fd)
    if pid is not None and _reap([pid], GRACE_S):
        _signal([pid], signal.SIGKILL)
        _reap([pid], GRACE_S)


def stop_all() -> None:
    """Terminate, then kill, every child; stop the tracker; reap them all."""
    from multiprocessing import resource_tracker

    tracker_pid = getattr(resource_tracker._resource_tracker, "_pid", None)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = [p for p in children() if p != tracker_pid]
        _signal(pids, sig)
        _reap(pids, GRACE_S)
    _stop_tracker()
    for _ in range(SWEEPS):
        pids = children()
        if not pids:
            break
        _signal(pids, signal.SIGKILL)
        _reap(pids, GRACE_S)

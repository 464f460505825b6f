"""Hold the loaded BLAS libraries at one thread while a run executes.

The catalog's GEMMs are too small to gain from a second BLAS thread:
it contends with :func:`repro.parallel.pmap` workers for the same cores,
where an idle BLAS thread spinning beside a busy worker can slow a pool
several-fold, and it costs a thread-local buffer.  The default thread
count is also a host-dependent setting, so a run pins it rather than
inherit it.  numpy and scipy wheels each bundle their own OpenBLAS; both
are found with ctypes once per process (the lookup takes about a
millisecond), after ``repro.utils`` has imported both packages.  Where no
controllable BLAS is loaded every function here does nothing and
:func:`describe` reports the BLAS as ``"unpinned"``.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = ["describe", "pin_process", "single_thread", "thread_counts"]

# (get, set) thread-count symbols: numpy 2.x and scipy wheels, then older
# OpenBLAS builds.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# The thread count is process-wide, so the pin count is too: concurrent
# runs share one pin, and the last to finish restores the caller's counts.
_lock = threading.Lock()
_pins = 0
_restore: list[int] = []


@functools.cache
def _libraries() -> tuple[tuple[str, Any, Any], ...]:
    """``(file name, get, set)`` of every loaded OpenBLAS."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({ln.split()[-1] for ln in maps if "openblas" in ln.lower()})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)  # already loaded: this is the same handle
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((os.path.basename(path), get, set_))
                break
    return tuple(found)


def thread_counts() -> dict[str, int]:
    """Each loaded, controllable BLAS's current thread count, by file name."""
    return {name: get() for name, get, _ in _libraries()}


def describe() -> dict[str, Any]:
    """The BLAS a run uses: its libraries and the thread count a run holds
    them at — ``1``, or ``"unpinned"`` when none is controllable."""
    names = [name for name, _, _ in _libraries()]
    return {"library": names, "threads": 1 if names else "unpinned"}


@contextmanager
def single_thread() -> Iterator[None]:
    """Hold every loaded BLAS at one thread for the body."""
    global _pins, _restore
    libraries = _libraries()
    with _lock:
        if _pins == 0:
            _restore = [get() for _, get, _ in libraries]
            pin_process()
        _pins += 1
    try:
        yield
    finally:
        with _lock:
            _pins -= 1
            if _pins == 0:
                for (_, _, set_), count in zip(libraries, _restore):
                    set_(count)


def pin_process() -> None:
    """Hold every loaded BLAS at one thread for the rest of this process."""
    for _, _, set_ in _libraries():
        set_(1)
